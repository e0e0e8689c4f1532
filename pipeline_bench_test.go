package ocasta

// Streaming-analytics benchmarks: the one-shot pipeline over a decoded
// trace versus the incremental engine on identical event sets, and
// dirty-component reclustering versus a full HAC pass. Measured results are recorded in
// BENCH_pipeline.json (format documented in README.md).

import (
	"bytes"
	"testing"

	"ocasta/internal/core"
	"ocasta/internal/trace"
	"ocasta/internal/workload"
)

// pipelineSpec generates exactly 1,000,000 events: 150k episodes, every
// third writing half its 8-key component.
var pipelineSpec = workload.StreamSpec{
	Apps:             8,
	Components:       400,
	KeysPerComponent: 8,
	Episodes:         150_000,
	Seed:             1,
}

// encodePipelineTrace materialises the benchmark trace in the binary
// codec format, the shape both pipelines consume.
func encodePipelineTrace(b *testing.B) []byte {
	b.Helper()
	tr := workload.SyntheticStream(pipelineSpec)
	if got, want := len(tr.Events), pipelineSpec.Events(); got != want {
		b.Fatalf("spec generated %d events, want %d", got, want)
	}
	var buf bytes.Buffer
	if err := trace.WriteBinary(&buf, tr); err != nil {
		b.Fatal(err)
	}
	return buf.Bytes()
}

// BenchmarkPipelineEndToEnd runs decode→window→stats→cluster over the
// 1M-event trace, one-shot versus streaming. The one-shot side decodes the
// whole trace and clusters it in one call (ReadBinary, StatsOf, Cluster);
// the streaming side is the incremental engine fed event-by-event from the
// streaming decoder. Both run the same windower and the same
// per-component HAC, and their outputs are identical (property-tested in
// internal/core); only the cost differs.
func BenchmarkPipelineEndToEnd(b *testing.B) {
	encoded := encodePipelineTrace(b)
	events := pipelineSpec.Events()

	b.Run("oneshot", func(b *testing.B) {
		b.ReportAllocs()
		var clusters int
		for i := 0; i < b.N; i++ {
			tr, err := trace.ReadBinary(bytes.NewReader(encoded))
			if err != nil {
				b.Fatal(err)
			}
			ps := core.StatsOf(tr.Events, trace.DefaultWindow)
			clusters = len(core.NewClusterer(core.LinkageComplete).Cluster(ps, core.DefaultThreshold))
		}
		if clusters == 0 {
			b.Fatal("no clusters")
		}
		b.ReportMetric(float64(events)*float64(b.N)/b.Elapsed().Seconds(), "events/s")
	})

	b.Run("streaming", func(b *testing.B) {
		b.ReportAllocs()
		var clusters int
		for i := 0; i < b.N; i++ {
			eng := core.NewEngine(core.EngineConfig{})
			// Metadata-only decode: clustering never inspects values.
			if _, err := trace.ReadBinaryStreamMeta(bytes.NewReader(encoded), func(ev trace.Event) error {
				eng.Push(ev)
				return nil
			}); err != nil {
				b.Fatal(err)
			}
			eng.Flush()
			clusters = len(eng.Recluster())
		}
		if clusters == 0 {
			b.Fatal("no clusters")
		}
		b.ReportMetric(float64(events)*float64(b.N)/b.Elapsed().Seconds(), "events/s")
	})
}

// reclusterSpec builds a 1000-component universe (10k keys, 250k events)
// whose steady state the dirty benchmark perturbs.
var reclusterSpec = workload.StreamSpec{
	Apps:             1,
	Components:       1000,
	KeysPerComponent: 10,
	Episodes:         30_000,
	Seed:             2,
}

// feedEngine pushes a trace through an engine.
func feedEngine(eng *core.Engine, tr *trace.Trace) {
	for _, ev := range tr.Events {
		eng.Push(ev)
	}
}

// BenchmarkReclusterDirty measures one "10 fresh episodes touching 1% of
// components, then recluster" cycle. The dirty variant reclusters through
// the engine (clean components spliced from cache); the full variant
// re-runs HAC over the whole universe from the same incremental
// statistics — what a periodic batch job would do.
func BenchmarkReclusterDirty(b *testing.B) {
	const (
		dirtyComponents   = 10 // 1% of reclusterSpec.Components
		episodesPerUpdate = 10
	)
	baseTrace := workload.SyntheticStream(reclusterSpec)

	b.Run("dirty-1pct", func(b *testing.B) {
		eng := core.NewEngine(core.EngineConfig{})
		feedEngine(eng, baseTrace)
		eng.Flush()
		if len(eng.Recluster()) == 0 {
			b.Fatal("empty base clustering")
		}
		b.ResetTimer()
		b.ReportAllocs()
		for i := 0; i < b.N; i++ {
			update := workload.DirtyEpisodes(reclusterSpec, dirtyComponents, episodesPerUpdate, i)
			feedEngine(eng, update)
			eng.Flush()
			if len(eng.Recluster()) == 0 {
				b.Fatal("empty clustering")
			}
		}
	})

	b.Run("full", func(b *testing.B) {
		ps := core.StatsOf(baseTrace.Events, trace.DefaultWindow)
		clusterer := core.NewClusterer(core.LinkageComplete)
		if len(clusterer.Cluster(ps, core.DefaultThreshold)) == 0 {
			b.Fatal("empty base clustering")
		}
		b.ResetTimer()
		b.ReportAllocs()
		for i := 0; i < b.N; i++ {
			update := workload.DirtyEpisodes(reclusterSpec, dirtyComponents, episodesPerUpdate, i)
			ps.Merge(core.StatsOf(update.Events, trace.DefaultWindow))
			if len(clusterer.Cluster(ps, core.DefaultThreshold)) == 0 {
				b.Fatal("empty clustering")
			}
		}
	})
}
