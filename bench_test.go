package ocasta

// One benchmark per table and figure of the paper's evaluation, plus
// ablation benches for the design choices documented in README.md. The
// figure benches use reduced axes so `go test -bench=.` completes in
// minutes; `cmd/repro` regenerates every experiment at full scale.

import (
	"fmt"
	"testing"
	"time"

	"ocasta/internal/apps"
	"ocasta/internal/core"
	"ocasta/internal/repair"
	"ocasta/internal/repro"
	"ocasta/internal/trace"
	"ocasta/internal/ttkv"
	"ocasta/internal/workload"
)

// BenchmarkTable1TraceStats measures generating one deployment machine and
// computing its Table I row (Linux-1: Evolution + Eye of GNOME + GEdit).
func BenchmarkTable1TraceStats(b *testing.B) {
	p, _ := workload.ProfileByName("Linux-1")
	b.ReportAllocs()
	for i := 0; i < b.N; i++ {
		res := workload.Generate(p)
		st := res.Store.Stats()
		if st.Keys == 0 {
			b.Fatal("empty deployment")
		}
	}
}

// BenchmarkTable2ClusteringAccuracy measures the full Table II study: all
// 11 applications generated, windowed, clustered, and scored.
func BenchmarkTable2ClusteringAccuracy(b *testing.B) {
	b.ReportAllocs()
	for i := 0; i < b.N; i++ {
		res := repro.Table2()
		if res.Overall < 0.85 || res.Overall > 0.92 {
			b.Fatalf("overall accuracy drifted: %v", res.Overall)
		}
	}
}

// BenchmarkTable4Repair measures the recovery experiment on one error per
// logger kind plus the worst-case file error (#16).
func BenchmarkTable4Repair(b *testing.B) {
	ids := []int{1, 9, 13, 16}
	// Warm the machine cache outside the timed region.
	for _, id := range ids {
		if _, err := repro.NewScenario(id, repro.DefaultInjectionDays, 0); err != nil {
			b.Fatal(err)
		}
	}
	b.ResetTimer()
	b.ReportAllocs()
	for i := 0; i < b.N; i++ {
		for _, id := range ids {
			sc, err := repro.NewScenario(id, repro.DefaultInjectionDays, 0)
			if err != nil {
				b.Fatal(err)
			}
			res, err := sc.Search(repair.StrategyDFS, false)
			if err != nil || !res.Found {
				b.Fatalf("#%d: found=%v err=%v", id, res != nil && res.Found, err)
			}
		}
	}
}

// BenchmarkFig2aInjectionAge measures the DFS/BFS sweep over injection
// ages (reduced axes).
func BenchmarkFig2aInjectionAge(b *testing.B) {
	warm(b, 1, 8, 13)
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		if _, err := repro.Fig2a([]int{1, 8, 13}, []int{2, 14}); err != nil {
			b.Fatal(err)
		}
	}
}

// BenchmarkFig2bSpuriousWrites measures the spurious-write sweep.
func BenchmarkFig2bSpuriousWrites(b *testing.B) {
	warm(b, 1, 8, 13)
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		if _, err := repro.Fig2b([]int{1, 8, 13}, []int{0, 2}); err != nil {
			b.Fatal(err)
		}
	}
}

// BenchmarkFig2cTimeBound measures the search-bound sweep.
func BenchmarkFig2cTimeBound(b *testing.B) {
	warm(b, 13, 16)
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		if _, err := repro.Fig2c([]int{13, 16}, []int{14, 80}); err != nil {
			b.Fatal(err)
		}
	}
}

// BenchmarkFig3aWindowSize measures the window-size sensitivity sweep,
// including the zero-second cliff point.
func BenchmarkFig3aWindowSize(b *testing.B) {
	for i := 0; i < b.N; i++ {
		pts := repro.Fig3a([]time.Duration{0, time.Second, 600 * time.Second})
		if pts[1].AvgSize <= pts[0].AvgSize {
			b.Fatal("window cliff missing")
		}
	}
}

// BenchmarkFig3bThreshold measures the threshold sensitivity sweep.
func BenchmarkFig3bThreshold(b *testing.B) {
	for i := 0; i < b.N; i++ {
		pts := repro.Fig3b([]float64{0.5, 2})
		if pts[0].AvgSize <= 0 {
			b.Fatal("empty sweep")
		}
	}
}

// BenchmarkFig4UserStudy measures the simulated 19-participant study.
func BenchmarkFig4UserStudy(b *testing.B) {
	b.ReportAllocs()
	for i := 0; i < b.N; i++ {
		out := repro.Fig4(int64(i + 1))
		if len(out.Errors) != 4 {
			b.Fatal("study shape wrong")
		}
	}
}

// --- ablation benches (design choices documented in README.md) ---

// benchLinkage clusters the largest application (Acrobat, 751 keys) under
// one linkage criterion.
func benchLinkage(b *testing.B, linkage core.Linkage) {
	b.Helper()
	m := apps.Acrobat()
	res := workload.Generate(workload.StudyUsage(m, 108))
	ps := core.StatsOf(res.Trace.ByApp(m.Name).Events, trace.DefaultWindow)
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		clusters := core.NewClusterer(linkage).Cluster(ps, core.DefaultThreshold)
		if len(clusters) == 0 {
			b.Fatal("no clusters")
		}
	}
}

// BenchmarkAblationLinkageComplete is the paper's choice (maximum
// linkage).
func BenchmarkAblationLinkageComplete(b *testing.B) { benchLinkage(b, core.LinkageComplete) }

// BenchmarkAblationLinkageSingle ablates to single linkage.
func BenchmarkAblationLinkageSingle(b *testing.B) { benchLinkage(b, core.LinkageSingle) }

// BenchmarkAblationLinkageAverage ablates to average linkage (UPGMA).
func BenchmarkAblationLinkageAverage(b *testing.B) { benchLinkage(b, core.LinkageAverage) }

// BenchmarkAblationNoClust measures the single-setting-rollback baseline
// on error #9, which it cannot fix — the search exhausts its space.
func BenchmarkAblationNoClust(b *testing.B) {
	warm(b, 9)
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		sc, err := repro.NewScenario(9, repro.DefaultInjectionDays, 0)
		if err != nil {
			b.Fatal(err)
		}
		res, err := sc.Search(repair.StrategyDFS, true)
		if err != nil {
			b.Fatal(err)
		}
		if res.Found {
			b.Fatal("NoClust must not fix the mark-seen pair")
		}
	}
}

// BenchmarkAblationSecondGranularity contrasts clustering Evolution (whose
// oversized clusters come from 1-second timestamps) at 0s vs 1s windows —
// the paper's stated root cause analysis.
func BenchmarkAblationSecondGranularity(b *testing.B) {
	m := apps.Evolution()
	res := workload.Generate(workload.StudyUsage(m, 101))
	tr := res.Trace.ByApp(m.Name)
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		for _, window := range []time.Duration{0, time.Second} {
			ps := core.StatsOf(tr.Events, window)
			core.NewClusterer(core.LinkageComplete).Cluster(ps, core.DefaultThreshold)
		}
	}
}

// --- core micro-benches ---

// BenchmarkClusteringPipeline measures windowing + correlation + HAC for
// the largest application.
func BenchmarkClusteringPipeline(b *testing.B) {
	m := apps.Acrobat()
	res := workload.Generate(workload.StudyUsage(m, 108))
	tr := res.Trace.ByApp(m.Name)
	b.ResetTimer()
	b.ReportAllocs()
	for i := 0; i < b.N; i++ {
		ps := core.StatsOf(tr.Events, trace.DefaultWindow)
		core.NewClusterer(core.LinkageComplete).Cluster(ps, core.DefaultThreshold)
	}
}

// BenchmarkTTKVSet measures raw store write throughput.
func BenchmarkTTKVSet(b *testing.B) {
	store := ttkv.New()
	base := time.Date(2013, 6, 1, 0, 0, 0, 0, time.UTC)
	b.ReportAllocs()
	for i := 0; i < b.N; i++ {
		if err := store.Set("bench-key", "value", base.Add(time.Duration(i)*time.Second)); err != nil {
			b.Fatal(err)
		}
	}
}

// BenchmarkTTKVGetAt measures point-in-time reads over a 10k-version
// history.
func BenchmarkTTKVGetAt(b *testing.B) {
	store := ttkv.New()
	base := time.Date(2013, 6, 1, 0, 0, 0, 0, time.UTC)
	for i := 0; i < 10_000; i++ {
		if err := store.Set("k", "v", base.Add(time.Duration(i)*time.Second)); err != nil {
			b.Fatal(err)
		}
	}
	b.ResetTimer()
	b.ReportAllocs()
	for i := 0; i < b.N; i++ {
		if _, err := store.GetAt("k", base.Add(time.Duration(i%10_000)*time.Second)); err != nil {
			b.Fatal(err)
		}
	}
}

// warm populates the machine cache for the given faults outside timing.
func warm(b *testing.B, ids ...int) {
	b.Helper()
	for _, id := range ids {
		if _, err := repro.NewScenario(id, repro.DefaultInjectionDays, 0); err != nil {
			b.Fatal(err)
		}
	}
}

// --- scale benches (nearest-neighbour-chain clusterer) ---

// syntheticScaleEvents builds a write stream over k keys whose
// co-modification graph is one sparse component (ring plus chords) — a key
// universe far beyond the paper's largest application (Acrobat, 751 keys).
// Each episode gets its own window.
func syntheticScaleEvents(k int) []Event {
	base := time.Date(2013, 6, 1, 0, 0, 0, 0, time.UTC)
	key := func(i int) string { return fmt.Sprintf("key%05d", i%k) }
	var events []Event
	episode := 0
	emit := func(keys ...string) {
		ts := base.Add(time.Duration(episode) * 10 * time.Second)
		episode++
		for _, kk := range keys {
			events = append(events, Event{
				Time: ts, Op: OpWrite, Store: StoreRegistry,
				App: "scale", Key: kk, Value: "v",
			})
		}
	}
	for i := 0; i < k; i++ {
		emit(key(i), key(i+1))
		if i%3 == 0 {
			emit(key(i), key(i+1), key(i+2))
		}
		if i%5 == 0 {
			emit(key(i), key(i+7))
		}
	}
	return events
}

// BenchmarkClusterScale measures the public clustering pipeline
// (windowing + pair statistics + nearest-neighbour-chain HAC with parallel
// component clustering) on synthetic sparse key universes; see
// internal/core's BenchmarkClusterLargeComponent for the comparison
// against the naive O(k³) reference.
func BenchmarkClusterScale(b *testing.B) {
	for _, k := range []int{500, 2000, 5000} {
		events := syntheticScaleEvents(k)
		b.Run(fmt.Sprintf("k=%d", k), func(b *testing.B) {
			b.ReportAllocs()
			for i := 0; i < b.N; i++ {
				clusters := ClusterEvents(events, Config{Threshold: 1})
				if len(clusters) == 0 {
					b.Fatal("no clusters")
				}
			}
		})
	}
}
