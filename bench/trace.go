package main

import (
	"bufio"
	"fmt"
	"math"
	"os"
	"path/filepath"
	"sort"
	"time"
)

// chunk is how many sub-microsecond calls one layer span covers, keeping
// time.Now out of the per-op result.
const chunk = 256

// span is one traced interval. Root spans ("client.<cmd>") wrap one client
// call of the traced end-to-end pass; layer spans replay the same op stream
// in-process, carry the id of the first op they cover as the shared
// identifier, and name their root as parent.
type span struct {
	name   string
	op     int // id of the (first) op covered
	n      int // ops covered; > 1 for chunked layer spans
	parent string
	start  int64 // ns since the recorder's epoch
	end    int64
}

// recorder keeps spans in memory until the run ends. It is not safe for
// concurrent use: each load goroutine records into its own and they are
// merged afterwards.
type recorder struct {
	epoch time.Time
	spans []span
}

func newRecorder(epoch time.Time, capacity int) *recorder {
	return &recorder{epoch: epoch, spans: make([]span, 0, capacity)}
}

// add records one span; a nil recorder (tracing off) records nothing.
func (r *recorder) add(name, parent string, op, n int, start, end time.Time) {
	if r == nil {
		return
	}
	r.spans = append(r.spans, span{name: name, op: op, n: n, parent: parent,
		start: start.Sub(r.epoch).Nanoseconds(), end: end.Sub(r.epoch).Nanoseconds()})
}

// timeChunks runs call(i) for i in [0, n) in chunks, one span per chunk, and
// returns the median per-op nanoseconds over the chunks (0 when n is 0).
func (r *recorder) timeChunks(name, parent string, n int, call func(i int)) float64 {
	var perOp []float64
	for lo := 0; lo < n; lo += chunk {
		hi := min(lo+chunk, n)
		t0 := time.Now()
		for i := lo; i < hi; i++ {
			call(i)
		}
		t1 := time.Now()
		r.add(name, parent, lo, hi-lo, t0, t1)
		perOp = append(perOp, float64(t1.Sub(t0).Nanoseconds())/float64(hi-lo))
	}
	return median(perOp)
}

// write stores the spans as a JSON array under dir.
func (r *recorder) write(dir, workload string) error {
	if err := os.MkdirAll(dir, 0o755); err != nil {
		return err
	}
	f, err := os.Create(filepath.Join(dir, workload+".trace.json"))
	if err != nil {
		return err
	}
	w := bufio.NewWriterSize(f, 1<<20)
	w.WriteString("[\n")
	for i, s := range r.spans {
		sep := ","
		if i == len(r.spans)-1 {
			sep = ""
		}
		fmt.Fprintf(w, `{"name":%q,"op":%d,"ops":%d,"parent":%q,"start_ns":%d,"end_ns":%d}%s`+"\n",
			s.name, s.op, s.n, s.parent, s.start, s.end, sep)
	}
	w.WriteString("]\n")
	if err := w.Flush(); err != nil {
		f.Close()
		return err
	}
	return f.Close()
}

// ms and us convert a duration to fractional milli- and microseconds.
func ms(d time.Duration) float64 { return float64(d.Nanoseconds()) / 1e6 }
func us(d time.Duration) float64 { return float64(d.Nanoseconds()) / 1e3 }

func median(v []float64) float64 { return quantile(v, 0.5) }

// quantile returns the nearest-rank q-quantile of v (0 for an empty slice);
// it sorts v in place.
func quantile(v []float64, q float64) float64 {
	if len(v) == 0 {
		return 0
	}
	sort.Float64s(v)
	i := int(math.Ceil(q*float64(len(v)))) - 1
	return v[max(0, min(i, len(v)-1))]
}

// sample is one completed op of a timed phase, in nanoseconds: when it
// completed on the phase's clock, and how long it took.
type sample struct{ end, lat int64 }

// latencies summarises client-observed per-op latencies in microseconds.
type latencies struct {
	p50, p90, p99, p999, maxUs float64
}

func summarise(samples []sample) latencies {
	v := make([]float64, len(samples))
	for i, x := range samples {
		v[i] = float64(x.lat) / 1e3
	}
	return latencies{
		p50: quantile(v, 0.5), p90: quantile(v, 0.9), p99: quantile(v, 0.99),
		p999: quantile(v, 0.999), maxUs: quantile(v, 1),
	}
}

// tail fills the client layer's latency metrics of a traced pass.
func (l latencies) tail(m map[string]float64) {
	m["lat_p99_us"], m["client.lat_p999_us"], m["client.lat_max_us"] = l.p99, l.p999, l.maxUs
}

// opsPerSec is the throughput over all of samples (ordered by completion).
func opsPerSec(samples []sample) float64 {
	return float64(len(samples)) / (float64(samples[len(samples)-1].end) / 1e9)
}
