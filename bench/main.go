// Command bench is the repository's benchmark: it drives real ttkvd child
// processes over loopback with the wire client (closed loop, two
// connections), checks their outputs against a client-side model, and prints
// the end-to-end metrics (tracing off) or the per-layer metrics (tracing on)
// named in BENCHMARK.json. Run it through bench/run.sh, which builds ttkvd
// and this program first. See README.md in this directory.
package main

import (
	"encoding/json"
	"flag"
	"fmt"
	"math"
	"os"
	"os/signal"
	"runtime"
	"runtime/debug"
	"sort"
	"syscall"
	"time"
)

// config is one invocation's settings.
type config struct {
	seed int64
	// seconds sizes every timed phase: it is turned into a fixed count of
	// operations that takes about that long on the seed (see kvWorkload).
	seconds float64
	trace   bool
	outDir  string // where traced runs write their span files
	// smoke is set by smoke_test.go only: small key spaces and preloads and a
	// single set-up, so that it covers every workload and metric in seconds.
	smoke bool
}

// Where run.sh builds the daemon, where the children's directories go, and
// where the span files of traced runs go, all relative to the checkout root.
const (
	ttkvdPath   = ".bench_build/ttkvd"
	scratchRoot = ".bench_build/run"
	spanDir     = "bench/out"
)

// setups is how often the set-up is repeated; setup_s and restart_s are the
// medians.
func (c config) setups() int {
	if c.smoke {
		return 1
	}
	return 3
}

type metricDef struct{ name, unit string }

// endToEnd and perLayer list every metric with its unit, in BENCHMARK.json's
// order; smoke_test.go holds the two files to each other. Every workload
// prints every metric of the selected list; a layer a workload does not
// exercise reads 0.
var endToEnd = []metricDef{
	{"setup_s", "s"}, {"ops_per_s", "1/s"}, {"lat_p50_us", "us"}, {"lat_p90_us", "us"},
	{"restart_s", "s"}, {"log_bytes_per_user_byte", "B/B"},
}

var perLayer = []metricDef{
	{"lat_p99_us", "us"}, {"client.lat_p999_us", "us"}, {"client.lat_max_us", "us"},
	{"error_frac", "frac"}, {"cluster_exact_frac", "frac"}, {"cluster_ref_match_frac", "frac"},
	{"trials_mean", "count"}, {"screenshots_mean", "count"},
	{"proto.req_encode_ns_per_op", "ns"}, {"proto.req_decode_ns_per_op", "ns"}, {"proto.req_decode_allocs_per_op", "count"},
	{"proto.reply_encode_ns_per_op", "ns"}, {"proto.reply_decode_ns_per_op", "ns"}, {"proto.reply_bytes_per_op", "B"},
	{"server.ping_rtt_ns", "ns"}, {"server.rtt_ns_per_op", "ns"}, {"server.allocs_per_op", "count"}, {"server.dispatch_self_ns_per_op", "ns"},
	{"store.apply_ns_per_op", "ns"}, {"store.get_ns_per_op", "ns"}, {"store.getat_ns_per_op", "ns"},
	{"store.history_ns_per_op", "ns"}, {"store.modtimes_ns_per_op", "ns"}, {"store.keys", "count"}, {"store.versions", "count"},
	{"groupcommit.enqueue_ns_per_op", "ns"}, {"groupcommit.sync_ms", "ms"}, {"groupcommit.fsyncs", "count"},
	{"segment.bytes_written", "B"}, {"segment.files", "count"}, {"segment.replay_s", "s"},
	{"replication.mint_ns_per_op", "ns"}, {"replication.feed_records_per_s", "1/s"},
	{"semisync.ack_wait_us_p50", "us"}, {"semisync.retries", "count"}, {"replica.cpu_s", "s"}, {"replica.lag_records_at_end", "count"},
	{"engine.observe_ns_per_op", "ns"}, {"engine.recluster_ms", "ms"}, {"engine.keys", "count"}, {"engine.groups", "count"},
	{"repair.cluster_ms", "ms"}, {"repair.search_ms", "ms"}, {"repair.applyfix_us", "us"}, {"faults.inject_us", "us"},
	{"repair.wire_overhead_ms", "ms"}, {"recover.load_events_per_s", "1/s"},
	{"ttkvd.start_ms", "ms"}, {"ttkvd.cpu_s_per_mop", "s"}, {"ttkvd.peak_rss_mb", "MB"},
	{"workload.generate_s", "s"}, {"trace.overhead_frac", "frac"}, {"unattributed_frac", "frac"},
}

var workloadNames = []string{"logger_set", "flush_mset_semisync", "history_read", "recover"}

// metric and result are the JSON the driver reads from the last stdout line.
type metric struct {
	Value float64 `json:"value"`
	Unit  string  `json:"unit"`
}

type result struct {
	Workload  string            `json:"workload,omitempty"` // only when several workloads run
	Correct   bool              `json:"correct"`
	Attempted int               `json:"attempted"`
	Failed    int               `json:"failed"`
	Metrics   map[string]metric `json:"metrics"`
}

// runWorkload runs one workload under its watchdog and shapes the outcome.
func (h *harness) runWorkload(name string, cfg config) (*result, error) {
	// A run takes 20-30 s on an idle sandbox (three set-ups, warm-up, timed
	// phase, verification) and several times that when the host steals CPU;
	// the watchdog sits just inside the driver's 180 s limit.
	limit := time.Duration((150 + 2*cfg.seconds) * float64(time.Second))
	watchdog := time.AfterFunc(limit, func() {
		fmt.Fprintf(os.Stderr, "bench: %s exceeded its %v watchdog\n", name, limit)
		h.cleanup()
		os.Exit(3)
	})
	defer watchdog.Stop()

	var out *outcome
	var err error
	if name == "recover" {
		out, err = h.runRecover(cfg)
	} else {
		for _, w := range kvWorkloads {
			if w.name == name {
				out, err = h.runKV(w, cfg)
			}
		}
	}
	if err != nil {
		return nil, fmt.Errorf("%s: %w", name, err)
	}
	if out == nil {
		return nil, fmt.Errorf("unknown workload %q (have %v)", name, workloadNames)
	}
	out.metrics["error_frac"] = float64(out.failed) / float64(max(out.attempted, 1))
	defs := endToEnd
	if cfg.trace {
		defs = perLayer
	}
	res := &result{Correct: out.failed == 0, Attempted: max(out.attempted, 1), Failed: out.failed, Metrics: make(map[string]metric)}
	for _, d := range defs {
		v := out.metrics[d.name]
		if math.IsNaN(v) || math.IsInf(v, 0) {
			return nil, fmt.Errorf("%s: metric %s is %v", name, d.name, v)
		}
		res.Metrics[d.name] = metric{Value: v, Unit: d.unit}
		fmt.Fprintf(os.Stderr, "%-20s %-34s %16.4f %s\n", name, d.name, v, d.unit)
	}
	fmt.Fprintf(os.Stderr, "%-20s attempted %d, failed %d\n", name, res.Attempted, res.Failed)
	for i, p := range out.problems {
		if i == 20 {
			fmt.Fprintf(os.Stderr, "%-20s ... and %d more\n", name, len(out.problems)-i)
			break
		}
		fmt.Fprintf(os.Stderr, "%-20s FAILED: %s\n", name, p)
	}
	return res, nil
}

// bounds reads each end-to-end metric's regression bound from BENCHMARK.json
// at the checkout root.
func bounds() (map[string]float64, error) {
	b, err := os.ReadFile("BENCHMARK.json")
	if err != nil {
		return nil, err
	}
	var doc struct {
		EndToEnd []struct {
			Name  string  `json:"name"`
			Bound float64 `json:"bound"`
		} `json:"end_to_end"`
	}
	if err := json.Unmarshal(b, &doc); err != nil {
		return nil, fmt.Errorf("BENCHMARK.json: %w", err)
	}
	out := make(map[string]float64)
	for _, m := range doc.EndToEnd {
		out[m.Name] = m.Bound
	}
	return out, nil
}

// repeatability runs every workload sets times on the same code and reports,
// per (metric, workload), (max−min)/median beside the metric's bound.
func (h *harness) repeatability(names []string, cfg config, sets int) (ok bool, err error) {
	bound, err := bounds()
	if err != nil {
		return false, err
	}
	ok = true
	for _, name := range names {
		values := make(map[string][]float64)
		for i := 0; i < sets; i++ {
			res, err := h.runWorkload(name, cfg)
			if err != nil {
				return false, err
			}
			ok = ok && res.Correct
			for k, v := range res.Metrics {
				values[k] = append(values[k], v.Value)
			}
		}
		for _, d := range endToEnd {
			v := values[d.name]
			sort.Float64s(v)
			spread := (v[len(v)-1] - v[0]) / median(v)
			verdict := "within"
			if spread > bound[d.name] {
				verdict, ok = "EXCEEDS", false
			}
			fmt.Printf("%-20s %-26s median %14.4f %-4s spread %.4f %s bound %.2f\n",
				name, d.name, median(v), d.unit, spread, verdict, bound[d.name])
		}
	}
	return ok, nil
}

func main() { os.Exit(run()) }

func run() int {
	cfg := config{outDir: spanDir}
	trace := flag.Int("trace", 0, "0: end-to-end metrics, tracing off; 1: traced pass and in-process layer replays, per-layer metrics")
	sets := flag.Int("sets", 0, "repeatability mode: run every selected workload this many times and compare the spread of each end-to-end metric with its bound")
	workload := flag.String("workload", "all", "workload to run, or all")
	flag.Int64Var(&cfg.seed, "seed", 1, "seed every generated input derives from")
	flag.Float64Var(&cfg.seconds, "seconds", 10, "sizes the timed phase: a fixed op count that takes about this long on the seed")
	flag.Parse()
	cfg.trace = *trace != 0
	if cfg.seconds <= 0 || flag.NArg() != 0 {
		flag.Usage()
		return 2
	}
	// nproc is 2 here and the daemon needs its share: the generator never
	// runs more than two load goroutines.
	runtime.GOMAXPROCS(2)
	// The generator shares those cores with the daemon it measures; its own
	// heap is a few hundred MB of pre-generated inputs, so a lazier collector
	// costs memory the sandbox has and returns CPU the daemon needs.
	debug.SetGCPercent(400)

	h, err := newHarness(ttkvdPath, scratchRoot)
	if err != nil {
		fmt.Fprintln(os.Stderr, "bench:", err)
		return 1
	}
	sig := make(chan os.Signal, 1)
	signal.Notify(sig, os.Interrupt, syscall.SIGTERM)
	go func() {
		<-sig
		h.cleanup()
		os.Exit(130)
	}()
	// Also reached when a panic unwinds run.
	defer h.cleanup()

	names := workloadNames
	if *workload != "all" {
		names = []string{*workload}
	}
	if *sets > 0 {
		ok, err := h.repeatability(names, cfg, *sets)
		if err != nil {
			fmt.Fprintln(os.Stderr, "bench:", err)
			return 1
		}
		if !ok {
			return 1
		}
		return 0
	}
	code := 0
	for _, name := range names {
		res, err := h.runWorkload(name, cfg)
		if err != nil {
			fmt.Fprintln(os.Stderr, "bench:", err)
			return 1
		}
		if len(names) > 1 {
			res.Workload = name
		}
		line, err := json.Marshal(res)
		if err != nil {
			fmt.Fprintln(os.Stderr, "bench:", err)
			return 1
		}
		fmt.Println(string(line))
		if !res.Correct {
			code = 1
		}
	}
	return code
}
