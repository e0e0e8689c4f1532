package main

import (
	"errors"
	"fmt"
	"os"
	"path/filepath"
	"sort"
	"strings"
	"sync"
	"sync/atomic"
	"time"

	"ocasta/internal/core"
	"ocasta/internal/ttkv"
	"ocasta/internal/ttkvwire"
	"ocasta/internal/workload"
)

// kvWorkload is one of the three workloads that drive plain KV commands.
type kvWorkload struct {
	name string
	// unitsPerSecond sizes the timed phase as a count: -seconds ×
	// unitsPerSecond units (plus 5% warm-up), which takes about -seconds on
	// the seed at 2 cores. A count and not the clock, so that a faster build
	// does not write more versions, grow its replies and log, and measure
	// itself on a deeper store than the build it is compared with.
	unitsPerSecond float64
	inputs         func(seed int64, units int, smoke bool) *kvInputs
	// semiSync restarts the primary with -semi-sync-acks 1 and attaches one
	// replica before the timed phase.
	semiSync bool
	// layerUnits is how many units of the stream the per-layer replays
	// cover (fewer if the stream is shorter, as in the smoke test).
	layerUnits int
}

// The smoke streams keep the op mix and shrink the key space and preload.
var kvWorkloads = []*kvWorkload{
	{
		name:           "logger_set",
		unitsPerSecond: 5500, // episodes of 4 or 8 SETs: ≈ 35,000 SET/s
		inputs: func(seed int64, units int, smoke bool) *kvInputs {
			if smoke {
				return writeInputs(workload.StreamSpec{Apps: 2, Components: 20, KeysPerComponent: 8, Seed: seed}, 200, units, false)
			}
			return writeInputs(workload.StreamSpec{Apps: 8, Components: 400, KeysPerComponent: 8, Seed: seed}, 7500, units, false)
		},
		layerUnits: 9000, // ≈ 60,000 SETs
	},
	{
		name:           "flush_mset_semisync",
		unitsPerSecond: 42, // two connections, one 50 ms group-commit flush per MSET
		inputs: func(seed int64, units int, smoke bool) *kvInputs {
			if smoke {
				return writeInputs(workload.StreamSpec{Apps: 2, Components: 20, KeysPerComponent: 8, Seed: seed + 1}, 200, units, true)
			}
			return writeInputs(workload.StreamSpec{Apps: 8, Components: 400, KeysPerComponent: 8, Seed: seed + 1}, 7500, units, true)
		},
		semiSync:   true,
		layerUnits: 20000,
	},
	{
		name:           "history_read",
		unitsPerSecond: 20000,
		inputs: func(seed int64, units int, smoke bool) *kvInputs {
			if smoke {
				return readInputs(workload.StreamSpec{Apps: 2, Components: 20, KeysPerComponent: 8, Episodes: 600, Seed: seed + 2}, units)
			}
			return readInputs(workload.StreamSpec{Apps: 8, Components: 400, KeysPerComponent: 8, Episodes: 60000, Seed: seed + 2}, units)
		},
		layerUnits: 60000,
	},
}

// timedUnits is the size of a timed phase meant to last seconds.
func (w *kvWorkload) timedUnits(seconds float64) int {
	return max(20, int(seconds*w.unitsPerSecond))
}

// warmUnits is the untimed warm-up sent before a timed phase of units: 5%.
func warmUnits(units int) int { return (units + 19) / 20 }

// outcome is what one workload run reports.
type outcome struct {
	metrics   map[string]float64
	attempted int
	failed    int
	problems  []string // what failed, for the human reading stderr
}

func newOutcome() *outcome { return &outcome{metrics: make(map[string]float64)} }

// check counts n output checks, of which the listed ones failed.
func (o *outcome) check(n int, bad []string) {
	o.attempted += n
	o.failed += len(bad)
	o.problems = append(o.problems, bad...)
}

// kvEnv is a set-up KV workload: inputs generated, primary preloaded,
// restarted (the restart probe) and verified, replica attached.
type kvEnv struct {
	in       *kvInputs
	primary  *daemon
	replica  *daemon
	segDir   string
	model    *model
	setup    time.Duration // everything below, start to ready
	generate time.Duration
	restart  time.Duration // SIGTERM → re-exec on the same log → first PING
	startup  time.Duration // first exec → serving line
}

// setupKV brings one workload to the start of its timed phase, with a stream
// of units units generated. acks is the primary's -semi-sync-acks after the
// restart (0 leaves replication async).
func (h *harness) setupKV(w *kvWorkload, cfg config, units, acks int, out *outcome) (*kvEnv, error) {
	began := time.Now()
	dir, err := h.newDir()
	if err != nil {
		return nil, err
	}
	e := &kvEnv{segDir: filepath.Join(dir, "seg"), model: newModel()}
	d, err := h.start("-aof-dir", e.segDir)
	if err != nil {
		return nil, err
	}
	e.startup = d.startup
	c, err := d.dial()
	if err != nil {
		return nil, err
	}
	t := time.Now()
	e.in = w.inputs(cfg.seed, units, cfg.smoke)
	e.generate = time.Since(t)
	if err := c.MSetContext(opDeadline(time.Now().Add(time.Minute)), e.in.preload); err != nil {
		return nil, fmt.Errorf("preload: %w", err)
	}
	e.model.add(e.in.preload)
	c.Close()

	// Restart probe: a fixed-size log (the preload), so restart_s does not
	// grow when a faster build writes more during the timed phase.
	t = time.Now()
	if err := d.stop(); err != nil {
		return nil, err
	}
	args := []string{"-aof-dir", e.segDir}
	if acks > 0 {
		args = append(args, "-semi-sync-acks", fmt.Sprint(acks))
	}
	if e.primary, err = h.start(args...); err != nil {
		return nil, err
	}
	if c, err = e.primary.dial(); err != nil {
		return nil, err
	}
	defer c.Close()
	e.restart = time.Since(t)
	// Durability: every acknowledged preload write is back after the restart.
	out.check(e.model.verify(c, cfg.seed, 200))

	if w.semiSync {
		if e.replica, err = h.start("-replica-of", e.primary.addr); err != nil {
			return nil, err
		}
		if err := waitCaughtUp(c); err != nil {
			return nil, err
		}
	}
	e.setup = time.Since(began)
	return e, nil
}

// waitCaughtUp blocks until the primary reports one streaming replica that
// has acknowledged everything appended.
func waitCaughtUp(c *ttkvwire.Client) error {
	deadline := time.Now().Add(30 * time.Second)
	for time.Now().Before(deadline) {
		st, err := c.ReplStatusContext(opDeadline(time.Now().Add(opTimeout)))
		if err != nil {
			return err
		}
		if len(st.Replicas) == 1 && st.Replicas[0].State == "streaming" && st.Replicas[0].AckedSeq >= st.AppendedSeq {
			return nil
		}
		time.Sleep(time.Millisecond)
	}
	return errors.New("replica did not catch up within 30s")
}

// close stops the environment's daemons without a clean-shutdown check.
func (e *kvEnv) close() {
	if e.replica != nil {
		e.replica.kill()
	}
	e.primary.kill()
}

// pass is one timed phase.
type pass struct {
	samples []sample        // ops of the timed phase, by completion
	units   int             // units sent, warm-up included
	issued  int             // ops issued, warm-up included
	failed  map[[2]int]bool // (unit, op within the unit) of failed ops
	errs    []string
	retries int       // RETRY replies (semi-sync ack timeouts)
	rec     *recorder // nil unless traced
	cpuSec  float64   // primary CPU over warm-up + timed phase
}

// measure runs the closed loop: two connections, each claiming the next unit
// of the stream, issuing its ops in order and waiting for every reply. The
// first warmUnits(units) units are the warm-up; the clock starts when the
// unit after them is claimed and stops when the last of units more is done.
func (e *kvEnv) measure(units int, traced bool) (*pass, error) {
	warm := warmUnits(units)
	total := warm + units
	if total > e.in.units() {
		return nil, fmt.Errorf("timed phase of %d+%d units, the generated stream has %d", warm, units, e.in.units())
	}
	var clients [2]*ttkvwire.Client
	defer func() {
		for _, c := range clients {
			if c != nil {
				c.Close()
			}
		}
	}()
	for w := range clients {
		c, err := e.primary.dial()
		if err != nil {
			return nil, err
		}
		clients[w] = c
	}
	cpu0, _ := e.primary.procUsage()
	start := time.Now()

	p := &pass{units: total, failed: make(map[[2]int]bool)}
	var (
		next atomic.Int64
		t0   time.Time  // set by the worker that claims the first timed unit
		mu   sync.Mutex // guards p.failed, p.errs, p.retries
		wg   sync.WaitGroup
		lats [2][]sample // end on start's clock until t0 is known
		recs [2]*recorder
		done [2]int
	)
	for w := range clients {
		lats[w] = make([]sample, 0, len(e.in.ops))
		if traced {
			recs[w] = newRecorder(start, len(e.in.ops))
		}
		wg.Add(1)
		go func(w int) {
			defer wg.Done()
			for {
				n := int(next.Add(1)) - 1
				if n >= total {
					return
				}
				if n == warm {
					t0 = time.Now()
				}
				ops, firstID := e.in.unit(n)
				for j := range ops {
					begin := time.Now()
					err := ops[j].exec(clients[w], opDeadline(begin.Add(opTimeout)))
					end := time.Now()
					done[w]++
					if n >= warm {
						lats[w] = append(lats[w], sample{end: end.Sub(start).Nanoseconds(), lat: end.Sub(begin).Nanoseconds()})
						recs[w].add("client."+kindNames[ops[j].kind], "", firstID+j, 1, begin, end)
					}
					if err == nil {
						continue
					}
					mu.Lock()
					p.failed[[2]int{n, j}] = true
					if errors.Is(err, ttkvwire.ErrRetryable) {
						p.retries++
					}
					if len(p.errs) < 5 {
						p.errs = append(p.errs, fmt.Sprintf("%s (op %d) on connection %d: %v", kindNames[ops[j].kind], firstID+j, w, err))
					}
					mu.Unlock()
					// A transport error or deadline poisons the connection.
					clients[w].Close()
					c, err := e.primary.dial()
					if err != nil {
						mu.Lock()
						p.errs = append(p.errs, fmt.Sprintf("connection %d: redial: %v", w, err))
						mu.Unlock()
						return
					}
					clients[w] = c
				}
			}
		}(w)
	}
	wg.Wait()
	cpu1, _ := e.primary.procUsage()
	p.cpuSec = cpu1 - cpu0
	if traced {
		p.rec = newRecorder(start, 0)
	}
	for w := range clients {
		p.samples = append(p.samples, lats[w]...)
		p.issued += done[w]
		if traced {
			p.rec.spans = append(p.rec.spans, recs[w].spans...)
		}
	}
	if len(p.samples) == 0 {
		return nil, fmt.Errorf("no operation completed in the timed phase: %s", strings.Join(p.errs, "; "))
	}
	for i := range p.samples {
		p.samples[i].end -= t0.Sub(start).Nanoseconds()
	}
	sort.Slice(p.samples, func(i, j int) bool { return p.samples[i].end < p.samples[j].end })
	return p, nil
}

// finished is what the verifier and the clean shutdown report after a pass.
type finished struct {
	logBytesPerUserByte float64
	replicaLag          float64
	replicaCPU          float64
	peakRSSMB           float64
	clusters            clusterStats
}

// finish folds the pass into the model of acked writes, verifies the
// daemon's outputs against it, shuts the daemons down cleanly and measures
// the log. scoreClusters additionally closes the stream with the sentinel
// episode and scores CLUSTERS (about two recluster intervals of waiting).
func (e *kvEnv) finish(cfg config, p *pass, scoreClusters bool, out *outcome) (*finished, error) {
	f := &finished{}
	var acked []ttkv.Mutation
	for n := 0; n < p.units; n++ {
		ops, _ := e.in.unit(n)
		for j := range ops {
			if !p.failed[[2]int{n, j}] {
				acked = ops[j].writes(acked)
			}
		}
	}
	out.attempted += p.issued
	out.failed += len(p.failed)
	out.problems = append(out.problems, p.errs...)

	c, err := e.primary.dial()
	if err != nil {
		return nil, err
	}
	defer c.Close()
	if e.replica != nil {
		rc, err := e.replica.dial()
		if err != nil {
			return nil, err
		}
		st, err := rc.ReplStatusContext(opDeadline(time.Now().Add(opTimeout)))
		rc.Close()
		if err != nil {
			return nil, err
		}
		f.replicaLag = float64(st.LagRecords)
		f.replicaCPU, _ = e.replica.procUsage()
	}

	scoreClusters = scoreClusters && e.in.sentinel != nil
	if scoreClusters {
		if err := c.MSetContext(opDeadline(time.Now().Add(opTimeout)), e.in.sentinel); err != nil {
			return nil, fmt.Errorf("sentinel episode: %w", err)
		}
		acked = append(acked, e.in.sentinel...)
	}
	e.model.add(acked)
	out.check(e.model.verify(c, cfg.seed, 2000))
	if scoreClusters {
		got, err := settledClusters(c)
		if err != nil {
			return nil, err
		}
		f.clusters = scoreAgainstReference(e.in, acked, got, p.rec)
	}

	_, f.peakRSSMB = e.primary.procUsage()
	if e.replica != nil {
		if err := e.replica.stop(); err != nil {
			return nil, err
		}
	}
	if err := e.primary.stop(); err != nil {
		return nil, err
	}
	bytes, _, err := dirBytes(e.segDir)
	if err != nil {
		return nil, err
	}
	f.logBytesPerUserByte = float64(bytes) / float64(e.model.userBytes)
	return f, nil
}

// settledClusters waits for two more recluster publishes (the second one
// started after the sentinel was applied) and returns CLUSTERS 2.
func settledClusters(c *ttkvwire.Client) ([]core.Cluster, error) {
	first, err := c.ClustersContext(opDeadline(time.Now().Add(opTimeout)), 2)
	if err != nil {
		return nil, fmt.Errorf("CLUSTERS: %w", err)
	}
	deadline := time.Now().Add(15 * time.Second)
	for time.Now().Before(deadline) {
		time.Sleep(20 * time.Millisecond)
		snap, err := c.ClustersContext(opDeadline(time.Now().Add(opTimeout)), 2)
		if err != nil {
			return nil, fmt.Errorf("CLUSTERS: %w", err)
		}
		if snap.Version >= first.Version+2 {
			return snap.Clusters, nil
		}
	}
	return nil, errors.New("CLUSTERS version did not advance twice within 15s")
}

// clusterStats scores the daemon's live clustering and carries the engine
// layer's numbers, both taken from one in-process reference engine.
type clusterStats struct {
	// exactFrac is the fraction of generated components CLUSTERS 2 returned
	// as exactly one cluster. The generator makes every third episode write
	// half its component, so at the default correlation threshold of 2 most
	// components legitimately come back as two halves.
	exactFrac float64
	// refMatchFrac is the fraction of the reference engine's multi-key
	// clusters the daemon returned unchanged: 1 when the daemon's concurrent
	// observer path loses nothing.
	refMatchFrac float64
	observeNs    float64
	reclusterMs  float64
	keys, groups float64
}

// scoreAgainstReference feeds the acked writes to an in-process engine
// configured like the daemon's (timing the observer calls and the recluster)
// and scores the daemon's CLUSTERS 2 reply against it and against the
// generated components.
func scoreAgainstReference(in *kvInputs, acked []ttkv.Mutation, got []core.Cluster, rec *recorder) clusterStats {
	eng := core.NewEngine(core.EngineConfig{Window: time.Second, Horizon: time.Hour})
	for i := range in.preload {
		eng.ObserveWrite(in.preload[i].Key, in.preload[i].Time, false)
	}
	var st clusterStats
	st.observeNs = rec.timeChunks("engine.observe", "", len(acked), func(i int) {
		eng.ObserveWrite(acked[i].Key, acked[i].Time, false)
	})
	t := time.Now()
	ref := core.MultiKey(eng.Recluster())
	st.reclusterMs = ms(time.Since(t))
	st.keys, st.groups = float64(eng.NumKeys()), float64(eng.NumGroups())

	have := make(map[string]bool, len(got))
	for _, cl := range got {
		keys := append([]string(nil), cl.Keys...)
		sort.Strings(keys)
		have[strings.Join(keys, "\x00")] = true
	}
	frac := func(n, of int) float64 { return float64(n) / float64(max(of, 1)) }
	matched := 0
	for _, cl := range ref {
		if have[strings.Join(cl.Keys, "\x00")] {
			matched++
		}
	}
	st.refMatchFrac = frac(matched, len(ref))
	exact := 0
	for _, comp := range in.components {
		if have[strings.Join(comp, "\x00")] {
			exact++
		}
	}
	st.exactFrac = frac(exact, len(in.components))
	return st
}

// runKV runs one KV workload: with tracing off, the set-up is repeated (its
// median is setup_s) and one full-length pass gives the end-to-end metrics;
// with tracing on, an untraced and a traced shorter pass plus the in-process
// layer replays give the per-layer metrics.
func (h *harness) runKV(w *kvWorkload, cfg config) (*outcome, error) {
	out := newOutcome()
	m := out.metrics
	acks := 0
	if w.semiSync {
		acks = 1
	}
	units := w.timedUnits(cfg.seconds)
	if !cfg.trace {
		var env *kvEnv
		var setups, restarts []float64
		for i := 0; i < cfg.setups(); i++ {
			if env != nil {
				env.close()
			}
			var err error
			if env, err = h.setupKV(w, cfg, warmUnits(units)+units, acks, out); err != nil {
				return nil, err
			}
			setups = append(setups, env.setup.Seconds())
			restarts = append(restarts, env.restart.Seconds())
		}
		p, err := env.measure(units, false)
		if err != nil {
			return nil, err
		}
		f, err := env.finish(cfg, p, false, out)
		if err != nil {
			return nil, err
		}
		fmt.Fprintf(os.Stderr, "%-20s timed phase: %d ops in %.2f s\n", w.name, len(p.samples), float64(p.samples[len(p.samples)-1].end)/1e9)
		lat := summarise(p.samples)
		m["ops_per_s"], m["lat_p50_us"], m["lat_p90_us"] = opsPerSec(p.samples), lat.p50, lat.p90
		m["setup_s"] = median(setups)
		m["restart_s"] = median(restarts)
		m["log_bytes_per_user_byte"] = f.logBytesPerUserByte
		return out, nil
	}

	// Traced run. Each pass gets its own fresh set-up so that store depth
	// and log size at the start of the timed phase are the same. The stream
	// is generated long enough for the layer replays too.
	units = units * 2 / 5
	runPass := func(acks int, traced bool) (*kvEnv, *pass, *finished, error) {
		generate := warmUnits(units) + units
		if !cfg.smoke {
			generate = max(generate, w.layerUnits)
		}
		env, err := h.setupKV(w, cfg, generate, acks, out)
		if err != nil {
			return nil, nil, nil, err
		}
		p, err := env.measure(units, traced)
		if err != nil {
			return nil, nil, nil, err
		}
		f, err := env.finish(cfg, p, traced, out)
		return env, p, f, err
	}
	_, plain, _, err := runPass(acks, false)
	if err != nil {
		return nil, err
	}
	env, traced, f, err := runPass(acks, true)
	if err != nil {
		return nil, err
	}
	lat := summarise(traced.samples)
	lat.tail(m)
	m["trace.overhead_frac"] = 1 - opsPerSec(traced.samples)/opsPerSec(plain.samples)
	m["workload.generate_s"] = env.generate.Seconds()
	m["ttkvd.start_ms"] = ms(env.startup)
	m["ttkvd.cpu_s_per_mop"] = traced.cpuSec / (float64(traced.issued) / 1e6)
	m["ttkvd.peak_rss_mb"] = f.peakRSSMB
	m["cluster_exact_frac"] = f.clusters.exactFrac
	m["cluster_ref_match_frac"] = f.clusters.refMatchFrac
	m["engine.observe_ns_per_op"] = f.clusters.observeNs
	m["engine.recluster_ms"] = f.clusters.reclusterMs
	m["engine.keys"] = f.clusters.keys
	m["engine.groups"] = f.clusters.groups
	if w.semiSync {
		_, async, _, err := runPass(0, false)
		if err != nil {
			return nil, err
		}
		m["semisync.ack_wait_us_p50"] = lat.p50 - summarise(async.samples).p50
		m["semisync.retries"] = float64(traced.retries)
		m["replica.cpu_s"] = f.replicaCPU
		m["replica.lag_records_at_end"] = f.replicaLag
	}

	rec := traced.rec
	mx, err := h.replayLayers(w, env.in, rec, m)
	if err != nil {
		return nil, err
	}
	// Self time on the blocking path of one op, from the layer replays: the
	// in-process round trip (wake-up floor + codec + dispatch + store) plus,
	// for the share of ops that write, log enqueue, sequence minting and the
	// observer, plus the semi-sync ack wait.
	attributed := m["server.rtt_ns_per_op"] +
		mx.writeFrac*(m["groupcommit.enqueue_ns_per_op"]+m["replication.mint_ns_per_op"]+
			mx.eventsPerWrite*m["engine.observe_ns_per_op"]) +
		1e3*m["semisync.ack_wait_us_p50"]
	m["unattributed_frac"] = 1 - attributed/(lat.p50*1e3)
	return out, rec.write(cfg.outDir, w.name)
}
