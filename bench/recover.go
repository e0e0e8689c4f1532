package main

import (
	"errors"
	"fmt"
	"math/rand"
	"os"
	"path/filepath"
	"time"

	"ocasta/internal/faults"
	"ocasta/internal/repair"
	"ocasta/internal/trace"
	"ocasta/internal/ttkvwire"
	"ocasta/internal/workload"
)

// faultCase is one Table III error prepared for the recover workload.
type faultCase struct {
	fault    faults.Fault
	machine  *workload.Result // pristine deployment the fault lives on
	injectAt time.Time        // 14 days before the trace ends
	end      time.Time
	fixAt    time.Time // when the confirmed fix is recorded

	// From the in-process reference search on a cloned store.
	trials, shots int
	expect        map[string]string // offending keys → value after the fix
	absent        map[string]bool   // offending keys the fix leaves deleted
	ref           refTimes
}

// refTimes are the repair layer's in-process timings for one fault.
type refTimes struct {
	inject, cluster, search, applyFix time.Duration
}

// recoverInputs generates the machines of every included fault. Faults #5–#7
// are left out: their Windows XP machine alone takes ~110 s to generate.
// Smoke mode keeps only the Linux machines, which generate in milliseconds.
//
// The machines are the fixed Table I profiles (their seeds are tuned so that
// every error lives on its trace) and the injection point is the paper's 14
// days before the trace ends; the seed only orders the faults within a pass.
// Reseeding the machines, or moving the injection point by as little as an
// hour, moves trial counts — and with them lat_p50_us, which sits on three
// faults of ~105 trials — by 5–10% between seeds, as much as the bound.
func recoverInputs(seed int64, smoke bool) ([]*faultCase, error) {
	machines := make(map[string]*workload.Result)
	var cases []*faultCase
	for _, f := range faults.Catalog() {
		if f.ID >= 5 && f.ID <= 7 || smoke && f.ID < 8 {
			continue
		}
		m := machines[f.TraceName]
		if m == nil {
			p, ok := workload.ProfileByName(f.TraceName)
			if !ok {
				return nil, fmt.Errorf("fault %d: unknown machine %q", f.ID, f.TraceName)
			}
			m = workload.Generate(p)
			machines[f.TraceName] = m
		}
		_, end, ok := m.Trace.Span()
		if !ok {
			return nil, fmt.Errorf("machine %q has an empty trace", f.TraceName)
		}
		cases = append(cases, &faultCase{
			fault: f, machine: m, end: end,
			injectAt: end.Add(-14 * 24 * time.Hour), fixAt: end.Add(time.Hour),
		})
	}
	rand.New(rand.NewSource(seed)).Shuffle(len(cases), func(i, j int) { cases[i], cases[j] = cases[j], cases[i] })
	return cases, nil
}

func (fc *faultCase) options() repair.Options {
	return repair.Options{
		Strategy: repair.StrategyDFS, Window: fc.fault.Window, Threshold: fc.fault.Threshold,
		Start: fc.injectAt.Add(-time.Hour), End: fc.end,
		Trial:  fc.fault.TrialActions,
		Oracle: repair.MarkerOracle(fc.fault.FixedMarker, fc.fault.BrokenMarker),
	}
}

// reference runs the paper's loop in-process on a clone of the pristine
// store: what the daemon must reproduce, and the repair layer's timings (one
// span each, with id as the shared identifier).
func (fc *faultCase) reference(rec *recorder, id int) error {
	store := fc.machine.Store.Clone()
	t := time.Now()
	lap := func(name string) time.Duration {
		now := time.Now()
		rec.add(name, "client.repair", id, 1, t, now)
		d := now.Sub(t)
		t = now
		return d
	}
	if err := faults.Inject(fc.fault, store, nil, fc.injectAt); err != nil {
		return err
	}
	fc.ref.inject = lap("faults.inject")
	tool := repair.NewTool(store, fc.fault.Model())
	window, threshold := fc.fault.Window, fc.fault.Threshold
	if window == 0 {
		window = trace.DefaultWindow
	}
	if threshold == 0 {
		threshold = 2
	}
	t = time.Now()
	tool.Clusters(window, threshold, false)
	fc.ref.cluster = lap("repair.cluster")
	res, err := tool.Search(fc.options())
	fc.ref.search = lap("repair.search")
	if err != nil {
		return err
	}
	if !res.Found || len(res.Offending.Keys) == 0 {
		return fmt.Errorf("fault %d: the in-process search finds no fix", fc.fault.ID)
	}
	if err := tool.ApplyFix(res, fc.fixAt); err != nil {
		return err
	}
	fc.ref.applyFix = lap("repair.applyfix")
	fc.trials, fc.shots = res.Trials, len(res.Screenshots)
	fc.expect, fc.absent = make(map[string]string), make(map[string]bool)
	for _, k := range append(fc.fault.OffendingKeys(), res.Offending.Keys...) {
		if v, ok := store.Get(k); ok {
			fc.expect[k] = v
		} else {
			fc.absent[k] = true
		}
	}
	return nil
}

// load bulk-loads the machine's trace into a fresh daemon and injects the
// fault over the wire, as faults.Inject does in-process.
func (fc *faultCase) load(c *ttkvwire.Client) error {
	ctx := opDeadline(time.Now().Add(time.Minute))
	p := c.Pipeline()
	for i := range fc.machine.Trace.Events {
		ev := &fc.machine.Trace.Events[i]
		if ev.Op == trace.OpDelete {
			p.Delete(ev.Key, ev.Time)
		} else {
			p.Set(ev.Key, ev.Value, ev.Time)
		}
	}
	if err := p.FlushContext(ctx); err != nil {
		return fmt.Errorf("loading %s: %w", fc.machine.Trace.Name, err)
	}
	return nil
}

func (fc *faultCase) inject(c *ttkvwire.Client) error {
	ctx := opDeadline(time.Now().Add(opTimeout))
	p := c.Pipeline()
	for _, bw := range fc.fault.BadWrites {
		if bw.Delete {
			p.Delete(bw.Key, fc.injectAt)
		} else {
			p.Set(bw.Key, bw.Value, fc.injectAt)
		}
	}
	for _, k := range fc.fault.CoWrites {
		v, err := c.GetAtContext(ctx, k, fc.injectAt)
		if err != nil {
			return fmt.Errorf("fault %d: co-write of %s: %w", fc.fault.ID, k, err)
		}
		if !v.Deleted {
			p.Set(k, v.Value, fc.injectAt)
		}
	}
	if err := p.FlushContext(ctx); err != nil {
		return fmt.Errorf("fault %d: injecting: %w", fc.fault.ID, err)
	}
	return nil
}

// search submits the fault's REPAIR job and polls RSTAT every 200 µs until
// the job finishes.
func (fc *faultCase) search(c *ttkvwire.Client, ctx opDeadline, step func(string)) (string, ttkvwire.RepairStatus, error) {
	opts := fc.options()
	job, err := c.RepairSubmitContext(ctx, ttkvwire.RepairRequest{
		App: fc.fault.AppName, Trial: opts.Trial,
		FixedMarker: fc.fault.FixedMarker, BrokenMarker: fc.fault.BrokenMarker,
		Strategy: opts.Strategy, Window: opts.Window, Threshold: opts.Threshold,
		Start: opts.Start, End: opts.End,
	})
	if err != nil {
		return "", ttkvwire.RepairStatus{}, fmt.Errorf("REPAIR: %w", err)
	}
	step("submit")
	deadline, _ := ctx.Deadline()
	for {
		st, err := c.RepairStatusContext(ctx, job)
		if err != nil {
			return job, st, fmt.Errorf("RSTAT: %w", err)
		}
		if st.Finished() {
			step("wait")
			return job, st, nil
		}
		if time.Now().After(deadline) {
			return job, st, fmt.Errorf("search not finished within %v", opTimeout)
		}
		time.Sleep(200 * time.Microsecond)
	}
}

// repairOp is the timed operation: search, apply the fix, read the offending
// keys back. It returns what differs from the reference.
func (fc *faultCase) repairOp(c *ttkvwire.Client, id int, rec *recorder) (time.Duration, []string) {
	begin := time.Now()
	ctx := opDeadline(begin.Add(opTimeout))
	mark := begin
	step := func(name string) {
		now := time.Now()
		rec.add("client.repair."+name, "client.repair", id, 1, mark, now)
		mark = now
	}
	fail := func(format string, args ...any) (time.Duration, []string) {
		return time.Since(begin), []string{fmt.Sprintf("fault %d: ", fc.fault.ID) + fmt.Sprintf(format, args...)}
	}
	job, st, err := fc.search(c, ctx, step)
	if err != nil {
		return fail("%v", err)
	}
	if st.State != ttkvwire.JobDone || !st.Found {
		return fail("search ended %s found=%v: %s", st.State, st.Found, st.Err)
	}
	if _, err := c.RepairFixContext(ctx, job, fc.fixAt); err != nil {
		return fail("RFIX: %v", err)
	}
	step("fix")
	var bad []string
	for k, want := range fc.expect {
		if got, err := c.GetContext(ctx, k); err != nil || got != want {
			bad = append(bad, fmt.Sprintf("fault %d: %s = %q, %v after the fix; the in-process fix gives %q", fc.fault.ID, k, got, err, want))
		}
	}
	for k := range fc.absent {
		if got, err := c.GetContext(ctx, k); !errors.Is(err, ttkvwire.ErrNotFound) {
			bad = append(bad, fmt.Sprintf("fault %d: %s = %q, %v after the fix; the in-process fix leaves it deleted", fc.fault.ID, k, got, err))
		}
	}
	end := time.Now()
	step("check")
	rec.add("client.repair", "", id, 1, begin, end)
	if st.TrialsDone != fc.trials || len(st.Screenshots) != fc.shots {
		bad = append(bad, fmt.Sprintf("fault %d: %d trials, %d screenshots; the in-process search takes %d, %d",
			fc.fault.ID, st.TrialsDone, len(st.Screenshots), fc.trials, fc.shots))
	}
	return end.Sub(begin), bad
}

// recoverSetup is one set-up of the recover workload: the machines generated
// and the largest one loaded into a daemon that is then restarted (the
// restart probe, on a log of fixed size).
type recoverSetup struct {
	cases               []*faultCase
	setup, generate     time.Duration
	restart, startup    time.Duration
	logBytesPerUserByte float64
}

func (h *harness) setupRecover(cfg config, out *outcome) (*recoverSetup, error) {
	began := time.Now()
	s := &recoverSetup{}
	var err error
	if s.cases, err = recoverInputs(cfg.seed, cfg.smoke); err != nil {
		return nil, err
	}
	s.generate = time.Since(began)
	fc := s.cases[0]
	for _, c := range s.cases {
		if len(c.machine.Trace.Events) > len(fc.machine.Trace.Events) {
			fc = c
		}
	}
	dir, err := h.newDir()
	if err != nil {
		return nil, err
	}
	seg := filepath.Join(dir, "seg")
	d, err := h.start("-aof-dir", seg)
	if err != nil {
		return nil, err
	}
	s.startup = d.startup
	c, err := d.dial()
	if err != nil {
		return nil, err
	}
	err = fc.load(c)
	c.Close()
	if err != nil {
		return nil, err
	}
	t := time.Now()
	if err := d.stop(); err != nil {
		return nil, err
	}
	bytes, _, err := dirBytes(seg)
	if err != nil {
		return nil, err
	}
	if d, err = h.start("-aof-dir", seg); err != nil {
		return nil, err
	}
	defer d.kill()
	if c, err = d.dial(); err != nil {
		return nil, err
	}
	defer c.Close()
	s.restart = time.Since(t)

	// Durability: the restarted daemon holds exactly the loaded trace.
	var userBytes int64
	for i := range fc.machine.Trace.Events {
		ev := &fc.machine.Trace.Events[i]
		userBytes += int64(len(ev.Key) + len(ev.Value))
	}
	want := fc.machine.Store.Stats()
	st, err := c.StatsContext(opDeadline(time.Now().Add(opTimeout)))
	if err != nil {
		return nil, err
	}
	var bad []string
	if st.Keys != want.Keys || st.Versions != want.Versions {
		bad = append(bad, fmt.Sprintf("after restart STATS keys/versions %d/%d, the generated store has %d/%d", st.Keys, st.Versions, want.Keys, want.Versions))
	}
	out.check(1, bad)
	s.logBytesPerUserByte = float64(bytes) / float64(userBytes)
	s.setup = time.Since(began)
	return s, nil
}

// recoverResult is what recoverPasses measured.
type recoverResult struct {
	// samples runs on a clock that only ticks inside repair ops (the bulk
	// loads between them are not part of the timed work).
	samples    []sample
	byFault    [][]float64 // latencies in µs, per fault
	loadEvents int
	loadTime   time.Duration
	cpuSec     float64
	peakRSSMB  float64
}

// recoverPassesPerSecond sizes the recover workload as a count, like the KV
// workloads: 12 passes over the faults for the default 10 s, each about 1.5 s
// on the seed at 2 cores, of which 0.2 s are repairs and the rest loads. With
// 8 passes the per-fault medians, and so lat_p50_us, spread twice as wide.
const recoverPassesPerSecond = 1.2

func recoverPassCount(seconds float64) int {
	return max(1, int(seconds*recoverPassesPerSecond+0.5))
}

// recoverPasses runs passes whole passes over the faults (one fresh daemon,
// bulk load, injection and timed repair per fault).
func (h *harness) recoverPasses(cases []*faultCase, passes int, rec *recorder, out *outcome) (*recoverResult, error) {
	res := &recoverResult{byFault: make([][]float64, len(cases))}
	var busy int64
	for pass := 0; pass < passes; pass++ {
		for i, fc := range cases {
			dir, err := h.newDir()
			if err != nil {
				return nil, err
			}
			d, err := h.start("-aof-dir", filepath.Join(dir, "seg"))
			if err != nil {
				return nil, err
			}
			c, err := d.dial()
			if err != nil {
				return nil, err
			}
			t := time.Now()
			if err := fc.load(c); err != nil {
				return nil, err
			}
			res.loadTime += time.Since(t)
			res.loadEvents += len(fc.machine.Trace.Events)
			if err := fc.inject(c); err != nil {
				return nil, err
			}
			// Warm-up: one untimed search (it only reads) takes the fresh
			// process's first-use costs out of the timed op.
			if _, _, err := fc.search(c, opDeadline(time.Now().Add(opTimeout)), func(string) {}); err != nil {
				return nil, fmt.Errorf("fault %d: warm-up: %w", fc.fault.ID, err)
			}
			cpu0, _ := d.procUsage()
			lat, bad := fc.repairOp(c, pass*len(cases)+i, rec)
			cpu1, rss := d.procUsage()
			res.cpuSec += cpu1 - cpu0
			res.peakRSSMB = max(res.peakRSSMB, rss)
			out.check(1, bad)
			busy += lat.Nanoseconds()
			res.samples = append(res.samples, sample{end: busy, lat: lat.Nanoseconds()})
			res.byFault[i] = append(res.byFault[i], us(lat))
			c.Close()
			if err := d.stop(); err != nil {
				return nil, err
			}
		}
	}
	return res, nil
}

func (h *harness) runRecover(cfg config) (*outcome, error) {
	out := newOutcome()
	m := out.metrics
	var s *recoverSetup
	var setups, restarts []float64
	n := cfg.setups()
	if cfg.trace {
		n = 1
	}
	for i := 0; i < n; i++ {
		var err error
		if s, err = h.setupRecover(cfg, out); err != nil {
			return nil, err
		}
		setups = append(setups, s.setup.Seconds())
		restarts = append(restarts, s.restart.Seconds())
	}
	var rec *recorder // nil: tracing off
	if cfg.trace {
		rec = newRecorder(time.Now(), 1024)
	}
	for i, fc := range s.cases {
		if err := fc.reference(rec, i); err != nil {
			return nil, err
		}
	}
	if !cfg.trace {
		began := time.Now()
		res, err := h.recoverPasses(s.cases, recoverPassCount(cfg.seconds), nil, out)
		if err != nil {
			return nil, err
		}
		fmt.Fprintf(os.Stderr, "%-20s timed phase: %d ops in %.2f s (loads included)\n", "recover", len(res.samples), time.Since(began).Seconds())
		// Faults differ 15-fold in cost and a single repair varies by ±20%,
		// so each fault is first reduced to its median over the passes; the
		// percentiles are over the faults.
		var perFault []float64
		sum := 0.0
		for i, lats := range res.byFault {
			perFault = append(perFault, median(lats))
			sum += median(lats)
			fmt.Fprintf(os.Stderr, "%-20s fault %2d: %3d trials, repair median %9.1f us over %d passes (min %.1f, max %.1f)\n",
				"recover", s.cases[i].fault.ID, s.cases[i].trials, median(lats), len(lats), lats[0], lats[len(lats)-1])
		}
		m["ops_per_s"] = float64(len(perFault)) / (sum / 1e6)
		m["lat_p50_us"], m["lat_p90_us"] = quantile(perFault, 0.5), quantile(perFault, 0.9)
		m["setup_s"] = median(setups)
		m["restart_s"] = median(restarts)
		m["log_bytes_per_user_byte"] = s.logBytesPerUserByte
		return out, nil
	}

	passes := recoverPassCount(cfg.seconds * 0.4)
	plain, err := h.recoverPasses(s.cases, passes, nil, out)
	if err != nil {
		return nil, err
	}
	traced, err := h.recoverPasses(s.cases, passes, rec, out)
	if err != nil {
		return nil, err
	}
	lat := summarise(traced.samples)
	lat.tail(m)
	m["trace.overhead_frac"] = 1 - opsPerSec(traced.samples)/opsPerSec(plain.samples)
	m["workload.generate_s"] = s.generate.Seconds()
	m["ttkvd.start_ms"] = ms(s.startup)
	m["ttkvd.cpu_s_per_mop"] = traced.cpuSec / (float64(len(traced.samples)) / 1e6)
	m["ttkvd.peak_rss_mb"] = traced.peakRSSMB
	m["recover.load_events_per_s"] = float64(traced.loadEvents) / traced.loadTime.Seconds()

	// repair layer: means over the faults' reference runs.
	var inProcess []float64
	var trials, shots, inject, cluster, search, applyFix float64
	for _, fc := range s.cases {
		inProcess = append(inProcess, us(fc.ref.search+fc.ref.applyFix))
		trials += float64(fc.trials)
		shots += float64(fc.shots)
		inject += us(fc.ref.inject)
		cluster += ms(fc.ref.cluster)
		search += ms(fc.ref.search)
		applyFix += us(fc.ref.applyFix)
	}
	k := float64(len(s.cases))
	m["trials_mean"], m["screenshots_mean"] = trials/k, shots/k
	m["faults.inject_us"], m["repair.cluster_ms"] = inject/k, cluster/k
	m["repair.search_ms"], m["repair.applyfix_us"] = search/k, applyFix/k
	inProcessP50 := median(inProcess)
	m["repair.wire_overhead_ms"] = (lat.p50 - inProcessP50) / 1e3
	m["unattributed_frac"] = 1 - inProcessP50/lat.p50
	return out, rec.write(cfg.outDir, "recover")
}
