package ttkvwire

import (
	"fmt"
	"sort"
	"strconv"
	"strings"
	"sync"
	"sync/atomic"
	"time"

	"ocasta/internal/apps"
	"ocasta/internal/repair"
	"ocasta/internal/ttkv"
)

// RepairConfig bounds the server-side repair job manager.
type RepairConfig struct {
	// Workers is the per-job trial worker count (<= 1 searches
	// sequentially). Trials are dominated by sandbox latency, so the
	// default of 8 is safe even on small machines.
	Workers int
	// MaxActive bounds how many repair searches run concurrently; further
	// accepted jobs queue. Default 2.
	MaxActive int
	// MaxJobs bounds how many jobs the manager retains, running and
	// finished together. Submissions beyond it evict the oldest finished
	// job, or are rejected if every retained job is still live. Default 64.
	MaxJobs int
}

func (c RepairConfig) normalized() RepairConfig {
	if c.Workers < 1 {
		c.Workers = 8
	}
	if c.MaxActive < 1 {
		c.MaxActive = 2
	}
	if c.MaxJobs < 1 {
		c.MaxJobs = 64
	}
	return c
}

// Job states reported by RSTAT.
const (
	JobQueued  = "queued"
	JobRunning = "running"
	JobDone    = "done"
	JobFailed  = "failed"
)

// repairJob is one asynchronous repair search.
type repairJob struct {
	id  string
	seq int64 // submission order, for eviction

	trialsDone  atomic.Int64
	totalTrials atomic.Int64

	mu       sync.Mutex
	state    string
	errMsg   string
	res      *repair.Result
	applying bool // an RFIX revert is in flight outside the lock
	applied  bool
}

// jobManager runs bounded asynchronous repair searches over one store.
type jobManager struct {
	cfg   RepairConfig
	store *ttkv.Store
	sem   chan struct{} // MaxActive tokens
	quit  chan struct{} // closed by Server.Close; cancels searches

	mu     sync.Mutex
	jobs   map[string]*repairJob
	nextID int64
	closed bool // set under mu before wg.Wait; submit rejects after

	wg sync.WaitGroup
}

func newJobManager(cfg RepairConfig, store *ttkv.Store) *jobManager {
	cfg = cfg.normalized()
	m := &jobManager{
		cfg:   cfg,
		store: store,
		sem:   make(chan struct{}, cfg.MaxActive),
		quit:  make(chan struct{}),
		jobs:  make(map[string]*repairJob),
	}
	return m
}

// close cancels every live search and waits for job goroutines to drain.
// The closed flag flips under mu before Wait, and submit both checks it
// and calls wg.Add under the same mutex, so Add can never race Wait (the
// sync.WaitGroup misuse rule) and no search starts after close returns.
func (m *jobManager) close() {
	m.mu.Lock()
	already := m.closed
	m.closed = true
	m.mu.Unlock()
	if !already {
		close(m.quit)
	}
	m.wg.Wait()
}

// submit registers a job and starts its search goroutine. tool and opts
// are fully prepared by the caller (the REPAIR command handler).
func (m *jobManager) submit(tool *repair.Tool, opts repair.Options) (*repairJob, error) {
	m.mu.Lock()
	defer m.mu.Unlock()
	if m.closed {
		return nil, fmt.Errorf("server shutting down")
	}
	if len(m.jobs) >= m.cfg.MaxJobs && !m.evictOldestFinishedLocked() {
		return nil, fmt.Errorf("job limit reached (%d live jobs)", len(m.jobs))
	}
	m.nextID++
	job := &repairJob{id: "r" + strconv.FormatInt(m.nextID, 10), seq: m.nextID, state: JobQueued}
	m.jobs[job.id] = job

	opts.Cancel = m.quit
	opts.Workers = m.cfg.Workers
	opts.OnProgress = func(done, total int) {
		job.trialsDone.Store(int64(done))
		job.totalTrials.Store(int64(total))
	}

	m.wg.Add(1)
	go func() {
		defer m.wg.Done()
		select {
		case m.sem <- struct{}{}:
			defer func() { <-m.sem }()
		case <-m.quit:
			job.fail("server shutting down")
			return
		}
		job.mu.Lock()
		job.state = JobRunning
		job.mu.Unlock()
		res, err := tool.Search(opts)
		if err != nil {
			job.fail(err.Error())
			return
		}
		job.mu.Lock()
		job.state = JobDone
		job.res = res
		job.mu.Unlock()
		job.trialsDone.Store(int64(res.Trials))
		job.totalTrials.Store(int64(res.TotalTrials))
	}()
	return job, nil
}

// evictOldestFinishedLocked drops the oldest done/failed job to make room.
func (m *jobManager) evictOldestFinishedLocked() bool {
	var victim *repairJob
	for _, j := range m.jobs {
		j.mu.Lock()
		finished := j.state == JobDone || j.state == JobFailed
		j.mu.Unlock()
		if finished && (victim == nil || j.seq < victim.seq) {
			victim = j
		}
	}
	if victim == nil {
		return false
	}
	delete(m.jobs, victim.id)
	return true
}

func (m *jobManager) get(id string) (*repairJob, bool) {
	m.mu.Lock()
	defer m.mu.Unlock()
	j, ok := m.jobs[id]
	return j, ok
}

func (j *repairJob) fail(msg string) {
	j.mu.Lock()
	j.state = JobFailed
	j.errMsg = msg
	j.mu.Unlock()
}

// --- wire command handlers ---

// repairManager lazily builds the server's job manager.
func (s *Server) repairManager() *jobManager {
	s.mu.Lock()
	defer s.mu.Unlock()
	if s.repairs == nil {
		s.repairs = newJobManager(s.repairCfg, s.store)
		if s.closed {
			// A handler raced Close: hand out a manager that is already
			// shut down, so any submission fails fast instead of leaking
			// a search the closed server will never drain.
			close(s.repairs.quit)
			s.repairs.closed = true
		}
	}
	return s.repairs
}

// cmdRepair handles:
//
//	REPAIR app trial fixed broken [opt val ...]
//
// where trial is the UI action script joined with ";" and fixed/broken
// are the screenshot oracle markers (at least one non-empty). Options:
// strategy dfs|bfs, noclust 0|1, live 0|1 (search the engine's published
// clustering instead of re-clustering), window ns, threshold f, start ns,
// end ns, maxtrials n. Replies with the job id as a bulk string; poll it
// with RSTAT and apply the confirmed fix with RFIX.
func (s *Server) cmdRepair(_ *connState, args []string) Value {
	model := apps.ModelByName(args[0])
	if model == nil {
		return errValue("ERR repair: unknown app '" + args[0] + "'")
	}
	trial := splitTrial(args[1])
	if len(trial) == 0 {
		return errValue("ERR repair: empty trial")
	}
	fixed, broken := args[2], args[3]
	if fixed == "" && broken == "" {
		return errValue("ERR repair: need a fixed and/or broken marker")
	}
	opts := repair.Options{
		Trial:  trial,
		Oracle: repair.MarkerOracle(fixed, broken),
	}
	live := false
	for i := 4; i < len(args); i += 2 {
		k, v := args[i], args[i+1]
		var err error
		switch k {
		case "strategy":
			opts.Strategy, err = repair.ParseStrategy(v)
		case "noclust":
			opts.NoClust, err = parseBoolOpt(v)
		case "live":
			live, err = parseBoolOpt(v)
		case "window":
			opts.Window, err = parseDurationNanos(v)
		case "threshold":
			opts.Threshold, err = strconv.ParseFloat(v, 64)
		case "start":
			opts.Start, err = parseOptNanos(v)
		case "end":
			opts.End, err = parseOptNanos(v)
		case "maxtrials":
			opts.MaxTrials, err = strconv.Atoi(v)
		default:
			return errValue("ERR repair: unknown option '" + k + "'")
		}
		if err != nil {
			return errValue(fmt.Sprintf("ERR repair: bad %s %q: %v", k, v, err))
		}
	}
	if live {
		if s.analytics == nil {
			return errValue(needAnalytics.refuse)
		}
		clusters, _ := s.analytics.Snapshot()
		if len(clusters) == 0 {
			// Before the engine's first publish a live search would scan
			// an empty clustering and report a confident (and wrong)
			// "nothing to roll back"; reject instead.
			return errValue("ERR repair: live clustering has not published yet; retry or omit live")
		}
		// Search trims the store-wide snapshot to the app's keys itself.
		opts.Clusters = clusters
	}
	job, err := s.repairManager().submit(repair.NewTool(s.store, model), opts)
	if err != nil {
		return errValue("ERR repair: " + err.Error())
	}
	return bulk(job.id)
}

// cmdRepairStat handles RSTAT id. Reply:
//
//	*8
//	  $state ($queued|$running|$done|$failed)
//	  $error ("" unless failed)
//	  :trialsDone  :totalTrials  :found  :fixAtNanos
//	  *K offending cluster keys
//	  *S screenshots, each *5: :trial :cluster :atNanos $hash $rendered
func (s *Server) cmdRepairStat(_ *connState, args []string) Value {
	job, ok := s.repairManager().get(args[0])
	if !ok {
		return errValue("ERR repair: no such job '" + args[0] + "'")
	}
	job.mu.Lock()
	defer job.mu.Unlock()
	out := make([]Value, 0, 8)
	out = append(out,
		bulk(job.state), bulk(job.errMsg),
		intValue(job.trialsDone.Load()), intValue(job.totalTrials.Load()),
	)
	var found int64
	var fixAt int64
	var keys, shots []Value
	if job.res != nil {
		if job.res.Found {
			found = 1
			if !job.res.FixAt.IsZero() {
				fixAt = job.res.FixAt.UnixNano()
			}
		}
		keys = make([]Value, len(job.res.Offending.Keys))
		for i, k := range job.res.Offending.Keys {
			keys[i] = bulk(k)
		}
		shots = make([]Value, len(job.res.Screenshots))
		for i := range job.res.Screenshots {
			sc := &job.res.Screenshots[i]
			shots[i] = array(
				intValue(int64(sc.Trial)), intValue(int64(sc.Cluster)),
				intValue(sc.At.UnixNano()), bulk(sc.Hash), bulk(sc.Rendered),
			)
		}
	}
	out = append(out, intValue(found), intValue(fixAt), array(keys...), array(shots...))
	return array(out...)
}

// cmdRepairFix handles RFIX id applyAtNanos: it atomically rolls the
// job's offending cluster back to the fixed historical values (the user
// confirmed the screenshot) and replies with the number of reverted keys.
func (s *Server) cmdRepairFix(_ *connState, args []string) Value {
	at, err := parseNanos(args[1])
	if err != nil || at.IsZero() {
		return errValue("ERR bad timestamp: " + args[1])
	}
	job, ok := s.repairManager().get(args[0])
	if !ok {
		return errValue("ERR repair: no such job '" + args[0] + "'")
	}
	// Validate and claim under the lock, but run the revert outside it:
	// RevertCluster can block on group-commit backpressure (stalled disk),
	// and holding job.mu there would wedge RSTAT of this job — and, via
	// the manager's eviction scan, every other repair command.
	job.mu.Lock()
	switch {
	case job.state != JobDone:
		job.mu.Unlock()
		return errValue("ERR repair: job is " + job.state + ", not done")
	case !job.res.Found:
		job.mu.Unlock()
		return errValue("ERR repair: search found no fix")
	case len(job.res.Offending.Keys) == 0:
		// Found with no offending cluster: the symptom was never visible,
		// so there is nothing to roll back (same guard as repair.ApplyFix).
		job.mu.Unlock()
		return errValue("ERR repair: no fix to apply (nothing was broken)")
	case job.applied || job.applying:
		job.mu.Unlock()
		return errValue("ERR repair: fix already applied")
	}
	job.applying = true
	keys, fixAt := job.res.Offending.Keys, job.res.FixAt
	job.mu.Unlock()

	n, err := s.store.RevertCluster(keys, fixAt, at)

	job.mu.Lock()
	job.applying = false
	if err == nil {
		job.applied = true
	}
	job.mu.Unlock()
	if err != nil {
		return errValue("ERR repair: applying fix: " + err.Error())
	}
	return intValue(int64(n))
}

// trialSep joins/splits UI actions on the wire; actions containing it are
// not representable (none of the catalog's are).
const trialSep = ";"

func splitTrial(s string) []string {
	var out []string
	for _, a := range strings.Split(s, trialSep) {
		if a != "" {
			out = append(out, a)
		}
	}
	return out
}

// parseBoolOpt parses a strict wire boolean: "1" or "0" only, so a
// malformed value is rejected instead of silently meaning false.
func parseBoolOpt(s string) (bool, error) {
	switch s {
	case "1":
		return true, nil
	case "0":
		return false, nil
	}
	return false, fmt.Errorf("want 0 or 1")
}

// parseOptNanos parses a UnixNano timestamp where 0 means "unset".
func parseOptNanos(s string) (time.Time, error) {
	ns, err := strconv.ParseInt(s, 10, 64)
	if err != nil {
		return time.Time{}, err
	}
	if ns == 0 {
		return time.Time{}, nil
	}
	return time.Unix(0, ns).UTC(), nil
}

// parseDurationNanos parses a non-negative duration in nanoseconds.
func parseDurationNanos(s string) (time.Duration, error) {
	ns, err := strconv.ParseInt(s, 10, 64)
	if err != nil {
		return 0, err
	}
	if ns < 0 {
		return 0, fmt.Errorf("negative duration")
	}
	return time.Duration(ns), nil
}

// sortedJobIDs is used by tests to inspect the manager deterministically.
func (m *jobManager) sortedJobIDs() []string {
	m.mu.Lock()
	defer m.mu.Unlock()
	ids := make([]string, 0, len(m.jobs))
	for id := range m.jobs {
		ids = append(ids, id)
	}
	sort.Strings(ids)
	return ids
}
