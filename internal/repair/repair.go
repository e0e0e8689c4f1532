// Package repair implements Ocasta's configuration error repair tool
// (paper §III-B): given a user-provided trial that makes the error's
// symptoms visible on screen, it searches historical values of the
// clusters of configuration settings, rolling back one whole cluster at a
// time inside a sandbox, screenshotting the result, and letting the user
// confirm a screenshot that shows the fixed application.
//
// The search is split into candidate generation — every (cluster,
// historical version) pair, flattened into the strategy's trial order —
// and trial execution. With Options.Workers > 1 trials execute on a
// worker pool (parallel.go), each against a point-in-time ttkv.View
// pinned at search start, with deterministic arbitration that makes the
// parallel result byte-identical to the sequential search.
package repair

import (
	"crypto/sha256"
	"encoding/hex"
	"errors"
	"fmt"
	"time"

	"ocasta/internal/apps"
	"ocasta/internal/core"
	"ocasta/internal/trace"
	"ocasta/internal/ttkv"
)

// Repair errors.
var (
	ErrNoTrial     = errors.New("repair: a trial (UI action script) is required")
	ErrNoOracle    = errors.New("repair: a screenshot oracle is required")
	ErrInvalidSpan = errors.New("repair: start time is after end time")
	ErrCancelled   = errors.New("repair: search cancelled")
)

// Reader is the read-only store surface the repair search runs against.
// Both a live *ttkv.Store and a pinned *ttkv.View satisfy it; Search
// always pins a view so concurrent trial workers never race live writers.
type Reader interface {
	Keys() []string
	Get(key string) (string, bool)
	GetAt(key string, t time.Time) (ttkv.Version, error)
	History(key string) ([]ttkv.Version, error)
	ModTimes(keys []string) []time.Time
}

// Strategy selects the search order over cluster version histories.
type Strategy uint8

const (
	// StrategyDFS exhausts one cluster's historical values before moving
	// to the next cluster. Works best when the cluster sort ranks the
	// offending cluster early.
	StrategyDFS Strategy = iota + 1
	// StrategyBFS tries the most recent historical value of every cluster
	// before moving to the next-most-recent values.
	StrategyBFS
)

// String returns the canonical strategy name.
func (s Strategy) String() string {
	if s == StrategyBFS {
		return "bfs"
	}
	return "dfs"
}

// ParseStrategy parses "dfs" or "bfs".
func ParseStrategy(s string) (Strategy, error) {
	switch s {
	case "", "dfs":
		return StrategyDFS, nil
	case "bfs":
		return StrategyBFS, nil
	}
	return 0, fmt.Errorf("repair: unknown strategy %q", s)
}

// UserOracle inspects a screenshot and reports whether it shows the fixed
// application — the human step of the paper's loop, where the user picks
// the screenshot in which the symptom is gone. Oracles must be pure
// functions of the screenshot: the parallel executor memoizes verdicts by
// screenshot hash and may consult them from several workers.
type UserOracle func(screenshot string) bool

// MarkerOracle builds an oracle that accepts screenshots containing fixed
// and not containing broken (either may be empty).
func MarkerOracle(fixed, broken string) UserOracle {
	return func(s string) bool {
		if fixed != "" && !containsLine(s, fixed) {
			return false
		}
		if broken != "" && containsLine(s, broken) {
			return false
		}
		return true
	}
}

func containsLine(s, marker string) bool {
	for start := 0; start+len(marker) <= len(s); start++ {
		if s[start:start+len(marker)] == marker {
			return true
		}
	}
	return false
}

// SandboxFunc executes one sandboxed trial: start the application with
// the rolled-back configuration, replay the recorded UI actions, and
// return the resulting screenshot. The default sandbox renders the
// tool's simulated application model; a real deployment would launch the
// application in a container here. Sandboxes must be deterministic in
// (cfg, trial) and, when Options.Workers > 1, safe for concurrent use.
type SandboxFunc func(cfg apps.Config, trial []string) string

// Screenshot is one recorded, deduplicated trial screen.
type Screenshot struct {
	Rendered string
	Hash     string
	Trial    int       // 1-based trial number that produced it
	Cluster  int       // index into the sorted cluster list
	At       time.Time // historical version the cluster was rolled to
}

// CostModel converts trial executions into simulated wall-clock time,
// standing in for the paper's measured recovery minutes: launching the
// application, replaying the recorded UI actions, and taking the
// screenshot.
type CostModel struct {
	Launch     time.Duration // per trial application start
	PerAction  time.Duration
	Screenshot time.Duration
}

// DefaultCosts approximates the paper's observed per-trial latencies.
func DefaultCosts() CostModel {
	return CostModel{Launch: 8 * time.Second, PerAction: 2 * time.Second, Screenshot: time.Second}
}

// TrialCost is the simulated duration of one trial with n UI actions.
func (c CostModel) TrialCost(actions int) time.Duration {
	return c.Launch + time.Duration(actions)*c.PerAction + c.Screenshot
}

// Options configures one repair search.
type Options struct {
	Strategy Strategy
	// Window and Threshold are Ocasta's tunables: the co-modification
	// window and the user-facing correlation threshold in (0, 2]. Zero
	// values select the defaults (1 s, 2.0).
	Window    time.Duration
	Threshold float64
	// Start and End bound the history searched, as the user supplies them
	// to the tool. Zero Start searches the whole recorded history; zero
	// End searches up to the newest record.
	Start, End time.Time
	// NoClust makes the tool roll back one setting at a time — the
	// Ocasta-NoClust baseline of Table IV.
	NoClust bool
	// Clusters, when non-nil, supplies a pre-computed clustering — e.g. a
	// live core.Engine snapshot from a serving daemon — instead of
	// re-clustering the TTKV history on every search. The clusters are
	// trimmed to the tool's application (keys the model does not own are
	// dropped; see ClustersForApp) and recovery-sorted. Ignored with
	// NoClust.
	Clusters []core.Cluster
	// Trial is the recorded UI action script that makes the symptom
	// visible.
	Trial []string
	// Oracle is the user's screenshot check.
	Oracle UserOracle
	// Sandbox executes one trial; nil renders the tool's app model.
	Sandbox SandboxFunc
	// Costs is the simulated time model; zero value selects DefaultCosts.
	Costs CostModel
	// MaxTrials caps the search (0 = unlimited).
	MaxTrials int
	// Workers sets how many trials execute concurrently; <= 1 runs the
	// sequential reference search. Results are byte-identical at every
	// setting (trials are arbitrated in sequential order), only wall-clock
	// time changes: trials are dominated by sandbox latency, which
	// workers overlap.
	Workers int
	// Cancel, when non-nil, aborts the search once closed; Search then
	// returns the partial result with ErrCancelled.
	Cancel <-chan struct{}
	// OnProgress, when non-nil, is called after every committed trial
	// with the running trial count and the total search-space size. It is
	// called from the search goroutine, never concurrently.
	OnProgress func(done, total int)
}

func (o *Options) normalize() {
	if o.Strategy != StrategyBFS {
		o.Strategy = StrategyDFS
	}
	if o.Window <= 0 {
		o.Window = trace.DefaultWindow
	}
	if o.Threshold <= 0 || o.Threshold > 2 {
		o.Threshold = 2
	}
	if o.Costs == (CostModel{}) {
		o.Costs = DefaultCosts()
	}
	if o.Workers < 1 {
		o.Workers = 1
	}
}

// Result reports a repair search.
type Result struct {
	Found bool
	// Offending is the cluster whose rollback fixed the error.
	Offending core.Cluster
	// FixAt is the historical time whose values fixed the error.
	FixAt time.Time
	// Trials executed until the fix was found (or the search space was
	// exhausted).
	Trials int
	// TotalTrials is the size of the full search space (every historical
	// value of every cluster within bounds).
	TotalTrials int
	// Screenshots are the deduplicated screens recorded until the fix.
	Screenshots []Screenshot
	// SimTime and SimTotalTime are the simulated durations to find the
	// fix and to search everything (the two halves of Table IV's Time
	// column).
	SimTime      time.Duration
	SimTotalTime time.Duration
	// Clusters is the number of candidate clusters considered.
	Clusters int
	// AvgClusterSize is the mean size of candidate clusters (Table IV's
	// Cl.Size).
	AvgClusterSize float64
}

// Tool searches a TTKV's history for configuration fixes for one
// application.
type Tool struct {
	store *ttkv.Store
	model *apps.Model
	// Parallelism bounds how many co-modification-graph components the
	// tool's clustering runs concurrently; <= 0 (the default) uses all
	// CPUs. Results are identical at every setting.
	Parallelism int
}

// NewTool builds a repair tool over a recorded store for one application.
func NewTool(store *ttkv.Store, model *apps.Model) *Tool {
	return &Tool{store: store, model: model}
}

// appKeysIn returns every key of r owned by the application.
func (t *Tool) appKeysIn(r Reader) []string {
	var keys []string
	for _, k := range r.Keys() {
		if t.model.OwnsKey(k) {
			keys = append(keys, k)
		}
	}
	return keys
}

// eventsIn reconstructs the application's write stream from the TTKV
// histories (the repair tool needs only the TTKV, exactly as in the
// paper), key by key; core.StatsOf puts it in time order.
func (t *Tool) eventsIn(r Reader) []trace.Event {
	var evs []trace.Event
	for _, key := range t.appKeysIn(r) {
		hist, err := r.History(key)
		if err != nil {
			continue
		}
		for _, v := range hist {
			op := trace.OpWrite
			if v.Deleted {
				op = trace.OpDelete
			}
			evs = append(evs, trace.Event{
				Time: v.Time, Op: op, Store: t.model.Store, App: t.model.Name, Key: key, Value: v.Value,
			})
		}
	}
	return evs
}

// Clusters extracts and recovery-sorts the application's configuration
// clusters from the TTKV history. With noClust each modified key becomes
// its own cluster (the Table IV baseline).
func (t *Tool) Clusters(window time.Duration, corrThreshold float64, noClust bool) []core.Cluster {
	return t.clustersIn(t.store, window, corrThreshold, noClust)
}

func (t *Tool) clustersIn(r Reader, window time.Duration, corrThreshold float64, noClust bool) []core.Cluster {
	ps := core.StatsOf(t.eventsIn(r), window)
	var clusters []core.Cluster
	if noClust {
		clusters = singletonClusters(ps)
	} else {
		threshold := core.ThresholdFromCorrelation(corrThreshold)
		clusters = core.NewClusterer(core.LinkageComplete).
			WithParallelism(t.Parallelism).
			Cluster(ps, threshold)
	}
	core.SortForRecovery(clusters)
	return clusters
}

func singletonClusters(ps *core.PairStats) []core.Cluster {
	keys := ps.Keys()
	out := make([]core.Cluster, 0, len(keys))
	for _, k := range keys {
		out = append(out, core.Cluster{Keys: []string{k}, ModCount: ps.Episodes(k)})
	}
	return out
}

// ClustersForApp restricts a store-wide clustering (such as a live
// core.Engine snapshot, which windows every application's writes as one
// stream) to one application: each cluster is trimmed to the keys the
// model owns and clusters left empty are dropped. The input is never
// mutated — engine snapshots are shared — and episode counts carry over
// unchanged, so recovery sorting still ranks by modification rarity.
func ClustersForApp(clusters []core.Cluster, model *apps.Model) []core.Cluster {
	out := make([]core.Cluster, 0, len(clusters))
	for i := range clusters {
		cl := &clusters[i]
		var keys []string
		for _, k := range cl.Keys {
			if model.OwnsKey(k) {
				keys = append(keys, k)
			}
		}
		if len(keys) == 0 {
			continue
		}
		out = append(out, core.Cluster{
			Keys: keys, ModCount: cl.ModCount, LastModified: cl.LastModified,
		})
	}
	return out
}

// Snapshot returns the application's current configuration: the newest
// non-deleted value of every key.
func (t *Tool) Snapshot() apps.Config { return t.snapshotIn(t.store) }

func (t *Tool) snapshotIn(r Reader) apps.Config {
	cfg := make(apps.Config)
	for _, key := range t.appKeysIn(r) {
		if v, ok := r.Get(key); ok {
			cfg[key] = v
		}
	}
	return cfg
}

// rollbackIn returns a sandboxed configuration with the cluster's keys
// reset to their state at time at. Keys with no version at or before at
// did not exist then and are removed.
func (t *Tool) rollbackIn(r Reader, base apps.Config, cluster *core.Cluster, at time.Time) apps.Config {
	cfg := base.Clone()
	for _, key := range cluster.Keys {
		v, err := r.GetAt(key, at)
		if err != nil || v.Deleted {
			delete(cfg, key)
			continue
		}
		cfg[key] = v.Value
	}
	return cfg
}

// rollbackPoint is one historical candidate of a cluster: the cluster's
// state at an episode time, or — for the final candidate — the state just
// before the oldest in-bounds episode (undoing it), which is how the
// search reaches the pre-error state even when the error was the cluster's
// only in-bounds modification.
type rollbackPoint struct {
	at   time.Time
	undo bool
}

// state returns the instant whose stored values the trial restores.
func (rp rollbackPoint) state() time.Time {
	if rp.undo {
		return rp.at.Add(-time.Nanosecond)
	}
	return rp.at
}

// candidatesIn lists a cluster's historical rollback points within bounds,
// newest first, ending with the undo-oldest sentinel. The start bound
// limits how far back the search goes, as the user supplies it to the
// tool; clusters not modified within bounds have nothing to roll back.
func (t *Tool) candidatesIn(r Reader, cluster *core.Cluster, start, end time.Time) []rollbackPoint {
	all := r.ModTimes(cluster.Keys)
	out := make([]rollbackPoint, 0, len(all)+1)
	for _, mt := range all {
		if !end.IsZero() && mt.After(end) {
			continue
		}
		if !start.IsZero() && mt.Before(start) {
			continue
		}
		out = append(out, rollbackPoint{at: mt})
	}
	if len(out) > 0 {
		out = append(out, rollbackPoint{at: out[len(out)-1].at, undo: true})
	}
	return out
}

// cand is one trial of the flattened search space.
type cand struct{ ci, vi int }

// orderedCandidates flattens the per-cluster rollback points into the
// strategy's sequential trial order: DFS exhausts a cluster before moving
// on, BFS sweeps one depth across every cluster before descending.
func orderedCandidates(strategy Strategy, versions [][]rollbackPoint) []cand {
	var out []cand
	switch strategy {
	case StrategyBFS:
		for depth := 0; ; depth++ {
			progressed := false
			for ci := range versions {
				if depth < len(versions[ci]) {
					progressed = true
					out = append(out, cand{ci, depth})
				}
			}
			if !progressed {
				return out
			}
		}
	default: // DFS
		for ci := range versions {
			for vi := range versions[ci] {
				out = append(out, cand{ci, vi})
			}
		}
		return out
	}
}

// search carries the immutable state of one running search.
type search struct {
	view      Reader
	opts      *Options
	clusters  []core.Cluster
	versions  [][]rollbackPoint
	cands     []cand
	base      apps.Config
	sandbox   SandboxFunc
	trialCost time.Duration
	errorHash string
}

// runTrial executes candidate i's sandboxed trial and returns the screen.
func (s *search) runTrial(t *Tool, i int) (screen string, at time.Time) {
	c := s.cands[i]
	at = s.versions[c.ci][c.vi].state()
	cfg := t.rollbackIn(s.view, s.base, &s.clusters[c.ci], at)
	return s.sandbox(cfg, s.opts.Trial), at
}

func (s *search) progress(res *Result) {
	if s.opts.OnProgress != nil {
		s.opts.OnProgress(res.Trials, res.TotalTrials)
	}
}

func cancelled(ch <-chan struct{}) bool {
	if ch == nil {
		return false
	}
	select {
	case <-ch:
		return true
	default:
		return false
	}
}

// Search runs the repair search. The entire search — clustering (unless
// pre-computed clusters are supplied), candidate enumeration, and every
// sandboxed trial — reads from a point-in-time view pinned at call time,
// so results are stable even while live writers keep recording.
func (t *Tool) Search(opts Options) (*Result, error) {
	opts.normalize()
	if len(opts.Trial) == 0 {
		return nil, ErrNoTrial
	}
	if opts.Oracle == nil {
		return nil, ErrNoOracle
	}
	if !opts.Start.IsZero() && !opts.End.IsZero() && opts.Start.After(opts.End) {
		return nil, ErrInvalidSpan
	}

	view := t.store.ViewAt(t.store.CurrentSeq())
	var clusters []core.Cluster
	if opts.Clusters != nil && !opts.NoClust {
		clusters = ClustersForApp(opts.Clusters, t.model)
		core.SortForRecovery(clusters)
	} else {
		clusters = t.clustersIn(view, opts.Window, opts.Threshold, opts.NoClust)
	}
	res := &Result{Clusters: len(clusters)}
	sizeSum := 0
	for i := range clusters {
		sizeSum += clusters[i].Size()
	}
	if len(clusters) > 0 {
		res.AvgClusterSize = float64(sizeSum) / float64(len(clusters))
	}

	sandbox := opts.Sandbox
	if sandbox == nil {
		sandbox = t.model.Render
	}
	base := t.snapshotIn(view)
	trialCost := opts.Costs.TrialCost(len(opts.Trial))
	errorScreen := sandbox(base, opts.Trial)
	if opts.Oracle(errorScreen) {
		// Nothing to repair: the symptom is not visible.
		res.Found = true
		return res, nil
	}

	versions := make([][]rollbackPoint, len(clusters))
	for i := range clusters {
		versions[i] = t.candidatesIn(view, &clusters[i], opts.Start, opts.End)
		res.TotalTrials += len(versions[i])
	}
	res.SimTotalTime = time.Duration(res.TotalTrials) * trialCost

	s := &search{
		view: view, opts: &opts, clusters: clusters, versions: versions,
		cands: orderedCandidates(opts.Strategy, versions), base: base,
		sandbox: sandbox, trialCost: trialCost, errorHash: hashScreen(errorScreen),
	}
	if opts.Workers > 1 {
		return t.searchParallel(s, res)
	}
	return t.searchSequential(s, res)
}

// searchSequential is the reference executor: one trial at a time, in
// candidate order. The parallel executor is defined (and property-tested)
// to return byte-identical results.
func (t *Tool) searchSequential(s *search, res *Result) (*Result, error) {
	seen := map[string]struct{}{s.errorHash: {}}
	for i := range s.cands {
		if cancelled(s.opts.Cancel) {
			return res, ErrCancelled
		}
		screen, at := s.runTrial(t, i)
		res.Trials++
		res.SimTime += s.trialCost
		h := hashScreen(screen)
		if _, dup := seen[h]; !dup {
			seen[h] = struct{}{}
			res.Screenshots = append(res.Screenshots, Screenshot{
				Rendered: screen, Hash: h, Trial: res.Trials, Cluster: s.cands[i].ci, At: at,
			})
			if s.opts.Oracle(screen) {
				res.Found = true
				res.Offending = s.clusters[s.cands[i].ci]
				res.FixAt = at
				s.progress(res)
				return res, nil
			}
		}
		s.progress(res)
		if s.opts.MaxTrials > 0 && res.Trials >= s.opts.MaxTrials {
			return res, nil
		}
	}
	return res, nil
}

// ApplyFix permanently rolls the offending cluster back to the fixed
// historical values, recording the rollback as new writes at time at —
// the paper's final step before Ocasta returns to recording mode. The
// rollback is applied atomically: concurrent readers see either the
// broken or the fixed cluster, never half of each.
func (t *Tool) ApplyFix(res *Result, at time.Time) error {
	if !res.Found || len(res.Offending.Keys) == 0 {
		return errors.New("repair: no fix to apply")
	}
	if _, err := t.store.RevertCluster(res.Offending.Keys, res.FixAt, at); err != nil {
		return fmt.Errorf("repair: applying fix: %w", err)
	}
	return nil
}

func hashScreen(s string) string {
	sum := sha256.Sum256([]byte(s))
	return hex.EncodeToString(sum[:8])
}
