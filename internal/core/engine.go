package core

import (
	"sort"
	"sync"
	"sync/atomic"
	"time"

	"ocasta/internal/trace"
)

// EngineConfig tunes a streaming analytics engine. The zero value selects
// the paper's defaults (1-second anchored window, complete linkage,
// correlation threshold 2) with the default reorder horizon.
type EngineConfig struct {
	// Window is the sliding co-modification window. 0 selects the paper's
	// 1-second default; a negative value selects the true zero-second
	// window (writes group only on identical timestamps).
	Window time.Duration
	// Mode selects anchored or chained grouping (default anchored).
	Mode trace.GroupMode
	// Horizon is how far out of per-app chronological order pushed events
	// may arrive and still be windowed exactly; < 0 selects
	// trace.DefaultHorizon, 0 requires in-order arrival.
	Horizon time.Duration
	// Linkage is the HAC criterion (default complete/maximum linkage).
	Linkage Linkage
	// Threshold is the correlation threshold in (0, 2] (default 2).
	Threshold float64
	// Parallelism bounds how many dirty components are reclustered
	// concurrently; <= 0 uses all CPUs.
	Parallelism int
	// MaxFutureSkew, when positive, bounds how far beyond the wall clock
	// an event timestamp may advance the windower's watermark (see
	// trace.StreamWindower.SetFutureLimit): one hostile far-future
	// timestamp is quarantined instead of permanently poisoning the
	// stream. Enable it only when writers stamp events with real time
	// (ttkvd does); leave it zero when replaying historical traces.
	MaxFutureSkew time.Duration
}

func (c EngineConfig) normalized() EngineConfig {
	switch {
	case c.Window == 0:
		c.Window = trace.DefaultWindow
	case c.Window < 0:
		c.Window = 0
	}
	if c.Horizon < 0 {
		c.Horizon = trace.DefaultHorizon
	}
	if c.Threshold <= 0 || c.Threshold > 2 {
		c.Threshold = 2
	}
	return c
}

// clusterSnapshot is one published clustering, immutable once stored.
type clusterSnapshot struct {
	clusters []Cluster
	version  uint64
}

// Engine is the streaming analytics engine: it consumes a live write
// stream event by event (typically as a ttkv store's StatsObserver),
// windows it incrementally, folds closed groups into incremental
// PairStats, and reclusters on demand — re-running HAC only on the
// connected components whose statistics changed since the last cut and
// splicing cached clusters for the untouched ones, so periodic
// reclustering of a mostly-stable key universe costs a small fraction of
// a full Cluster run.
//
// The contract is equivalence with bounded staleness: after Flush, the
// next Recluster's output is byte-identical to StatsOf + Clusterer.Cluster
// over the same event set (in chained mode, which StatsOf does not offer,
// to the same events pushed in time order through a zero-horizon
// windower). Mid-stream, the clustering lags the write stream by at most
// one still-open window per app plus the reorder horizon plus the
// recluster interval.
//
// Push/Observe/Recluster/Correlation are safe for concurrent use;
// Clusters and Version read the last published snapshot without taking
// the engine lock.
type Engine struct {
	cfg       EngineConfig
	clusterer *Clusterer
	maxDist   float64

	// Incoming events are staged in a double-buffered pending queue
	// guarded by its own tiny lock, so store writers calling
	// ObserveWrite never block behind a running recluster (which holds
	// e.mu for its HAC pass); every e.mu holder drains the queue first,
	// and Push drains opportunistically (TryLock) once a batch
	// accumulates. Queue order is arrival order, so windowing semantics
	// are identical to direct pushes.
	pendMu    sync.Mutex
	pending   []trace.Event
	pendSpare []trace.Event

	mu sync.Mutex // guards sw, ps mutation, dirty state, caches
	sw *trace.StreamWindower
	ps *PairStats

	// statsMu additionally brackets every mutation of ps/dirty (all of
	// which happen inside drainLocked, under mu). Correlation-style
	// readers take only the read side, so they proceed concurrently with
	// a long recluster HAC pass (which holds mu but never mutates stats
	// while clustering) instead of queueing behind it.
	statsMu sync.RWMutex

	dirty    []bool // per interned key id: stats changed since last cut
	dirtyIDs []int  // set bits of dirty, for cheap reset

	// Component cache: adjacency and components are invalidated only when
	// the key universe or the distinct-pair set grows (count increments
	// on existing pairs change neither), so a recluster over a stable
	// graph skips both rebuilds.
	adj       [][]int
	comps     [][]int
	adjKeys   int
	adjPairs  int
	cache     map[string][]Cluster // component (by smallest key) -> clusters
	published atomic.Pointer[clusterSnapshot]
}

// NewEngine returns an empty streaming analytics engine.
func NewEngine(cfg EngineConfig) *Engine {
	cfg = cfg.normalized()
	e := &Engine{
		cfg:       cfg,
		clusterer: NewClusterer(cfg.Linkage).WithParallelism(cfg.Parallelism),
		maxDist:   ThresholdFromCorrelation(cfg.Threshold),
		ps:        NewPairStats(nil),
		cache:     make(map[string][]Cluster),
	}
	e.sw = trace.NewStreamWindower(cfg.Window, cfg.Mode, cfg.Horizon, e.onGroup)
	if cfg.MaxFutureSkew > 0 {
		e.sw.SetFutureLimit(cfg.MaxFutureSkew, time.Now)
	}
	e.published.Store(&clusterSnapshot{})
	return e
}

// Config returns the engine's normalized configuration.
func (e *Engine) Config() EngineConfig { return e.cfg }

// onGroup folds one closed group into the statistics and marks its keys
// dirty. Called by the windower with e.mu held (every windower call site
// is under the lock).
func (e *Engine) onGroup(g *trace.Group) {
	e.ps.Add(*g)
	for _, k := range g.Keys {
		id := e.ps.index[k]
		for id >= len(e.dirty) {
			e.dirty = append(e.dirty, false)
		}
		if !e.dirty[id] {
			e.dirty[id] = true
			e.dirtyIDs = append(e.dirtyIDs, id)
		}
	}
}

// pendingDrainBatch is how many staged events accumulate before Push
// tries to drain them itself; below it, draining is left to the next
// e.mu holder. Keeps the staging buffer small without Push ever blocking
// on a recluster in progress.
const pendingDrainBatch = 4096

// Push feeds one trace event into the engine. Reads are ignored. Push
// never blocks behind a running recluster: the event is staged and
// folded in by the next lock holder.
func (e *Engine) Push(ev trace.Event) {
	e.pendMu.Lock()
	e.pending = append(e.pending, ev)
	n := len(e.pending)
	e.pendMu.Unlock()
	if n >= pendingDrainBatch && e.mu.TryLock() {
		e.drainLocked()
		e.mu.Unlock()
	}
}

// drainLocked feeds staged events into the windower in arrival order.
// Caller holds e.mu.
func (e *Engine) drainLocked() {
	for {
		// Check before swapping: swapping in the spare on the empty-queue
		// exit would leave pending and pendSpare sharing one backing array,
		// and the next drain would read a buffer Push is appending to.
		e.pendMu.Lock()
		batch := e.pending
		if len(batch) == 0 {
			e.pendMu.Unlock()
			return
		}
		e.pending = e.pendSpare[:0]
		e.pendMu.Unlock()
		// The windower's emit callback (onGroup) mutates ps and the dirty
		// set; bracket the fold so lock-free stat readers see a
		// consistent view.
		e.statsMu.Lock()
		for i := range batch {
			e.sw.Push(batch[i])
		}
		e.statsMu.Unlock()
		clear(batch) // release string references before reuse
		e.pendSpare = batch[:0]
	}
}

// ObserveWrite feeds one store mutation into the engine; it implements
// the ttkv store's StatsObserver hook. Store writes carry no application
// identity, so the whole store is windowed as one stream.
func (e *Engine) ObserveWrite(key string, t time.Time, deleted bool) {
	op := trace.OpWrite
	if deleted {
		op = trace.OpDelete
	}
	e.Push(trace.Event{Time: t, Op: op, Key: key})
}

// AdvanceTo declares a watermark (see trace.StreamWindower.AdvanceTo):
// groups that can no longer grow are closed and folded in. Drive it from
// a wall clock only when writers stamp events with real time.
func (e *Engine) AdvanceTo(t time.Time) {
	e.mu.Lock()
	e.drainLocked()
	e.sw.AdvanceTo(t)
	e.mu.Unlock()
}

// Flush closes every open group and folds it in, finishing the stream
// (the engine remains usable; subsequent events open fresh groups).
func (e *Engine) Flush() {
	e.mu.Lock()
	e.drainLocked()
	e.sw.Flush()
	e.mu.Unlock()
}

// Clusters returns the most recently published clustering (never nil,
// possibly empty before the first Recluster). The returned slice is
// shared and must not be mutated.
func (e *Engine) Clusters() []Cluster {
	return e.published.Load().clusters
}

// Version returns the publish counter of the current snapshot: it
// increments on every Recluster, so pollers can detect change cheaply.
func (e *Engine) Version() uint64 {
	return e.published.Load().version
}

// Snapshot returns the published clustering and its version as one
// consistent pair (a Clusters call followed by a Version call could
// straddle a concurrent publish and pair old clusters with a new
// version). The slice is shared and must not be mutated.
func (e *Engine) Snapshot() ([]Cluster, uint64) {
	s := e.published.Load()
	return s.clusters, s.version
}

// Correlation returns the live pairwise correlation of two keys,
// reflecting every group folded in so far (no recluster required). It
// reads the statistics without taking the engine lock, so it answers
// immediately even while a recluster's HAC pass is running; events still
// staged in the pending queue (at most one drain batch or recluster
// interval behind) are not yet reflected.
func (e *Engine) Correlation(a, b string) float64 {
	e.statsMu.RLock()
	defer e.statsMu.RUnlock()
	return e.ps.KeyCorrelation(a, b)
}

// NumKeys returns how many distinct keys the engine has seen in closed
// groups (like Correlation, pending staged events are not yet counted).
func (e *Engine) NumKeys() int {
	e.statsMu.RLock()
	defer e.statsMu.RUnlock()
	return e.ps.NumKeys()
}

// NumGroups returns how many co-modification episodes have been folded in
// (like Correlation, pending staged events are not yet counted).
func (e *Engine) NumGroups() int {
	e.statsMu.RLock()
	defer e.statsMu.RUnlock()
	return e.ps.NumGroups()
}

// Recluster recomputes the clustering over every group folded in so far
// and publishes it. Only connected components containing a dirty key are
// re-run through HAC; clean components reuse their cached clusters
// verbatim (their statistics are provably unchanged: any group touching a
// member key marks it dirty). The result is identical to a full
// Clusterer.Cluster over the same statistics.
func (e *Engine) Recluster() []Cluster {
	e.mu.Lock()
	defer e.mu.Unlock()
	e.drainLocked()

	ps := e.ps
	ps.ensureSorted()
	// Rebuild the graph only if it could have changed: a new key or a new
	// distinct pair. Count increments on existing pairs alter neither
	// adjacency nor components.
	if e.adj == nil || e.adjKeys != ps.NumKeys() || e.adjPairs != ps.NumPairs() {
		e.adj = ps.adjacency()
		e.comps = ps.components(e.adj)
		e.adjKeys = ps.NumKeys()
		e.adjPairs = ps.NumPairs()
	}

	type job struct {
		comp []int
		key  string
		out  []Cluster
	}
	var (
		clusters = make([]Cluster, 0, len(e.comps))
		jobs     []*job
		newCache = make(map[string][]Cluster, len(e.comps))
	)
	for _, comp := range e.comps {
		compKey := ps.keyBySorted(comp[0])
		if cached, ok := e.cache[compKey]; ok && !e.compDirty(comp) {
			newCache[compKey] = cached
			clusters = append(clusters, cached...)
			continue
		}
		jobs = append(jobs, &job{comp: comp, key: compKey})
	}

	parallelFor(len(jobs), e.clusterer.workerCount(), func(t int) {
		j := jobs[t]
		j.out = e.clusterer.clusterComponent(ps, j.comp, e.adj, e.maxDist)
	})
	for _, j := range jobs {
		newCache[j.key] = j.out
		clusters = append(clusters, j.out...)
	}
	e.cache = newCache

	// Reset dirty state.
	for _, id := range e.dirtyIDs {
		e.dirty[id] = false
	}
	e.dirtyIDs = e.dirtyIDs[:0]

	// First keys are unique across clusters (clusters partition the key
	// universe), so this order is total and matches Cluster's.
	sort.Slice(clusters, func(i, j int) bool { return clusters[i].Keys[0] < clusters[j].Keys[0] })

	prev := e.published.Load()
	e.published.Store(&clusterSnapshot{clusters: clusters, version: prev.version + 1})
	return clusters
}

// Reset discards every event, statistic, and cached clustering, returning
// the engine to its freshly constructed state (configuration kept, publish
// counter advanced so pollers see the change). A read replica calls it on
// full resync: the new primary's snapshot replays through the observer
// from scratch, and stale statistics must not double-count it.
func (e *Engine) Reset() {
	e.mu.Lock()
	defer e.mu.Unlock()
	e.pendMu.Lock()
	e.pending = e.pending[:0]
	e.pendMu.Unlock()
	e.statsMu.Lock()
	e.ps = NewPairStats(nil)
	e.dirty = nil
	e.dirtyIDs = nil
	e.statsMu.Unlock()
	e.sw = trace.NewStreamWindower(e.cfg.Window, e.cfg.Mode, e.cfg.Horizon, e.onGroup)
	if e.cfg.MaxFutureSkew > 0 {
		e.sw.SetFutureLimit(e.cfg.MaxFutureSkew, time.Now)
	}
	e.adj, e.comps = nil, nil
	e.adjKeys, e.adjPairs = 0, 0
	e.cache = make(map[string][]Cluster)
	prev := e.published.Load()
	e.published.Store(&clusterSnapshot{version: prev.version + 1})
}

// compDirty reports whether any member of the (sorted-space) component
// has dirty statistics.
func (e *Engine) compDirty(comp []int) bool {
	for _, i := range comp {
		id := e.ps.perm[i]
		if id < len(e.dirty) && e.dirty[id] {
			return true
		}
	}
	return false
}
