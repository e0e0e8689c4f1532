// Package core implements Ocasta's primary contribution: statistical
// clustering of related configuration settings from black-box observations
// of an application's writes to its configuration store.
//
// The pipeline is:
//
//  1. A sliding time window turns the write stream into co-modification
//     groups (trace.StreamWindower), each folded into pair statistics as
//     it closes (PairStats.Add). Engine runs this live; StatsOf runs it
//     over a recorded event list.
//  2. For every pair of keys a correlation metric is computed:
//     corr(A,B) = |A∩B|/|A| + |A∩B|/|B|, where |A| counts the episodes in
//     which A was modified and |A∩B| the episodes modifying both. The
//     metric ranges over [0,2]; 2 means "always modified together".
//  3. Hierarchical agglomerative clustering merges keys using the inverse
//     correlation as distance, by default under the maximum (complete)
//     linkage criterion, stopping at a tunable distance threshold. The
//     default threshold of 0.5 corresponds to a correlation of 2.
//
// The resulting clusters are ranked for error recovery by how rarely they
// were modified: configuration settings change only when a user explicitly
// edits them, so rarely-modified clusters are the most configuration-like.
package core

import (
	"math"
	"slices"
	"sort"
	"time"

	"ocasta/internal/trace"
)

// DefaultThreshold is the default clustering cut-off expressed as a
// distance: 1/corr with corr = 2, i.e. only keys that are always modified
// together end up clustered.
const DefaultThreshold = 0.5

// Correlation computes the paper's pairwise correlation metric from episode
// counts: co co-modifications of two keys individually modified a and b
// times. The result is in [0,2] and is 0 when either key has no episodes.
func Correlation(co, a, b int) float64 {
	if a <= 0 || b <= 0 || co <= 0 {
		return 0
	}
	return float64(co)/float64(a) + float64(co)/float64(b)
}

// DistanceFromCorrelation converts a correlation into a clustering distance.
// Higher correlation means smaller distance; zero correlation is infinitely
// far apart so never-co-modified keys can never merge.
func DistanceFromCorrelation(corr float64) float64 {
	if corr <= 0 {
		return math.Inf(1)
	}
	return 1 / corr
}

// ThresholdFromCorrelation converts a user-facing correlation threshold
// (the paper's tunable, 0 < c <= 2) into the distance cut-off used by HAC.
func ThresholdFromCorrelation(corr float64) float64 {
	return DistanceFromCorrelation(corr)
}

// PairStats aggregates co-modification episode counts for the keys seen in
// a window-grouped write stream. It is the input to clustering.
//
// PairStats is incremental: NewPairStats(nil) yields an empty accumulator
// and Add folds in one group at a time, so a streaming windower can feed
// it without ever materialising the group slice. Keys are interned into a
// growable symbol table on first sight; pair counts live in an
// open-addressed table keyed by the packed id pair (see pairCounter) —
// a map[pair]int here was once the hottest allocation site of the whole
// analytics path.
//
// Internally ids follow interning (arrival) order, but every clustering-
// facing accessor works in *sorted-key* id space through a lazily
// maintained permutation, so merge trees, tie-breaks, and node ids are
// bit-identical to building the stats from scratch over sorted keys.
// PairStats is not safe for concurrent use.
type PairStats struct {
	syms   []string       // interned id -> key name, in first-seen order
	index  map[string]int // key name -> interned id
	ep     []int          // per interned id: episodes (groups) touching it
	co     *pairCounter   // packed interned-id pair -> co-episode count
	last   []int64        // per interned id: UnixNano of most recent episode
	groups int

	// perm/inv map sorted-id space (what HAC sees) to interned-id space.
	// They are rebuilt only when the key universe grew — counts changing
	// never invalidates them, which is what keeps periodic reclustering
	// of a stable universe cheap.
	perm []int // sorted id -> interned id
	inv  []int // interned id -> sorted id

	scratch []int // Add's group id buffer, reused across calls
}

// StatsOf windows a recorded event list and folds every co-modification
// group into fresh pair statistics: the one-shot form of the engine's
// pipeline (StreamWindower → PairStats.Add), for traces already in hand.
// The events need not be sorted and are not modified: StatsOf stable-sorts
// a copy by time and pushes it through an anchored StreamWindower with a
// zero reorder horizon, so each application's writes are windowed on
// their own, in order. Reads are ignored; a negative window is treated
// as zero.
func StatsOf(events []trace.Event, window time.Duration) *PairStats {
	evs := slices.Clone(events)
	sort.SliceStable(evs, func(i, j int) bool { return evs[i].Time.Before(evs[j].Time) })
	ps := NewPairStats(nil)
	sw := trace.NewStreamWindower(window, trace.GroupAnchored, 0, func(g *trace.Group) { ps.Add(*g) })
	for _, ev := range evs {
		sw.Push(ev)
	}
	sw.Flush()
	return ps
}

// NewPairStats builds pair statistics from co-modification groups.
// NewPairStats(nil) returns an empty accumulator for incremental use.
func NewPairStats(groups []trace.Group) *PairStats {
	ps := &PairStats{
		index: make(map[string]int),
		co:    newPairCounter(),
	}
	for _, g := range groups {
		ps.Add(g)
	}
	return ps
}

// intern returns the id of key, assigning the next id on first sight.
func (ps *PairStats) intern(key string) int {
	if id, ok := ps.index[key]; ok {
		return id
	}
	id := len(ps.syms)
	ps.syms = append(ps.syms, key)
	ps.index[key] = id
	ps.ep = append(ps.ep, 0)
	ps.last = append(ps.last, 0)
	return id
}

// Add folds one co-modification group into the statistics. Duplicate keys
// within the group are deduped: a repeated key would otherwise
// double-count its episode and insert a self-pair into the co-modification
// counts, silently inflating correlations.
func (ps *PairStats) Add(g trace.Group) {
	ids := ps.scratch[:0]
	for _, k := range g.Keys {
		ids = append(ids, ps.intern(k))
	}
	sort.Ints(ids)
	// In-place dedupe of the sorted ids.
	w := 0
	for i, id := range ids {
		if i == 0 || id != ids[i-1] {
			ids[w] = id
			w++
		}
	}
	ids = ids[:w]
	end := g.End.UnixNano()
	for i, a := range ids {
		ps.ep[a]++
		if end > ps.last[a] {
			ps.last[a] = end
		}
		for _, b := range ids[i+1:] {
			ps.co.incr(packPair(a, b))
		}
	}
	ps.scratch = ids
	ps.groups++
}

// ensureSorted (re)builds the sorted-id permutation after the key universe
// grew. Counts changing does not invalidate it, so the length check is an
// exact staleness test.
func (ps *PairStats) ensureSorted() {
	if len(ps.perm) == len(ps.syms) {
		return
	}
	ps.perm = make([]int, len(ps.syms))
	for i := range ps.perm {
		ps.perm[i] = i
	}
	sort.Slice(ps.perm, func(i, j int) bool { return ps.syms[ps.perm[i]] < ps.syms[ps.perm[j]] })
	ps.inv = make([]int, len(ps.syms))
	for s, id := range ps.perm {
		ps.inv[id] = s
	}
}

// Keys returns the distinct keys observed, sorted.
func (ps *PairStats) Keys() []string {
	ps.ensureSorted()
	out := make([]string, len(ps.syms))
	for i, id := range ps.perm {
		out[i] = ps.syms[id]
	}
	return out
}

// NumKeys returns how many distinct keys were observed.
func (ps *PairStats) NumKeys() int { return len(ps.syms) }

// NumPairs returns how many distinct key pairs were ever co-modified.
func (ps *PairStats) NumPairs() int { return ps.co.len() }

// NumGroups returns how many co-modification episodes were observed.
func (ps *PairStats) NumGroups() int { return ps.groups }

// Episodes returns the number of modification episodes of key, or 0 if the
// key was never modified.
func (ps *PairStats) Episodes(key string) int {
	if i, ok := ps.index[key]; ok {
		return ps.ep[i]
	}
	return 0
}

// CoEpisodes returns the number of episodes in which both keys were
// modified together.
func (ps *PairStats) CoEpisodes(a, b string) int {
	ia, ok := ps.index[a]
	if !ok {
		return 0
	}
	ib, ok := ps.index[b]
	if !ok || ia == ib {
		return 0
	}
	return ps.co.get(packPair(ia, ib))
}

// KeyCorrelation returns the correlation between two named keys.
func (ps *PairStats) KeyCorrelation(a, b string) float64 {
	ia, ok := ps.index[a]
	if !ok {
		return 0
	}
	ib, ok := ps.index[b]
	if !ok || ia == ib {
		return 0
	}
	return Correlation(ps.co.get(packPair(ia, ib)), ps.ep[ia], ps.ep[ib])
}

// correlationByIndex is the internal fast path used by HAC. i and j are
// sorted-space ids.
func (ps *PairStats) correlationByIndex(i, j int) float64 {
	a, b := ps.perm[i], ps.perm[j]
	return Correlation(ps.co.get(packPair(a, b)), ps.ep[a], ps.ep[b])
}

// keyBySorted returns the key name of a sorted-space id.
func (ps *PairStats) keyBySorted(i int) string { return ps.syms[ps.perm[i]] }

// adjacency returns, per sorted-space key id, the set of neighbours with
// non-zero co-modification counts. HAC decomposes over the connected
// components of this graph: keys in different components are at infinite
// distance and can never merge under any linkage.
func (ps *PairStats) adjacency() [][]int {
	ps.ensureSorted()
	adj := make([][]int, len(ps.syms))
	ps.co.forEach(func(k uint64, _ int) {
		lo, hi := unpackPair(k)
		a, b := ps.inv[lo], ps.inv[hi]
		adj[a] = append(adj[a], b)
		adj[b] = append(adj[b], a)
	})
	return adj
}

// components returns the connected components of the co-modification graph
// described by adj (as built by adjacency), each sorted, in deterministic
// (smallest-member) order. Ids are sorted-space.
func (ps *PairStats) components(adj [][]int) [][]int {
	seen := make([]bool, len(ps.syms))
	var comps [][]int
	for start := range adj {
		if seen[start] {
			continue
		}
		comp := []int{start}
		seen[start] = true
		for frontier := []int{start}; len(frontier) > 0; {
			next := frontier[0]
			frontier = frontier[1:]
			for _, nb := range adj[next] {
				if !seen[nb] {
					seen[nb] = true
					comp = append(comp, nb)
					frontier = append(frontier, nb)
				}
			}
		}
		sort.Ints(comp)
		comps = append(comps, comp)
	}
	return comps
}
