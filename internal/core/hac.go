package core

import (
	"fmt"
	"math"
	"runtime"
	"sort"
	"sync"
	"sync/atomic"
	"time"
)

// Linkage selects how the distance between two clusters is derived from
// the distances between their members.
type Linkage uint8

const (
	// LinkageComplete (the paper's "maximum linkage criterion") uses the
	// largest member-pair distance, so a merged cluster is only as related
	// as its least-related pair. This is Ocasta's default.
	LinkageComplete Linkage = iota + 1
	// LinkageSingle uses the smallest member-pair distance.
	LinkageSingle
	// LinkageAverage uses the unweighted mean of member-pair distances
	// (UPGMA); included for the ablation study.
	LinkageAverage
)

// String returns the canonical name of the linkage criterion.
func (l Linkage) String() string {
	switch l {
	case LinkageComplete:
		return "complete"
	case LinkageSingle:
		return "single"
	case LinkageAverage:
		return "average"
	default:
		return fmt.Sprintf("linkage(%d)", uint8(l))
	}
}

// avgScale is the fixed-point scale for average-linkage bookkeeping.
// Complete and single linkage only ever take the max or min of original
// leaf-pair distances, so their merge heights are bit-exact regardless of
// merge order. Average linkage does real arithmetic, and an incrementally
// maintained mean is float-associativity-sensitive: two algorithms merging
// the same tree in different temporal order (the naive global scan vs the
// nearest-neighbour chain) drift apart by an ulp and turn exact rational
// ties into spurious strict inequalities. So for average linkage the
// stores keep the SUM of member-pair distances, quantised to integers at
// avgScale resolution. Integer-valued float64 addition below 2^53 is exact
// and therefore order-independent, and the derived mean
// sum/(avgScale*|A|*|B|) is a correctly-rounded pure function of exact
// integers — bit-identical however the algorithm ordered its merges.
// Exactness holds while pairs*maxDist*avgScale < 2^53, i.e. component
// sizes into the tens of thousands of keys for realistic co-modification
// distances.
const avgScale = 1 << 20

// combine folds two stored values (distances, or scaled distance sums for
// average linkage) of cluster pairs (I,K) and (J,K) into the stored value
// for (I∪J, K). +Inf (never co-modified) propagates through max and sum,
// so complete and average linkage keep infinite entries infinite; min
// keeps the finite side for single linkage.
func (l Linkage) combine(vi, vj float64) float64 {
	switch l {
	case LinkageSingle:
		return math.Min(vi, vj)
	case LinkageAverage:
		return vi + vj
	default: // complete
		return math.Max(vi, vj)
	}
}

// storedValue converts a leaf-pair distance into the store representation
// for the linkage.
func (l Linkage) storedValue(d float64) float64 {
	if l == LinkageAverage && !math.IsInf(d, 1) {
		return math.Round(d * avgScale)
	}
	return d
}

// cutThreshold maps a caller's distance threshold onto the linkage's
// merge-height grid: average-linkage heights are quantised to avgScale
// resolution (see the avgScale comment), so the threshold must be
// quantised identically or a pair whose distance exactly equals it would
// fail to merge. clusterComponent, the one cut behind both Cluster and
// Engine.Recluster, applies it.
func (l Linkage) cutThreshold(maxDist float64) float64 {
	if l == LinkageAverage {
		return math.Round(maxDist*avgScale) / avgScale
	}
	return maxDist
}

// parallelFor runs fn(i) for every i in [0, n) across at most workers
// goroutines (<= 1 runs inline). Work is handed out by an atomic counter,
// so output slots indexed by i are deterministic regardless of worker
// count — the scheduling shared by component clustering in Cluster and
// Engine.Recluster.
func parallelFor(n, workers int, fn func(int)) {
	if workers > n {
		workers = n
	}
	if workers <= 1 {
		for i := 0; i < n; i++ {
			fn(i)
		}
		return
	}
	var next atomic.Int64
	var wg sync.WaitGroup
	for w := 0; w < workers; w++ {
		wg.Add(1)
		go func() {
			defer wg.Done()
			for {
				i := int(next.Add(1)) - 1
				if i >= n {
					return
				}
				fn(i)
			}
		}()
	}
	wg.Wait()
}

// Merge records one agglomeration step of a component's merge tree. Node
// identifiers follow the scipy convention: leaves keep their sorted key ids
// 0..n-1; a component's internal nodes are numbered upward from a base id
// at or above n, in order of non-decreasing merge height.
type Merge struct {
	A, B   int     // the two nodes merged
	Node   int     // identifier of the newly created node
	Height float64 // linkage distance at which the merge happened
}

// Cluster is a group of related configuration settings extracted by Ocasta.
type Cluster struct {
	// Keys are the member settings, sorted.
	Keys []string
	// ModCount is the total number of modification episodes that touched
	// any member key; repair searches low-count clusters first.
	ModCount int
	// LastModified is the most recent modification episode of any member.
	LastModified time.Time
}

// Size returns the number of settings in the cluster.
func (c *Cluster) Size() int { return len(c.Keys) }

// Contains reports whether the cluster includes key.
func (c *Cluster) Contains(key string) bool {
	i := sort.SearchStrings(c.Keys, key)
	return i < len(c.Keys) && c.Keys[i] == key
}

// distStore is the inter-cluster distance state over one component's slots.
// Absent entries are +Inf (never co-modified). Implementations keep the
// state symmetric and track cluster sizes across folds.
type distStore interface {
	// nearest returns the nearest live neighbour of slot i and its
	// distance, breaking distance ties toward the smallest slot index, or
	// (-1, +Inf) when no live neighbour is at finite distance.
	nearest(i int, alive []bool) (int, float64)
	// fold merges slot j into slot i, dropping slot j.
	fold(i, j int, alive []bool)
}

// denseDist is a flat k x k matrix; right for small or well-connected
// components where most pairs are at finite distance.
type denseDist struct {
	k       int
	linkage Linkage
	v       []float64 // stored values (see Linkage.storedValue)
	size    []float64 // leaves per live slot
}

func newDenseDist(ps *PairStats, comp []int, linkage Linkage) *denseDist {
	k := len(comp)
	m := &denseDist{k: k, linkage: linkage, v: make([]float64, k*k), size: make([]float64, k)}
	for i := 0; i < k; i++ {
		m.size[i] = 1
		m.v[i*k+i] = math.Inf(1)
		for j := i + 1; j < k; j++ {
			vv := linkage.storedValue(DistanceFromCorrelation(ps.correlationByIndex(comp[i], comp[j])))
			m.v[i*k+j] = vv
			m.v[j*k+i] = vv
		}
	}
	return m
}

func (m *denseDist) dist(i, j int) float64 {
	v := m.v[i*m.k+j]
	if m.linkage == LinkageAverage {
		return v / (avgScale * m.size[i] * m.size[j])
	}
	return v
}

func (m *denseDist) nearest(i int, alive []bool) (int, float64) {
	best, bestD := -1, math.Inf(1)
	for j := 0; j < m.k; j++ {
		if j == i || !alive[j] {
			continue
		}
		if dd := m.dist(i, j); dd < bestD { // ascending scan: ties keep the smallest index
			best, bestD = j, dd
		}
	}
	if math.IsInf(bestD, 1) {
		return -1, bestD
	}
	return best, bestD
}

func (m *denseDist) fold(i, j int, alive []bool) {
	ri := m.v[i*m.k : (i+1)*m.k]
	rj := m.v[j*m.k : (j+1)*m.k]
	for x := 0; x < m.k; x++ {
		if !alive[x] || x == i || x == j {
			continue
		}
		nv := m.linkage.combine(ri[x], rj[x])
		ri[x] = nv
		m.v[x*m.k+i] = nv
		m.v[x*m.k+j] = math.Inf(1)
	}
	ri[j] = math.Inf(1)
	rj[i] = math.Inf(1)
	m.size[i] += m.size[j]
}

// sparseDist stores only finite entries, one map per slot. A component whose
// co-modification graph is sparse never materialises the k x k matrix of
// mostly-infinite distances: memory and per-merge work follow the number of
// co-modified pairs instead of k².
type sparseDist struct {
	linkage Linkage
	rows    []map[int]float64
	size    []float64
}

func newSparseDist(ps *PairStats, comp []int, adj [][]int, linkage Linkage) *sparseDist {
	k := len(comp)
	slot := make(map[int]int, k)
	for i, g := range comp {
		slot[g] = i
	}
	m := &sparseDist{linkage: linkage, rows: make([]map[int]float64, k), size: make([]float64, k)}
	for i := range m.rows {
		m.size[i] = 1
		m.rows[i] = make(map[int]float64, len(adj[comp[i]]))
	}
	for i, g := range comp {
		for _, nb := range adj[g] {
			j := slot[nb]
			if j <= i {
				continue
			}
			vv := linkage.storedValue(DistanceFromCorrelation(ps.correlationByIndex(g, nb)))
			m.rows[i][j] = vv
			m.rows[j][i] = vv
		}
	}
	return m
}

func (m *sparseDist) nearest(i int, alive []bool) (int, float64) {
	best, bestD := -1, math.Inf(1)
	si := m.size[i]
	for j, vv := range m.rows[i] {
		if !alive[j] {
			continue
		}
		dd := vv
		if m.linkage == LinkageAverage {
			dd = vv / (avgScale * si * m.size[j])
		}
		// Map iteration order is random, so the smallest-index tie-break
		// must be explicit.
		if dd < bestD || (dd == bestD && (best < 0 || j < best)) {
			best, bestD = j, dd
		}
	}
	return best, bestD
}

func (m *sparseDist) fold(i, j int, alive []bool) {
	ri, rj := m.rows[i], m.rows[j]
	delete(ri, j)
	delete(rj, i)
	if m.linkage == LinkageSingle {
		// min(d, +Inf) is finite: the merged row is the union of the two
		// neighbour sets.
		for x, vj := range rj {
			if vi, ok := ri[x]; !ok || vj < vi {
				ri[x] = vj
				m.rows[x][i] = vj
			}
			delete(m.rows[x], j)
		}
	} else {
		// Complete and average propagate +Inf: the merged row is the
		// intersection of the two neighbour sets.
		for x, vi := range ri {
			vj, ok := rj[x]
			if !ok {
				delete(ri, x)
				delete(m.rows[x], i)
				continue
			}
			nv := m.linkage.combine(vi, vj)
			ri[x] = nv
			m.rows[x][i] = nv
		}
		for x := range rj {
			delete(m.rows[x], j)
		}
	}
	m.rows[j] = nil
	m.size[i] += m.size[j]
}

// distModeAuto and friends pick the distance representation per component;
// tests pin the mode to exercise both code paths.
const (
	distModeAuto uint8 = iota
	distModeDense
	distModeSparse
)

// Clusterer runs hierarchical agglomerative clustering over pair statistics.
type Clusterer struct {
	linkage     Linkage
	parallelism int
	distMode    uint8
}

// NewClusterer returns a clusterer with the given linkage criterion;
// an unknown linkage falls back to the paper's complete linkage.
func NewClusterer(linkage Linkage) *Clusterer {
	if linkage != LinkageSingle && linkage != LinkageAverage {
		linkage = LinkageComplete
	}
	return &Clusterer{linkage: linkage}
}

// Linkage returns the configured linkage criterion.
func (c *Clusterer) Linkage() Linkage { return c.linkage }

// WithParallelism sets how many connected components of the co-modification
// graph are clustered concurrently and returns the clusterer for chaining.
// n <= 0 (the default) uses all available CPUs. The clustering is identical
// at every setting: components are independent and each one's clusters land
// in a fixed output slot.
func (c *Clusterer) WithParallelism(n int) *Clusterer {
	c.parallelism = n
	return c
}

// Parallelism returns the configured worker bound; 0 means all CPUs.
func (c *Clusterer) Parallelism() int {
	if c.parallelism < 0 {
		return 0
	}
	return c.parallelism
}

// workerCount resolves the configured parallelism to a concrete worker
// count.
func (c *Clusterer) workerCount() int {
	if c.parallelism > 0 {
		return c.parallelism
	}
	return runtime.GOMAXPROCS(0)
}

// rawMerge is a merge recorded during the nearest-neighbour chain, before
// heights are sorted and node ids assigned: slot b was folded into slot a.
type rawMerge struct {
	a, b int
	h    float64
}

// chainComponent clusters one connected component with the
// nearest-neighbour-chain algorithm: grow a chain of nearest neighbours
// until two clusters are mutually nearest, merge them, and continue from
// the remaining chain. Complete, single, and average linkage are all
// reducible, so every reciprocal-nearest pair is safe to merge and the
// whole component costs O(k²) time with O(k) scratch per step instead of
// the O(k³) repeated full-matrix scans of the naive algorithm.
func (c *Clusterer) chainComponent(ps *PairStats, comp []int, adj [][]int, base int) []Merge {
	k := len(comp)
	store := c.newStore(ps, comp, adj)
	alive := make([]bool, k)
	finished := make([]bool, k) // live but at infinite distance from every live slot
	for i := range alive {
		alive[i] = true
	}
	raw := make([]rawMerge, 0, k-1)
	chain := make([]int, 0, k)
	live, start := k, 0
	for live > 1 {
		// Drop chain entries invalidated by earlier merges.
		for len(chain) > 0 && !alive[chain[len(chain)-1]] {
			chain = chain[:len(chain)-1]
		}
		if len(chain) > k {
			// Tie plateau revisited a chain slot; restart the walk (a
			// fresh chain always reaches a reciprocal pair).
			chain = chain[:0]
		}
		if len(chain) == 0 {
			for start < k && (!alive[start] || finished[start]) {
				start++
			}
			if start == k {
				break // every live cluster is isolated
			}
			chain = append(chain, start)
		}
		top := chain[len(chain)-1]
		j, dj := store.nearest(top, alive)
		if j < 0 {
			// No finite distance remains: this cluster is done merging.
			finished[top] = true
			chain = chain[:len(chain)-1]
			continue
		}
		if len(chain) >= 2 && chain[len(chain)-2] == j {
			// Reciprocal nearest neighbours: merge into the smaller slot
			// so ties resolve exactly like the naive row-major scan.
			a, b := j, top
			if b < a {
				a, b = b, a
			}
			store.fold(a, b, alive)
			raw = append(raw, rawMerge{a: a, b: b, h: dj})
			alive[b] = false
			live--
			chain = chain[:len(chain)-2]
			continue
		}
		chain = append(chain, j)
	}
	return relabel(raw, comp, base)
}

// newStore picks the distance representation for one component: dense for
// small or well-connected components, sparse otherwise.
func (c *Clusterer) newStore(ps *PairStats, comp []int, adj [][]int) distStore {
	mode := c.distMode
	if mode == distModeAuto {
		k := len(comp)
		edges := 0
		for _, g := range comp {
			edges += len(adj[g])
		}
		edges /= 2
		if k <= 64 || edges*2 >= k*(k-1)/2 {
			mode = distModeDense
		} else {
			mode = distModeSparse
		}
	}
	if mode == distModeDense {
		return newDenseDist(ps, comp, c.linkage)
	}
	return newSparseDist(ps, comp, adj, c.linkage)
}

// relabel orders a component's chain merges by non-decreasing height and
// assigns node ids sequentially from base. The chain emits merges in
// dependency order, and reducible linkages are monotone along any
// dependency path, so a stable sort by height keeps every merge after the
// merges that built its operands.
func relabel(raw []rawMerge, comp []int, base int) []Merge {
	if len(raw) == 0 {
		return nil
	}
	sort.SliceStable(raw, func(i, j int) bool { return raw[i].h < raw[j].h })
	nodeOf := make([]int, len(comp))
	for i, leaf := range comp {
		nodeOf[i] = leaf
	}
	merges := make([]Merge, len(raw))
	next := base
	for i, rm := range raw {
		merges[i] = Merge{A: nodeOf[rm.a], B: nodeOf[rm.b], Node: next, Height: rm.h}
		nodeOf[rm.a] = next
		next++
	}
	return merges
}

// Cluster runs HAC over the keys in ps and cuts the merge tree at
// threshold (a distance; use ThresholdFromCorrelation to derive it from a
// correlation value). Keys that were never co-modified sit in different
// connected components of the co-modification graph and can never merge
// (their distance is infinite), so each component is clustered and cut on
// its own, concurrently (see WithParallelism) — the same per-component
// pass Engine.Recluster runs on its dirty components. A key that merges
// with nothing at or below the threshold comes back as a singleton
// cluster. The result is ordered by first key, identical at every
// parallelism, and never nil.
func (c *Clusterer) Cluster(ps *PairStats, threshold float64) []Cluster {
	adj := ps.adjacency()
	comps := ps.components(adj)
	results := make([][]Cluster, len(comps))
	parallelFor(len(comps), c.workerCount(), func(i int) {
		results[i] = c.clusterComponent(ps, comps[i], adj, threshold)
	})
	clusters := make([]Cluster, 0, len(comps))
	for _, r := range results {
		clusters = append(clusters, r...)
	}
	// First keys are unique across clusters (clusters partition the key
	// universe), so this order is total.
	sort.Slice(clusters, func(i, j int) bool { return clusters[i].Keys[0] < clusters[j].Keys[0] })
	return clusters
}

// clusterComponent runs HAC on one connected component and cuts it at
// maxDist, returning the component's clusters (unsorted; callers order
// the combined result). Cutting per component yields exactly the clusters
// a whole-forest cut does, because merges never cross components
// (TestClusterMatchesDendrogramCut checks it against the reference
// dendrogram). It serves both Cluster and Engine.Recluster's
// dirty-component fast path — there only components whose statistics
// changed pay for it.
func (c *Clusterer) clusterComponent(ps *PairStats, comp []int, adj [][]int, maxDist float64) []Cluster {
	maxDist = c.linkage.cutThreshold(maxDist)
	k := len(comp)
	if k == 1 {
		return []Cluster{leafCluster(ps, comp[0])}
	}
	base := ps.NumKeys()
	merges := c.chainComponent(ps, comp, adj, base)

	// Scoped union-find over the component's node ids: leaves comp[0..k-1]
	// map to slots 0..k-1, internal nodes base+j to slots k+j.
	slotOf := func(node int) int {
		if node >= base {
			return k + (node - base)
		}
		i := sort.SearchInts(comp, node)
		return i
	}
	parent := make([]int, 2*k-1)
	for i := range parent {
		parent[i] = i
	}
	var find func(int) int
	find = func(x int) int {
		for parent[x] != x {
			parent[x] = parent[parent[x]]
			x = parent[x]
		}
		return x
	}
	for _, m := range merges {
		if m.Height > maxDist {
			continue
		}
		ra, rb := find(slotOf(m.A)), find(slotOf(m.B))
		rn := slotOf(m.Node)
		parent[ra] = rn
		parent[rb] = rn
	}
	members := make(map[int][]int, k)
	for i, leaf := range comp {
		root := find(i)
		members[root] = append(members[root], leaf)
	}
	clusters := make([]Cluster, 0, len(members))
	for _, leaves := range members {
		cl := Cluster{Keys: make([]string, 0, len(leaves))}
		var last int64
		for _, leaf := range leaves {
			cl.Keys = append(cl.Keys, ps.keyBySorted(leaf))
			cl.ModCount += ps.ep[ps.perm[leaf]]
			if lm := ps.last[ps.perm[leaf]]; lm > last {
				last = lm
			}
		}
		sort.Strings(cl.Keys)
		if last > 0 {
			cl.LastModified = time.Unix(0, last).UTC()
		}
		clusters = append(clusters, cl)
	}
	return clusters
}

// leafCluster builds the singleton cluster of one sorted-space leaf id.
func leafCluster(ps *PairStats, leaf int) Cluster {
	id := ps.perm[leaf]
	cl := Cluster{Keys: []string{ps.syms[id]}, ModCount: ps.ep[id]}
	if ps.last[id] > 0 {
		cl.LastModified = time.Unix(0, ps.last[id]).UTC()
	}
	return cl
}

// SortForRecovery orders clusters the way Ocasta's repair tool searches
// them: by ascending modification count (changes to configuration settings
// are infrequent, so rarely-modified clusters are checked first), breaking
// ties toward more recently modified clusters, then by first key for
// determinism.
func SortForRecovery(clusters []Cluster) {
	sort.SliceStable(clusters, func(i, j int) bool {
		a, b := &clusters[i], &clusters[j]
		if a.ModCount != b.ModCount {
			return a.ModCount < b.ModCount
		}
		if !a.LastModified.Equal(b.LastModified) {
			return a.LastModified.After(b.LastModified)
		}
		return a.Keys[0] < b.Keys[0]
	})
}

// MultiKey filters to clusters with more than one setting — the clusters
// Table II of the paper evaluates.
func MultiKey(clusters []Cluster) []Cluster {
	out := make([]Cluster, 0, len(clusters))
	for _, cl := range clusters {
		if cl.Size() > 1 {
			out = append(out, cl)
		}
	}
	return out
}

// AverageSize returns the mean cluster size (Fig 3 of the paper); 0 for an
// empty slice.
func AverageSize(clusters []Cluster) float64 {
	if len(clusters) == 0 {
		return 0
	}
	total := 0
	for _, cl := range clusters {
		total += cl.Size()
	}
	return float64(total) / float64(len(clusters))
}
