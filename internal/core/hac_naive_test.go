package core

import (
	"math"
	"sort"
	"time"
)

// This file keeps two reference implementations for tests and benchmarks.
//
// The whole-forest Dendrogram builds one merge tree over every key and Cut
// cuts it with one union-find, independently of the per-component cut in
// clusterComponent: Cluster and Engine.Recluster must return exactly what
// Cut returns (TestClusterMatchesDendrogramCut).
//
// The original closest-pair HAC re-scans a dense k x k distance matrix to
// find the globally closest pair before every merge — O(k³) per connected
// component — so tests can check the nearest-neighbour-chain clusterer
// (hac.go) against it: the two must produce cut-equivalent partitions for
// every linkage and threshold.

// Dendrogram is the full merge tree produced by HAC. Because complete,
// single, and average linkage are all monotone (merge heights never
// decrease), cutting the dendrogram at a threshold is equivalent to
// stopping the clustering at that threshold, so one dendrogram supports
// arbitrarily many threshold sweeps (used by the Fig 3b bench).
type Dendrogram struct {
	keys    []string
	merges  []Merge
	linkage Linkage
	nodes   int // total node ids reserved (leaves + per-component ranges)
	// modCount / lastMod carry per-leaf episode statistics through to the
	// clusters produced by Cut.
	modCount []int
	lastMod  []int64
}

// Keys returns the leaf keys, sorted, as indexed by leaf node identifiers.
func (d *Dendrogram) Keys() []string {
	out := make([]string, len(d.keys))
	copy(out, d.keys)
	return out
}

// Merges returns the merge sequence, ordered by component and then by
// non-decreasing height within each component.
func (d *Dendrogram) Merges() []Merge {
	out := make([]Merge, len(d.merges))
	copy(out, d.merges)
	return out
}

// Cut partitions the leaves using every merge with height <= maxDist.
// Leaves that never merged below the threshold come back as singleton
// clusters. Clusters are returned in deterministic order (by first key).
func (d *Dendrogram) Cut(maxDist float64) []Cluster {
	maxDist = d.linkage.cutThreshold(maxDist)
	n := len(d.keys)
	size := n + len(d.merges)
	if d.nodes > size {
		size = d.nodes
	}
	parent := make([]int, size)
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
	for _, m := range d.merges {
		if m.Height > maxDist {
			continue
		}
		ra, rb := find(m.A), find(m.B)
		parent[ra] = m.Node
		parent[rb] = m.Node
	}
	members := make(map[int][]int)
	for leaf := 0; leaf < n; leaf++ {
		root := find(leaf)
		members[root] = append(members[root], leaf)
	}
	clusters := make([]Cluster, 0, len(members))
	for _, leaves := range members {
		c := Cluster{Keys: make([]string, 0, len(leaves))}
		var last int64
		for _, leaf := range leaves {
			c.Keys = append(c.Keys, d.keys[leaf])
			c.ModCount += d.modCount[leaf]
			if d.lastMod[leaf] > last {
				last = d.lastMod[leaf]
			}
		}
		sort.Strings(c.Keys)
		if last > 0 {
			c.LastModified = time.Unix(0, last).UTC()
		}
		clusters = append(clusters, c)
	}
	sort.Slice(clusters, func(i, j int) bool { return clusters[i].Keys[0] < clusters[j].Keys[0] })
	return clusters
}

// componentBases reserves a contiguous internal-node-id range per component
// (k-1 ids for k leaves) and returns the per-component base ids plus the
// total number of node ids.
func componentBases(n int, comps [][]int) ([]int, int) {
	bases := make([]int, len(comps))
	next := n
	for i, comp := range comps {
		bases[i] = next
		if len(comp) > 1 {
			next += len(comp) - 1
		}
	}
	return bases, next
}

// Dendrogram computes the full merge tree of the keys in ps. Keys that were
// never co-modified sit in different connected components of the
// co-modification graph and are never merged (their pairwise distance is
// infinite), so the result is in general a forest. Independent components
// are clustered concurrently (see WithParallelism); output is deterministic
// regardless of worker count.
func (c *Clusterer) Dendrogram(ps *PairStats) *Dendrogram {
	n := ps.NumKeys()
	d := &Dendrogram{
		keys:     ps.Keys(),
		linkage:  c.linkage,
		modCount: make([]int, n),
		lastMod:  make([]int64, n),
	}
	ps.fillLeafStats(d.modCount, d.lastMod)
	adj := ps.adjacency()
	comps := ps.components(adj)
	bases, nodes := componentBases(n, comps)
	d.nodes = nodes

	work := make([]int, 0, len(comps))
	for i, comp := range comps {
		if len(comp) >= 2 {
			work = append(work, i)
		}
	}
	results := make([][]Merge, len(comps))
	parallelFor(len(work), c.workerCount(), func(t int) {
		i := work[t]
		results[i] = c.chainComponent(ps, comps[i], adj, bases[i])
	})
	for _, ms := range results {
		d.merges = append(d.merges, ms...)
	}
	return d
}

// fillLeafStats copies per-key episode counts and last-modification times
// into sorted-space-indexed slices (the per-leaf statistics a dendrogram
// or cluster carries).
func (ps *PairStats) fillLeafStats(mod []int, last []int64) {
	ps.ensureSorted()
	for i, id := range ps.perm {
		mod[i] = ps.ep[id]
		last[i] = ps.last[id]
	}
}

// dendrogramNaive is the reference counterpart of Clusterer.Dendrogram. It
// uses the same per-component node-id ranges so the two merge trees are
// directly comparable, but always clusters sequentially with dense
// matrices.
func (c *Clusterer) dendrogramNaive(ps *PairStats) *Dendrogram {
	n := ps.NumKeys()
	d := &Dendrogram{
		keys:     ps.Keys(),
		linkage:  c.linkage,
		modCount: make([]int, n),
		lastMod:  make([]int64, n),
	}
	ps.fillLeafStats(d.modCount, d.lastMod)
	comps := ps.components(ps.adjacency())
	bases, nodes := componentBases(n, comps)
	d.nodes = nodes
	for i, comp := range comps {
		if len(comp) < 2 {
			continue
		}
		c.hacNaive(ps, comp, d, bases[i])
	}
	return d
}

// clusterNaive is the reference counterpart of Clusterer.Cluster.
func (c *Clusterer) clusterNaive(ps *PairStats, threshold float64) []Cluster {
	return c.dendrogramNaive(ps).Cut(threshold)
}

// hacNaive runs agglomerative clustering within one connected component
// using a full-matrix closest-pair scan per merge and a Lance-Williams
// distance-matrix update, assigning internal node ids from base.
func (c *Clusterer) hacNaive(ps *PairStats, comp []int, d *Dendrogram, base int) {
	k := len(comp)
	type active struct {
		node int // dendrogram node id
		size int // number of leaves
	}
	rows := make([]active, k)
	for i, leaf := range comp {
		rows[i] = active{node: leaf, size: 1}
	}
	// val is a symmetric k x k matrix of stored values over active rows:
	// plain distances for complete/single linkage, scaled integer
	// member-pair distance sums for average linkage (the same convention
	// as the chain clusterer's stores, so heights compare bit-exactly).
	val := make([][]float64, k)
	for i := range val {
		val[i] = make([]float64, k)
	}
	for i := 0; i < k; i++ {
		for j := i + 1; j < k; j++ {
			vv := c.linkage.storedValue(DistanceFromCorrelation(ps.correlationByIndex(comp[i], comp[j])))
			val[i][j] = vv
			val[j][i] = vv
		}
	}
	dist := func(i, j int) float64 {
		if c.linkage == LinkageAverage {
			return val[i][j] / (avgScale * float64(rows[i].size) * float64(rows[j].size))
		}
		return val[i][j]
	}
	alive := make([]bool, k)
	for i := range alive {
		alive[i] = true
	}
	nextNode := base
	remaining := k
	for remaining > 1 {
		// Find the closest live pair; ties break toward the smallest
		// indices for determinism.
		bi, bj, best := -1, -1, math.Inf(1)
		for i := 0; i < k; i++ {
			if !alive[i] {
				continue
			}
			for j := i + 1; j < k; j++ {
				if !alive[j] {
					continue
				}
				if dd := dist(i, j); dd < best {
					bi, bj, best = i, j, dd
				}
			}
		}
		if math.IsInf(best, 1) {
			break // no finite merge remains in this component
		}
		d.merges = append(d.merges, Merge{
			A: rows[bi].node, B: rows[bj].node, Node: nextNode, Height: best,
		})
		// Fold bj into bi.
		for m := 0; m < k; m++ {
			if !alive[m] || m == bi || m == bj {
				continue
			}
			nv := c.linkage.combine(val[bi][m], val[bj][m])
			val[bi][m] = nv
			val[m][bi] = nv
		}
		rows[bi] = active{node: nextNode, size: rows[bi].size + rows[bj].size}
		alive[bj] = false
		nextNode++
		remaining--
	}
}
