package core

import (
	"fmt"
	"math"
	"math/rand"
	"reflect"
	"strings"
	"testing"

	"ocasta/internal/trace"
)

// canonical renders a partition as a comparable string.
func canonical(clusters []Cluster) string {
	parts := make([]string, len(clusters))
	for i, c := range clusters {
		parts[i] = strings.Join(c.Keys, ",")
	}
	return strings.Join(parts, "|")
}

// randomGroups produces a varied co-modification structure: chains (sparse
// connected components), cliques (dense components), random subsets, and
// repeated groups so tied correlations — the hard case for HAC
// equivalence — are common.
func randomGroups(rng *rand.Rand) []trace.Group {
	nKeys := rng.Intn(38) + 2
	keys := make([]string, nKeys)
	for i := range keys {
		keys[i] = fmt.Sprintf("k%02d", i)
	}
	var lists [][]string
	nGroups := rng.Intn(40) + 1
	for g := 0; g < nGroups; g++ {
		switch rng.Intn(4) {
		case 0: // chain link: two adjacent keys
			i := rng.Intn(nKeys)
			j := (i + 1) % nKeys
			lists = append(lists, []string{keys[i], keys[j]})
		case 1: // small clique
			size := rng.Intn(4) + 2
			start := rng.Intn(nKeys)
			cl := make([]string, 0, size)
			for s := 0; s < size; s++ {
				cl = append(cl, keys[(start+s)%nKeys])
			}
			lists = append(lists, cl)
		case 2: // random subset
			var sub []string
			for _, k := range keys {
				if rng.Intn(6) == 0 {
					sub = append(sub, k)
				}
			}
			if len(sub) == 0 {
				sub = []string{keys[rng.Intn(nKeys)]}
			}
			lists = append(lists, sub)
		default: // repeat an earlier group to force exact tied correlations
			if len(lists) > 0 {
				lists = append(lists, lists[rng.Intn(len(lists))])
			} else {
				lists = append(lists, []string{keys[0]})
			}
		}
	}
	return groupsOf(lists...)
}

// TestChainMatchesNaiveProperty is the equivalence property test: across
// random co-modification graphs (sparse and dense), all three linkages,
// random and boundary thresholds, both distance representations, and the
// parallel path, the nearest-neighbour-chain clusterer must produce the
// same flat partitions as the naive closest-pair reference.
func TestChainMatchesNaiveProperty(t *testing.T) {
	rng := rand.New(rand.NewSource(42)) // fixed seed: deterministic cases
	linkages := []Linkage{LinkageComplete, LinkageSingle, LinkageAverage}
	for iter := 0; iter < 1000; iter++ {
		groups := randomGroups(rng)
		ps := NewPairStats(groups)
		link := linkages[iter%3]
		thresholds := []float64{
			DefaultThreshold,
			1,
			math.Inf(1),
			0.25 + rng.Float64()*1.75,
		}
		want := make([]string, len(thresholds))
		naive := NewClusterer(link)
		for ti, th := range thresholds {
			want[ti] = canonical(naive.clusterNaive(ps, th))
		}
		for _, mode := range []uint8{distModeDense, distModeSparse} {
			for _, par := range []int{1, 4} {
				c := NewClusterer(link).WithParallelism(par)
				c.distMode = mode
				d := c.Dendrogram(ps)
				for ti, th := range thresholds {
					got := canonical(d.Cut(th))
					if got != want[ti] {
						t.Fatalf("iter %d link %v mode %d par %d threshold %v:\nchain %s\nnaive %s",
							iter, link, mode, par, th, got, want[ti])
					}
				}
			}
		}
	}
}

// TestChainMergeHeightsMatchNaive checks the stronger dendrogram-level
// claim on distinct-distance inputs: identical merge lists, node ids
// included.
func TestChainMergeHeightsMatchNaive(t *testing.T) {
	// Distinct pairwise correlations: episode counts chosen so no two pairs
	// tie. a,b co-modified 6x; b,c 3x; c,d 2x; a alone 2x; d alone 5x.
	var lists [][]string
	add := func(n int, ks ...string) {
		for i := 0; i < n; i++ {
			lists = append(lists, ks)
		}
	}
	add(6, "a", "b")
	add(3, "b", "c")
	add(2, "c", "d")
	add(2, "a")
	add(5, "d")
	ps := NewPairStats(groupsOf(lists...))
	for _, link := range []Linkage{LinkageComplete, LinkageSingle, LinkageAverage} {
		c := NewClusterer(link)
		got := c.Dendrogram(ps).Merges()
		want := c.dendrogramNaive(ps).Merges()
		if len(got) != len(want) {
			t.Fatalf("%v: %d merges, naive %d", link, len(got), len(want))
		}
		for i := range got {
			if got[i] != want[i] {
				t.Errorf("%v merge %d: chain %+v, naive %+v", link, i, got[i], want[i])
			}
		}
	}
}

// TestChainParallelismDeterminism runs the same clustering at several
// worker counts and demands byte-identical dendrograms.
func TestChainParallelismDeterminism(t *testing.T) {
	rng := rand.New(rand.NewSource(7))
	ps := NewPairStats(randomGroups(rng))
	ref := NewClusterer(LinkageComplete).WithParallelism(1).Dendrogram(ps)
	for _, par := range []int{0, 2, 3, 8} {
		d := NewClusterer(LinkageComplete).WithParallelism(par).Dendrogram(ps)
		got, want := d.Merges(), ref.Merges()
		if len(got) != len(want) {
			t.Fatalf("parallelism %d: %d merges, want %d", par, len(got), len(want))
		}
		for i := range got {
			if got[i] != want[i] {
				t.Fatalf("parallelism %d merge %d: %+v != %+v", par, i, got[i], want[i])
			}
		}
	}
}

// Regression: a pair whose distance exactly equals the cut threshold must
// merge under average linkage despite the fixed-point quantisation of
// average-linkage heights (the threshold is quantised identically).
func TestAverageLinkageExactThreshold(t *testing.T) {
	// a,b co-modified in 3 of 4 episodes each: corr = 3/4 + 3/4 = 1.5,
	// distance exactly 2/3.
	ps := NewPairStats(groupsOf(
		[]string{"a", "b"},
		[]string{"a", "b"},
		[]string{"a", "b"},
		[]string{"a"},
		[]string{"b"},
	))
	th := ThresholdFromCorrelation(1.5)
	c := NewClusterer(LinkageAverage)
	for name, clusters := range map[string][]Cluster{
		"chain": c.Cluster(ps, th),
		"naive": c.clusterNaive(ps, th),
	} {
		if len(clusters) != 1 || clusters[0].Size() != 2 {
			t.Errorf("%s: got %+v, want one {a,b} cluster", name, clusters)
		}
	}
}

// TestClusterMatchesDendrogramCut pins Clusterer.Cluster to the
// whole-forest reference: over random statistics (empty ones included),
// all three linkages, both distance representations and several
// thresholds, Cluster must return exactly — counts, timestamps, order and
// non-nil-ness included — what cutting the chain dendrogram and the naive
// dendrogram returns. Cluster cuts per component; this is the test that
// checks that cut against an independent one.
func TestClusterMatchesDendrogramCut(t *testing.T) {
	rng := rand.New(rand.NewSource(1711))
	linkages := []Linkage{LinkageComplete, LinkageSingle, LinkageAverage}
	for iter := 0; iter < 300; iter++ {
		ps := NewPairStats(nil)
		if iter%25 != 0 {
			ps = NewPairStats(randomGroups(rng))
		}
		link := linkages[iter%3]
		thresholds := []float64{0, DefaultThreshold, 1, math.Inf(1), 0.25 + rng.Float64()*1.75}
		for _, mode := range []uint8{distModeDense, distModeSparse} {
			c := NewClusterer(link).WithParallelism(1 + iter%4)
			c.distMode = mode
			chain, naive := c.Dendrogram(ps), c.dendrogramNaive(ps)
			for _, th := range thresholds {
				got := c.Cluster(ps, th)
				if got == nil {
					t.Fatalf("iter %d: Cluster returned nil", iter)
				}
				if want := chain.Cut(th); !reflect.DeepEqual(got, want) {
					t.Fatalf("iter %d link %v mode %d threshold %v: Cluster != Dendrogram.Cut\n got %+v\nwant %+v",
						iter, link, mode, th, got, want)
				}
				if want := naive.Cut(th); !reflect.DeepEqual(got, want) {
					t.Fatalf("iter %d link %v mode %d threshold %v: Cluster != naive Cut\n got %+v\nwant %+v",
						iter, link, mode, th, got, want)
				}
			}
		}
	}
}
