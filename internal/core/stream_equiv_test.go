package core

import (
	"fmt"
	"math/rand"
	"reflect"
	"sort"
	"sync"
	"testing"
	"time"

	"ocasta/internal/trace"
)

// This file holds the streaming-vs-one-shot equivalence property tests:
// the incremental engine (horizon-bounded out-of-order arrival, periodic
// dirty-component reclusters) must produce byte-identical output to the
// one-shot pipeline (StatsOf → Clusterer.Cluster) on the same event set —
// the same contract hac_equiv_test.go enforces between the chain and naive
// clusterers. The windower itself is checked against a sort-and-scan
// reference here (TestStreamGroupsMatchBatch) and against the batch
// oracle in package trace.

var streamT0 = time.Date(2013, 9, 1, 12, 0, 0, 0, time.UTC)

// streamRandomTrace builds a multi-app write trace with second-granular
// timestamps, heavy window collisions, repeated keys, and deletes.
func streamRandomTrace(rng *rand.Rand, events int) *trace.Trace {
	apps := []string{"alpha", "beta", "gamma", "delta"}
	tr := &trace.Trace{Name: "equiv"}
	span := events/3 + 1
	for i := 0; i < events; i++ {
		op := trace.OpWrite
		if rng.Intn(12) == 0 {
			op = trace.OpDelete
		}
		app := apps[rng.Intn(len(apps))]
		tr.Events = append(tr.Events, trace.Event{
			Time:  streamT0.Add(time.Duration(rng.Intn(span)) * time.Second),
			Op:    op,
			Store: trace.StoreRegistry,
			App:   app,
			Key:   fmt.Sprintf("%s/k%02d", app, rng.Intn(16)),
			Value: "v",
		})
	}
	tr.SortByTime()
	return tr
}

// shuffleWithinHorizon perturbs event order, keeping every event's
// displacement in time strictly under horizon (adjacent swaps only touch
// pairs whose timestamps differ by less than the horizon).
func shuffleWithinHorizon(rng *rand.Rand, tr *trace.Trace, horizon time.Duration) *trace.Trace {
	out := tr.Clone()
	evs := out.Events
	for pass := 0; pass < 4; pass++ {
		for i := len(evs) - 1; i > 0; i-- {
			if rng.Intn(2) == 0 {
				continue
			}
			d := evs[i].Time.Sub(evs[i-1].Time)
			if d < 0 {
				d = -d
			}
			if d < horizon {
				evs[i], evs[i-1] = evs[i-1], evs[i]
			}
		}
	}
	return out
}

// oneShotClusters runs the one-shot pipeline over a trace: StatsOf, or —
// for chained mode, which StatsOf does not offer — the same time-sorted
// push through a zero-horizon StreamWindower, then Cluster.
func oneShotClusters(tr *trace.Trace, window time.Duration, mode trace.GroupMode, linkage Linkage, corrThreshold float64) (*PairStats, []Cluster) {
	var ps *PairStats
	if mode == trace.GroupAnchored {
		ps = StatsOf(tr.Events, window)
	} else {
		sorted := tr.Clone()
		sorted.SortByTime()
		ps = NewPairStats(nil)
		sw := trace.NewStreamWindower(window, mode, 0, func(g *trace.Group) { ps.Add(*g) })
		for _, ev := range sorted.Events {
			sw.Push(ev)
		}
		sw.Flush()
	}
	return ps, NewClusterer(linkage).Cluster(ps, ThresholdFromCorrelation(corrThreshold))
}

func comparePairStats(t *testing.T, tag string, tr *trace.Trace, want, stream *PairStats) {
	t.Helper()
	if want.NumGroups() != stream.NumGroups() {
		t.Fatalf("%s: NumGroups one-shot=%d stream=%d", tag, want.NumGroups(), stream.NumGroups())
	}
	bk, sk := want.Keys(), stream.Keys()
	if !reflect.DeepEqual(bk, sk) {
		t.Fatalf("%s: key universes differ:\none-shot %v\nstream %v", tag, bk, sk)
	}
	for _, a := range bk {
		if be, se := want.Episodes(a), stream.Episodes(a); be != se {
			t.Fatalf("%s: Episodes(%s) one-shot=%d stream=%d", tag, a, be, se)
		}
	}
	if want.NumPairs() != stream.NumPairs() {
		t.Fatalf("%s: NumPairs one-shot=%d stream=%d", tag, want.NumPairs(), stream.NumPairs())
	}
	for i := 0; i < len(bk); i++ {
		for j := i + 1; j < len(bk); j++ {
			if bc, sc := want.CoEpisodes(bk[i], bk[j]), stream.CoEpisodes(bk[i], bk[j]); bc != sc {
				t.Fatalf("%s: CoEpisodes(%s,%s) one-shot=%d stream=%d", tag, bk[i], bk[j], bc, sc)
			}
		}
	}
}

// TestStreamBatchEquivalence is the headline property test: for random
// traces, both group modes, in-order and horizon-bounded out-of-order
// arrival, the streaming engine's groups, pair statistics, and clusters
// must equal the one-shot pipeline's exactly. Reclustering is exercised both
// incrementally (periodic mid-stream cuts marking most components clean)
// and as one full cut from scratch.
func TestStreamBatchEquivalence(t *testing.T) {
	rng := rand.New(rand.NewSource(42))
	const horizon = 4 * time.Second
	linkages := []Linkage{LinkageComplete, LinkageSingle, LinkageAverage}
	for trial := 0; trial < 120; trial++ {
		tr := streamRandomTrace(rng, 80+rng.Intn(200))
		mode := trace.GroupAnchored
		if trial%2 == 1 {
			mode = trace.GroupChained
		}
		linkage := linkages[trial%len(linkages)]
		threshold := []float64{2, 1.5, 1}[trial%3]
		window := time.Duration(trial%3) * time.Second

		wantPS, wantClusters := oneShotClusters(tr, window, mode, linkage, threshold)

		// EngineConfig expresses the zero-second window as a negative value
		// (0 selects the default).
		engWindow := window
		if engWindow == 0 {
			engWindow = -1
		}

		feed := tr
		if trial%2 == 0 {
			feed = shuffleWithinHorizon(rng, tr, horizon)
		}

		eng := NewEngine(EngineConfig{
			Window:      engWindow,
			Mode:        mode,
			Horizon:     horizon,
			Linkage:     linkage,
			Threshold:   threshold,
			Parallelism: 1 + trial%3,
		})
		// Interleave pushes with periodic reclusters so the dirty-component
		// path actually runs mid-stream (its correctness at every
		// intermediate point is implied by the final equality: a stale
		// cache entry spliced in would corrupt the final cut).
		step := 13 + trial%17
		for i, ev := range feed.Events {
			eng.Push(ev)
			if i%step == step-1 {
				eng.Recluster()
			}
		}
		eng.Flush()
		gotClusters := eng.Recluster()

		tag := fmt.Sprintf("trial %d (mode=%v window=%v linkage=%v thr=%v)", trial, mode, window, linkage, threshold)
		if eng.NumGroups() != wantPS.NumGroups() {
			t.Fatalf("%s: groups folded=%d one-shot=%d", tag, eng.NumGroups(), wantPS.NumGroups())
		}
		func() {
			eng.mu.Lock()
			defer eng.mu.Unlock()
			comparePairStats(t, tag, tr, wantPS, eng.ps)
		}()
		if !reflect.DeepEqual(gotClusters, wantClusters) {
			t.Fatalf("%s: clusters differ:\n got %+v\nwant %+v", tag, gotClusters, wantClusters)
		}
		// The published snapshot is what the wire layer serves.
		if !reflect.DeepEqual(eng.Clusters(), wantClusters) {
			t.Fatalf("%s: published snapshot differs from recluster result", tag)
		}
		// A second recluster with nothing new must be a pure cache splice
		// with identical output.
		if again := eng.Recluster(); !reflect.DeepEqual(again, wantClusters) {
			t.Fatalf("%s: idle recluster changed output", tag)
		}
	}
}

// TestStatsOfSortsACopy checks that StatsOf does not trust its input's
// order: a fully shuffled event list must give the statistics of the same
// events in time order, and the caller's slice must come back untouched.
func TestStatsOfSortsACopy(t *testing.T) {
	rng := rand.New(rand.NewSource(3))
	tr := streamRandomTrace(rng, 300)
	want := StatsOf(tr.Events, time.Second)
	shuffled := tr.Clone()
	rng.Shuffle(len(shuffled.Events), func(i, j int) {
		shuffled.Events[i], shuffled.Events[j] = shuffled.Events[j], shuffled.Events[i]
	})
	before := shuffled.Clone()
	comparePairStats(t, "shuffled", shuffled, want, StatsOf(shuffled.Events, time.Second))
	if !reflect.DeepEqual(shuffled.Events, before.Events) {
		t.Fatal("StatsOf reordered its input")
	}
}

// scanGroups is a minimal sort-and-scan windower: per application, it
// sorts the writes by time and walks them once, closing a group when the
// next write falls outside the window (measured from the group's first
// write in anchored mode, from the previous write in chained mode). It is
// the reference the streaming windower is held to in this package.
func scanGroups(tr *trace.Trace, window time.Duration, mode trace.GroupMode) []trace.Group {
	byApp := make(map[string][]trace.Event)
	for _, ev := range tr.Writes() {
		byApp[ev.App] = append(byApp[ev.App], ev)
	}
	var groups []trace.Group
	for app, evs := range byApp {
		sort.SliceStable(evs, func(i, j int) bool { return evs[i].Time.Before(evs[j].Time) })
		var cur trace.Group
		seen := map[string]bool{}
		flush := func() {
			sort.Strings(cur.Keys)
			groups = append(groups, cur)
		}
		for _, ev := range evs {
			from := cur.Start
			if mode == trace.GroupChained {
				from = cur.End
			}
			if len(cur.Keys) == 0 || ev.Time.Sub(from) > window {
				if len(cur.Keys) > 0 {
					flush()
				}
				cur = trace.Group{Start: ev.Time, App: app}
				seen = map[string]bool{}
			}
			if !seen[ev.Key] {
				seen[ev.Key] = true
				cur.Keys = append(cur.Keys, ev.Key)
			}
			cur.End = ev.Time
		}
		flush()
	}
	sortGroups(groups)
	return groups
}

// sortGroups orders groups by (Start, App, first key), a total order for
// the groups of one trace.
func sortGroups(groups []trace.Group) {
	sort.SliceStable(groups, func(i, j int) bool {
		a, b := &groups[i], &groups[j]
		if !a.Start.Equal(b.Start) {
			return a.Start.Before(b.Start)
		}
		if a.App != b.App {
			return a.App < b.App
		}
		return a.Keys[0] < b.Keys[0]
	})
}

// TestStreamGroupsMatchBatch checks the groups StreamWindower emits — the
// one windower behind StatsOf and the engine — against a sort-and-scan
// over the whole trace, for random multi-app traces with deletes, both
// modes, in order at horizon 0 and shuffled within DefaultHorizon.
func TestStreamGroupsMatchBatch(t *testing.T) {
	rng := rand.New(rand.NewSource(99))
	for trial := 0; trial < 80; trial++ {
		tr := streamRandomTrace(rng, 60+rng.Intn(150))
		for _, mode := range []trace.GroupMode{trace.GroupAnchored, trace.GroupChained} {
			want := scanGroups(tr, time.Second, mode)
			for _, run := range []struct {
				tag     string
				tr      *trace.Trace
				horizon time.Duration
			}{
				{"in-order", tr, 0},
				{"shuffled", shuffleWithinHorizon(rng, tr, trace.DefaultHorizon), trace.DefaultHorizon},
			} {
				var got []trace.Group
				sw := trace.NewStreamWindower(time.Second, mode, run.horizon, func(g *trace.Group) {
					cp := *g
					cp.Keys = append([]string(nil), g.Keys...)
					got = append(got, cp)
				})
				for _, ev := range run.tr.Events {
					sw.Push(ev)
				}
				sw.Flush()
				sortGroups(got)
				if !reflect.DeepEqual(got, want) {
					t.Fatalf("trial %d mode=%v %s: groups differ:\n got %+v\nwant %+v", trial, mode, run.tag, got, want)
				}
			}
		}
	}
}

// TestEngineDirtyReclusterMatchesFull grows one region of a many-
// component universe and verifies the incremental recluster (most
// components spliced from cache) equals a from-scratch batch clustering
// after every change.
func TestEngineDirtyReclusterMatchesFull(t *testing.T) {
	const comps = 40
	mkGroup := func(comp, episode int) trace.Group {
		start := streamT0.Add(time.Duration(episode*comps+comp) * 10 * time.Second)
		var keys []string
		for k := 0; k < 4; k++ {
			keys = append(keys, fmt.Sprintf("c%03d/k%d", comp, k))
		}
		return trace.Group{Start: start, End: start, Keys: keys}
	}

	eng := NewEngine(EngineConfig{Threshold: 2})
	var all []trace.Group
	push := func(g trace.Group) {
		all = append(all, g)
		// Feed the group's writes as events; each group sits in its own
		// window by construction.
		for _, k := range g.Keys {
			eng.Push(trace.Event{Time: g.Start, Op: trace.OpWrite, Key: k})
		}
	}

	for c := 0; c < comps; c++ {
		push(mkGroup(c, 0))
	}
	eng.Flush()
	first := eng.Recluster()
	if want := NewClusterer(LinkageComplete).Cluster(NewPairStats(all), DefaultThreshold); !reflect.DeepEqual(first, want) {
		t.Fatalf("initial recluster differs:\n got %+v\nwant %+v", first, want)
	}

	// Touch single components one at a time; every incremental cut must
	// match a full batch rebuild over all groups so far.
	rng := rand.New(rand.NewSource(5))
	for episode := 1; episode <= 25; episode++ {
		comp := rng.Intn(comps)
		g := mkGroup(comp, episode)
		if episode%5 == 0 {
			// Sometimes split the group so correlations inside the
			// component actually change shape, not just scale.
			g.Keys = g.Keys[:2]
		}
		push(g)
		eng.Flush()
		got := eng.Recluster()
		want := NewClusterer(LinkageComplete).Cluster(NewPairStats(all), DefaultThreshold)
		if !reflect.DeepEqual(got, want) {
			t.Fatalf("episode %d (comp %d): incremental != full:\n got %+v\nwant %+v", episode, comp, got, want)
		}
	}

	// Merge two components: the spliced result must reflect the union.
	bridge := trace.Group{
		Start: streamT0.Add(1000 * time.Hour),
		End:   streamT0.Add(1000 * time.Hour),
		Keys:  []string{"c000/k0", "c001/k0"},
	}
	push(bridge)
	eng.Flush()
	got := eng.Recluster()
	want := NewClusterer(LinkageComplete).Cluster(NewPairStats(all), DefaultThreshold)
	if !reflect.DeepEqual(got, want) {
		t.Fatalf("component merge: incremental != full:\n got %+v\nwant %+v", got, want)
	}
}

// TestEngineConcurrentObservers exercises the engine under -race: many
// goroutines observing disjoint apps, concurrent reclusters, correlation
// reads, and snapshot readers. Each app's events arrive in order, so the
// final flushed clustering must still equal the one-shot pipeline's.
func TestEngineConcurrentObservers(t *testing.T) {
	const (
		apps          = 8
		eventsPerApp  = 400
		reclusterIter = 50
	)
	tr := &trace.Trace{Name: "conc"}
	perApp := make([][]trace.Event, apps)
	rng := rand.New(rand.NewSource(17))
	for a := 0; a < apps; a++ {
		app := fmt.Sprintf("app%d", a)
		tcur := streamT0
		for i := 0; i < eventsPerApp; i++ {
			tcur = tcur.Add(time.Duration(rng.Intn(3)) * time.Second)
			ev := trace.Event{
				Time: tcur,
				Op:   trace.OpWrite,
				App:  app,
				Key:  fmt.Sprintf("%s/k%d", app, rng.Intn(10)),
			}
			perApp[a] = append(perApp[a], ev)
			tr.Events = append(tr.Events, ev)
		}
	}
	tr.SortByTime()
	_, want := oneShotClusters(tr, time.Second, trace.GroupAnchored, LinkageComplete, 2)

	eng := NewEngine(EngineConfig{Threshold: 2})
	var wg sync.WaitGroup
	for a := 0; a < apps; a++ {
		wg.Add(1)
		go func(evs []trace.Event) {
			defer wg.Done()
			for _, ev := range evs {
				eng.Push(ev)
			}
		}(perApp[a])
	}
	wg.Add(1)
	go func() {
		defer wg.Done()
		for i := 0; i < reclusterIter; i++ {
			eng.Recluster()
		}
	}()
	stop := make(chan struct{})
	readerDone := make(chan struct{})
	go func() {
		defer close(readerDone)
		for {
			select {
			case <-stop:
				return
			default:
				_ = eng.Correlation("app0/k0", "app0/k1")
				_ = eng.Clusters()
				_ = eng.Version()
			}
		}
	}()
	wg.Wait()
	close(stop)
	<-readerDone

	eng.Flush()
	got := eng.Recluster()
	if !reflect.DeepEqual(got, want) {
		t.Fatalf("concurrent engine != one-shot:\n got %+v\nwant %+v", got, want)
	}
}

// TestEngineDrainRaceNoLostEvents is the regression test for the staging
// queue's lost-event race: an empty-queue drain used to leave pending and
// pendSpare sharing one backing array, so the next drain read (and then
// cleared) a buffer concurrent Pushes were appending to. Pushers work in
// bursts (the queue has to run empty for the bug to arm, and refill while a
// drain reads it for the bug to bite) against back-to-back drains; the result
// must equal an engine fed the same events sequentially, and the two buffers
// must never end up aliased. Run under -race.
func TestEngineDrainRaceNoLostEvents(t *testing.T) {
	const (
		apps         = 4
		eventsPerApp = 8000
	)
	perApp := make([][]trace.Event, apps)
	rng := rand.New(rand.NewSource(23))
	ref := NewEngine(EngineConfig{Threshold: 2})
	for a := 0; a < apps; a++ {
		app := fmt.Sprintf("app%d", a)
		tcur := streamT0
		for i := 0; i < eventsPerApp; i++ {
			tcur = tcur.Add(time.Duration(rng.Intn(3)) * time.Second)
			ev := trace.Event{
				Time: tcur,
				Op:   trace.OpWrite,
				App:  app,
				Key:  fmt.Sprintf("%s/k%d", app, rng.Intn(10)),
			}
			perApp[a] = append(perApp[a], ev)
			ref.Push(ev)
		}
	}
	ref.Flush()
	want := ref.Recluster()

	eng := NewEngine(EngineConfig{Threshold: 2})
	var pushers sync.WaitGroup
	for a := 0; a < apps; a++ {
		pushers.Add(1)
		go func(evs []trace.Event) {
			defer pushers.Done()
			for i, ev := range evs {
				eng.Push(ev)
				if i%128 == 127 {
					time.Sleep(50 * time.Microsecond)
				}
			}
		}(perApp[a])
	}
	stop := make(chan struct{})
	drainerDone := make(chan struct{})
	go func() {
		defer close(drainerDone)
		for {
			select {
			case <-stop:
				return
			default:
				// A drain with no watermark movement (no event is older than
				// streamT0): groups close exactly where the sequential feed
				// closes them.
				eng.AdvanceTo(streamT0)
			}
		}
	}()
	pushers.Wait()
	close(stop)
	<-drainerDone

	eng.Flush()
	got := eng.Recluster()
	if eng.NumGroups() != ref.NumGroups() {
		t.Fatalf("concurrent engine folded %d groups, sequential feed %d (events lost in the staging queue)",
			eng.NumGroups(), ref.NumGroups())
	}
	if !reflect.DeepEqual(got, want) {
		t.Fatalf("concurrent engine != sequential feed:\n got %+v\nwant %+v", got, want)
	}
	// The root cause, checked directly so the test does not depend on the
	// scheduler producing the interleaving: whatever drains ran, the queue
	// and its spare are two buffers.
	eng.pendMu.Lock()
	defer eng.pendMu.Unlock()
	if cap(eng.pending) > 0 && cap(eng.pendSpare) > 0 && &eng.pending[:1][0] == &eng.pendSpare[:1][0] {
		t.Fatal("pending and pendSpare share a backing array after a drain")
	}
}
