package trace

import (
	"fmt"
	"math/rand"
	"reflect"
	"testing"
	"testing/quick"
	"time"
)

// The cases in this file pin windowing edge cases on the batch oracle
// (oracle_test.go) and check that StreamWindower, the windower that ships,
// emits exactly the oracle's groups for each of them.

// streamMismatch feeds writes in time order — as core.StatsOf feeds them —
// to a StreamWindower with a zero and with the default reorder horizon,
// and describes the first run whose groups differ from want ("" if none).
func streamMismatch(writes []Event, window time.Duration, mode GroupMode, want []Group) string {
	sorted := (&Trace{Events: writes}).Clone()
	sorted.SortByTime()
	for _, horizon := range []time.Duration{0, DefaultHorizon} {
		if got := collectStream(sorted, window, mode, horizon); !reflect.DeepEqual(got, want) {
			return fmt.Sprintf("stream (horizon %v) = %+v, oracle = %+v", horizon, got, want)
		}
	}
	return ""
}

// checkStream fails t when streamMismatch finds a difference.
func checkStream(t *testing.T, writes []Event, window time.Duration, mode GroupMode, want []Group) {
	t.Helper()
	if diff := streamMismatch(writes, window, mode, want); diff != "" {
		t.Error(diff)
	}
}

// checkOneStream is checkStream for Windower.Groups output. Groups windows
// its input as one stream whatever application each event names, while
// StreamWindower windows each application on its own, so App is cleared
// on copies of both sides — the way ocasta.ClusterEvents feeds
// core.StatsOf.
func checkOneStream(t *testing.T, writes []Event, window time.Duration, mode GroupMode, want []Group) {
	t.Helper()
	var evs []Event
	for _, e := range writes {
		e.App = ""
		evs = append(evs, e)
	}
	var gs []Group
	for _, g := range want {
		g.App = ""
		gs = append(gs, g)
	}
	checkStream(t, evs, window, mode, gs)
}

func TestWindowerEmpty(t *testing.T) {
	w := NewWindower(time.Second, GroupAnchored)
	if got := w.Groups(nil); got != nil {
		t.Errorf("Groups(nil) = %v, want nil", got)
	}
	checkOneStream(t, nil, time.Second, GroupAnchored, nil)
}

func TestWindowerDefaults(t *testing.T) {
	w := NewWindower(-5*time.Second, GroupMode(0))
	if w.Window() != 0 {
		t.Errorf("negative window should clamp to 0, got %v", w.Window())
	}
	if w.Mode() != GroupAnchored {
		t.Errorf("invalid mode should default to anchored, got %v", w.Mode())
	}
	sw := NewStreamWindower(-5*time.Second, GroupMode(0), -1, func(*Group) {})
	if sw.Window() != 0 || sw.Mode() != GroupAnchored || sw.Horizon() != DefaultHorizon {
		t.Errorf("stream defaults: window %v mode %v horizon %v, want 0 anchored %v",
			sw.Window(), sw.Mode(), sw.Horizon(), DefaultHorizon)
	}
	// A clamped window groups exactly like the zero window.
	writes := []Event{ev(0, OpWrite, "a"), ev(0, OpWrite, "b"), ev(1, OpWrite, "c")}
	checkOneStream(t, writes, -5*time.Second, GroupMode(0), w.Groups(writes))
}

func TestGroupModeString(t *testing.T) {
	if GroupAnchored.String() != "anchored" || GroupChained.String() != "chained" {
		t.Error("GroupMode.String mismatch")
	}
	if GroupMode(9).String() != "unknown" {
		t.Error("unknown GroupMode should stringify as unknown")
	}
}

func TestAnchoredGrouping(t *testing.T) {
	// a,b at t=0; c at t=0.9s (within 1s of anchor); d at t=1.5s (outside).
	writes := []Event{
		ev(0, OpWrite, "a"),
		ev(0, OpWrite, "b"),
		{Time: t0.Add(900 * time.Millisecond), Op: OpWrite, Key: "c"},
		{Time: t0.Add(1500 * time.Millisecond), Op: OpWrite, Key: "d"},
	}
	groups := NewWindower(time.Second, GroupAnchored).Groups(writes)
	checkOneStream(t, writes, time.Second, GroupAnchored, groups)
	if len(groups) != 2 {
		t.Fatalf("got %d groups, want 2: %+v", len(groups), groups)
	}
	if len(groups[0].Keys) != 3 || !groups[0].Contains("a") || !groups[0].Contains("b") || !groups[0].Contains("c") {
		t.Errorf("group 0 keys = %v, want [a b c]", groups[0].Keys)
	}
	if len(groups[1].Keys) != 1 || groups[1].Keys[0] != "d" {
		t.Errorf("group 1 keys = %v, want [d]", groups[1].Keys)
	}
}

func TestChainedGrouping(t *testing.T) {
	// With chaining, 0 -> 0.9 -> 1.5 (gap 0.6s) all connect; anchored splits.
	writes := []Event{
		ev(0, OpWrite, "a"),
		{Time: t0.Add(900 * time.Millisecond), Op: OpWrite, Key: "b"},
		{Time: t0.Add(1500 * time.Millisecond), Op: OpWrite, Key: "c"},
		{Time: t0.Add(5 * time.Second), Op: OpWrite, Key: "d"},
	}
	groups := NewWindower(time.Second, GroupChained).Groups(writes)
	checkOneStream(t, writes, time.Second, GroupChained, groups)
	if len(groups) != 2 {
		t.Fatalf("chained: got %d groups, want 2: %+v", len(groups), groups)
	}
	if len(groups[0].Keys) != 3 {
		t.Errorf("chained group 0 keys = %v, want 3 keys", groups[0].Keys)
	}
}

func TestZeroWindowGroupsByIdenticalTimestamp(t *testing.T) {
	writes := []Event{
		ev(0, OpWrite, "a"),
		ev(0, OpWrite, "b"),
		ev(1, OpWrite, "c"),
	}
	groups := NewWindower(0, GroupAnchored).Groups(writes)
	checkOneStream(t, writes, 0, GroupAnchored, groups)
	checkOneStream(t, writes, 0, GroupChained, groups)
	if len(groups) != 2 {
		t.Fatalf("zero window: got %d groups, want 2", len(groups))
	}
	if len(groups[0].Keys) != 2 {
		t.Errorf("zero window group 0 = %v, want [a b]", groups[0].Keys)
	}
}

func TestDuplicateKeyInGroupDedup(t *testing.T) {
	writes := []Event{ev(0, OpWrite, "a"), ev(0, OpWrite, "a"), ev(0, OpWrite, "b")}
	groups := NewWindower(time.Second, GroupAnchored).Groups(writes)
	checkOneStream(t, writes, time.Second, GroupAnchored, groups)
	if len(groups) != 1 || len(groups[0].Keys) != 2 {
		t.Fatalf("got %+v, want one group with keys [a b]", groups)
	}
}

func TestGroupContains(t *testing.T) {
	g := Group{Keys: []string{"alpha", "beta", "gamma"}}
	if !g.Contains("beta") || g.Contains("delta") {
		t.Error("Contains gave the wrong answer")
	}
}

func TestGroupTraceSeparatesApps(t *testing.T) {
	// Two apps writing in the same second must not be co-modified.
	tr := &Trace{Events: []Event{
		{Time: t0, Op: OpWrite, App: "word", Key: "w1"},
		{Time: t0, Op: OpWrite, App: "acrobat", Key: "a1"},
	}}
	groups := NewWindower(time.Second, GroupAnchored).GroupTrace(tr)
	checkStream(t, tr.Events, time.Second, GroupAnchored, groups)
	if len(groups) != 2 {
		t.Fatalf("got %d groups, want 2 (one per app)", len(groups))
	}
	for _, g := range groups {
		if len(g.Keys) != 1 {
			t.Errorf("cross-app keys grouped together: %v", g.Keys)
		}
	}
}

func TestUnsortedInputHandled(t *testing.T) {
	writes := []Event{ev(10, OpWrite, "late"), ev(0, OpWrite, "early")}
	groups := NewWindower(time.Second, GroupAnchored).Groups(writes)
	checkOneStream(t, writes, time.Second, GroupAnchored, groups)
	if len(groups) != 2 || groups[0].Keys[0] != "early" {
		t.Fatalf("unsorted input mishandled: %+v", groups)
	}
}

// Property: every write lands in exactly one group, and each group's span
// never exceeds the window in anchored mode.
func TestGroupsPartitionProperty(t *testing.T) {
	rng := rand.New(rand.NewSource(7))
	prop := func(offsets []uint16, keyIDs []uint8) bool {
		n := len(offsets)
		if len(keyIDs) < n {
			n = len(keyIDs)
		}
		if n == 0 {
			return true
		}
		writes := make([]Event, 0, n)
		total := 0
		for i := 0; i < n; i++ {
			writes = append(writes, Event{
				Time: t0.Add(time.Duration(offsets[i]%600) * time.Second),
				Op:   OpWrite,
				Key:  string(rune('a' + keyIDs[i]%26)),
			})
			total++
		}
		window := time.Duration(1+rng.Intn(30)) * time.Second
		groups := NewWindower(window, GroupAnchored).Groups(writes)
		if streamMismatch(writes, window, GroupAnchored, groups) != "" {
			return false
		}
		seen := 0
		for _, g := range groups {
			if g.End.Sub(g.Start) > window {
				return false
			}
			if len(g.Keys) == 0 {
				return false
			}
			seen += len(g.Keys) // lower bound: dedup means seen <= total
		}
		return seen > 0 && seen <= total
	}
	if err := quick.Check(prop, &quick.Config{MaxCount: 200, Rand: rng}); err != nil {
		t.Fatal(err)
	}
}

// Property: groups are chronologically ordered and non-overlapping in
// anchored mode (each group starts after the previous group's start).
func TestGroupsOrderedProperty(t *testing.T) {
	prop := func(offsets []uint16) bool {
		writes := make([]Event, len(offsets))
		for i, off := range offsets {
			writes[i] = Event{Time: t0.Add(time.Duration(off) * time.Second), Op: OpWrite, Key: "k"}
		}
		groups := NewWindower(5*time.Second, GroupAnchored).Groups(writes)
		if streamMismatch(writes, 5*time.Second, GroupAnchored, groups) != "" {
			return false
		}
		for i := 1; i < len(groups); i++ {
			if !groups[i].Start.After(groups[i-1].Start) {
				return false
			}
		}
		return true
	}
	if err := quick.Check(prop, &quick.Config{MaxCount: 200}); err != nil {
		t.Fatal(err)
	}
}
