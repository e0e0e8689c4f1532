package trace

import (
	"sort"
	"time"
)

// This file keeps the batch windower as a reference oracle for tests: it
// sorts a complete write list and walks it once. StreamWindower — the one
// windower the library ships — must emit exactly its groups whenever
// per-application disorder stays within the reorder horizon
// (TestStreamWindowerMatchesBatch, TestStreamWindowerReorderWithinHorizon,
// FuzzStreamWindower).

// Windower slices a chronological write stream into co-modification groups.
// The zero value is not usable; construct with NewWindower.
type Windower struct {
	window time.Duration
	mode   GroupMode
}

// NewWindower returns a windower with the given window size and mode.
// A negative window is treated as zero (writes group only when they carry
// an identical timestamp, the paper's "zero seconds" configuration).
func NewWindower(window time.Duration, mode GroupMode) *Windower {
	if window < 0 {
		window = 0
	}
	if mode != GroupChained {
		mode = GroupAnchored
	}
	return &Windower{window: window, mode: mode}
}

// Window returns the configured window size.
func (w *Windower) Window() time.Duration { return w.window }

// Mode returns the configured grouping mode.
func (w *Windower) Mode() GroupMode { return w.mode }

// Groups splits writes (which must contain only OpWrite/OpDelete events)
// into co-modification groups. The input does not need to be sorted.
func (w *Windower) Groups(writes []Event) []Group {
	if len(writes) == 0 {
		return nil
	}
	evs := make([]Event, len(writes))
	copy(evs, writes)
	sort.SliceStable(evs, func(i, j int) bool { return evs[i].Time.Before(evs[j].Time) })

	var groups []Group
	cur := map[string]struct{}{evs[0].Key: {}}
	anchor, prev := evs[0].Time, evs[0].Time
	app := evs[0].App
	flush := func(end time.Time) {
		keys := make([]string, 0, len(cur))
		for k := range cur {
			keys = append(keys, k)
		}
		sort.Strings(keys)
		groups = append(groups, Group{Start: anchor, End: end, App: app, Keys: keys})
	}
	for _, ev := range evs[1:] {
		var within bool
		switch w.mode {
		case GroupChained:
			within = ev.Time.Sub(prev) <= w.window
		default:
			within = ev.Time.Sub(anchor) <= w.window
		}
		if !within {
			flush(prev)
			cur = make(map[string]struct{})
			anchor = ev.Time
			app = ev.App
		}
		cur[ev.Key] = struct{}{}
		prev = ev.Time
	}
	flush(prev)
	return groups
}

// GroupTrace extracts the write stream of tr and windows it. Events from
// different applications are grouped independently so that two unrelated
// applications flushing settings in the same second do not appear
// co-modified; the per-application groups are returned merged in
// chronological order.
func (w *Windower) GroupTrace(tr *Trace) []Group {
	byApp := make(map[string][]Event)
	for _, ev := range tr.Writes() {
		byApp[ev.App] = append(byApp[ev.App], ev)
	}
	var all []Group
	for _, evs := range byApp {
		all = append(all, w.Groups(evs)...)
	}
	SortGroups(all)
	return all
}

// SortGroups orders groups chronologically with a full deterministic
// tie-break on (Start, App, first key). Sorting by Start alone is not
// enough: two applications flushing settings in the same second produce
// equal-Start groups whose relative order would otherwise follow map
// iteration.
func SortGroups(groups []Group) {
	sort.SliceStable(groups, func(i, j int) bool {
		a, b := &groups[i], &groups[j]
		if !a.Start.Equal(b.Start) {
			return a.Start.Before(b.Start)
		}
		if a.App != b.App {
			return a.App < b.App
		}
		return firstKey(a) < firstKey(b)
	})
}

func firstKey(g *Group) string {
	if len(g.Keys) == 0 {
		return ""
	}
	return g.Keys[0]
}
