package trace

import (
	"sort"
	"time"
)

// GroupMode selects how the sliding window turns a write stream into
// co-modification groups.
type GroupMode uint8

const (
	// GroupAnchored opens a group at the first ungrouped write and extends
	// it to every write within the window of that anchor. This bounds a
	// group's duration by the window size and is the default used for the
	// paper's experiments.
	GroupAnchored GroupMode = iota + 1
	// GroupChained extends a group as long as consecutive writes are within
	// the window of each other, so a burst of closely spaced writes forms a
	// single group regardless of total duration.
	GroupChained
)

// String returns the canonical name of the mode.
func (m GroupMode) String() string {
	switch m {
	case GroupAnchored:
		return "anchored"
	case GroupChained:
		return "chained"
	default:
		return "unknown"
	}
}

// Group is one co-modification episode: the set of keys written together
// within a single sliding window.
type Group struct {
	Start time.Time
	End   time.Time
	// App identifies the application whose writes formed the group (taken
	// from the event that anchored it). Windowing is always per-app, so
	// every member write carries this application.
	App string
	// Keys holds the distinct keys written in the window, sorted. A key
	// appears once per group no matter how many raw writes hit it, so a
	// group represents one logical "modified together" episode.
	Keys []string
}

// Contains reports whether the group touched key.
func (g *Group) Contains(key string) bool {
	i := sort.SearchStrings(g.Keys, key)
	return i < len(g.Keys) && g.Keys[i] == key
}

// DefaultWindow is the paper's default sliding-window size. The trace
// collection infrastructure records timestamps to the nearest second, so
// one second is also the minimum meaningful window.
const DefaultWindow = time.Second
