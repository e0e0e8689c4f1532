package trace

import (
	"container/heap"
	"math"
	"sort"
	"time"
)

// DefaultHorizon is the default reorder horizon of a StreamWindower: how
// far out of chronological order (per application) pushed events may
// arrive and still be grouped exactly as if they had arrived sorted.
const DefaultHorizon = 2 * time.Second

// StreamWindower slices a write stream into co-modification groups. It
// accepts events one at a time and emits groups incrementally, so a live
// write stream can feed the clustering engine without ever materialising
// (or re-sorting) the full trace; core.StatsOf pushes a sorted recorded
// trace through it with a zero horizon. It is the library's only
// windower.
//
// Events from different applications are windowed independently, so two
// applications flushing settings in the same second do not appear
// co-modified. Within one application, events may arrive up to the
// reorder horizon out of chronological order: each application keeps a
// small buffer ordered by (time, arrival), and an event is only windowed
// once the application's high-water mark has moved past it by the
// horizon. As long as per-app disorder stays within the horizon, the
// emitted groups are exactly the groups of the same events pushed in
// time order (the tests check this against a batch sort-and-scan oracle).
//
// A group is emitted as soon as an event proves its window closed (or on
// Flush/AdvanceTo). Emission order therefore follows group *close* time,
// not start time.
//
// The Group passed to the emit callback borrows internal buffers: it is
// valid only for the duration of the call, and its Keys slice is reused
// for the next group. Callers that retain groups must copy.
//
// StreamWindower is not safe for concurrent use; callers serialise Push
// (core.Engine wraps it with a mutex).
type StreamWindower struct {
	window  time.Duration
	mode    GroupMode
	horizon time.Duration
	emit    func(*Group)
	apps    map[string]*appStream
	groups  int
	// Optional future-skew guard (SetFutureLimit): bounds how far beyond
	// clock() an event may advance a watermark.
	maxSkew time.Duration
	clock   func() time.Time
}

// SetFutureLimit guards the per-app watermarks against far-future event
// timestamps: an event stamped beyond clock()+maxSkew does not advance
// its watermark at all. Without the guard (the default, clock == nil),
// one corrupt or hostile timestamp — wire timestamps are client-supplied
// — ratchets the watermark forever: every later normal event counts as
// "late" (forfeiting the reorder guarantee) and watermark advances close
// every open group instantly. With the guard, the poisoned event is
// quarantined in the reorder buffer until the clock actually reaches it
// (or Flush), the watermark keeps following legitimate traffic, and the
// rest of the stream windows normally; maxSkew is the writer clock skew
// to tolerate (seconds, not hours). Only daemons whose writers stamp
// events with real time should enable this; replays of historical traces
// must leave it off.
func (s *StreamWindower) SetFutureLimit(maxSkew time.Duration, clock func() time.Time) {
	s.maxSkew = maxSkew
	s.clock = clock
}

// appStream is one application's windowing state: the reorder buffer plus
// the open group.
type appStream struct {
	app  string
	pend pendHeap
	seq  uint64 // arrival order, tie-break for equal timestamps
	// maxSeen is the application's event-time high-water mark (UnixNano);
	// events at or before maxSeen-horizon are safe to window.
	maxSeen int64

	open         bool
	anchor, prev time.Time
	keys         []string // raw appends; sorted+deduped at flush
	out          Group    // reusable emit buffer
}

// pendEvent is one buffered event awaiting its reorder horizon.
type pendEvent struct {
	nanos int64
	seq   uint64
	key   string
	t     time.Time
}

// pendHeap is a min-heap by (time, arrival order).
type pendHeap []pendEvent

func (h pendHeap) Len() int { return len(h) }
func (h pendHeap) Less(i, j int) bool {
	if h[i].nanos != h[j].nanos {
		return h[i].nanos < h[j].nanos
	}
	return h[i].seq < h[j].seq
}
func (h pendHeap) Swap(i, j int) { h[i], h[j] = h[j], h[i] }
func (h *pendHeap) Push(x any)   { *h = append(*h, x.(pendEvent)) }
func (h *pendHeap) Pop() any {
	old := *h
	n := len(old)
	ev := old[n-1]
	old[n-1] = pendEvent{}
	*h = old[:n-1]
	return ev
}

// NewStreamWindower returns a streaming windower. A negative window is
// treated as zero (writes group only when they carry an identical
// timestamp, the paper's "zero seconds" configuration) and an unknown mode
// as GroupAnchored; horizon < 0 selects DefaultHorizon (0 is a valid
// choice: events must then arrive per-app chronologically). Emit is
// called once per closed group and must be non-nil; the *Group argument
// is only valid during the call.
func NewStreamWindower(window time.Duration, mode GroupMode, horizon time.Duration, emit func(*Group)) *StreamWindower {
	if window < 0 {
		window = 0
	}
	if mode != GroupChained {
		mode = GroupAnchored
	}
	if horizon < 0 {
		horizon = DefaultHorizon
	}
	return &StreamWindower{
		window:  window,
		mode:    mode,
		horizon: horizon,
		emit:    emit,
		apps:    make(map[string]*appStream),
	}
}

// Window returns the configured window size.
func (s *StreamWindower) Window() time.Duration { return s.window }

// Mode returns the configured grouping mode.
func (s *StreamWindower) Mode() GroupMode { return s.mode }

// Horizon returns the configured reorder horizon.
func (s *StreamWindower) Horizon() time.Duration { return s.horizon }

// Groups returns how many groups have been emitted so far.
func (s *StreamWindower) Groups() int { return s.groups }

// Pending returns how many events sit in reorder buffers, not yet
// windowed (open groups not included).
func (s *StreamWindower) Pending() int {
	n := 0
	for _, as := range s.apps {
		n += len(as.pend)
	}
	return n
}

// Push feeds one event into the stream. Non-modification events (reads)
// are ignored, as in Trace.Writes. Push may
// synchronously emit zero or more groups whose windows the event proves
// closed.
func (s *StreamWindower) Push(ev Event) {
	if ev.Op != OpWrite && ev.Op != OpDelete {
		return
	}
	as, ok := s.apps[ev.App]
	if !ok {
		as = &appStream{app: ev.App}
		s.apps[ev.App] = as
	}
	nanos := ev.Time.UnixNano()
	pe := pendEvent{nanos: nanos, seq: as.seq, key: ev.Key, t: ev.Time}
	as.seq++
	if nanos > as.maxSeen {
		// A timestamp beyond the future limit advances the watermark not
		// at all (rather than partially): the event is quarantined in the
		// reorder buffer until the clock genuinely reaches it, and the
		// watermark keeps following legitimate traffic.
		if s.clock == nil || nanos <= s.clock().Add(s.maxSkew).UnixNano() {
			as.maxSeen = nanos
		}
	}
	// An event already past the horizon would pop immediately; skip the
	// heap round-trip. This is also the path late events (beyond the
	// horizon) take: they are windowed in arrival order, the best the
	// stream can do once the sort guarantee is forfeited.
	if len(as.pend) == 0 && nanos <= as.maxSeen-int64(s.horizon) {
		s.process(as, pe.t, pe.key)
		return
	}
	heap.Push(&as.pend, pe)
	s.drain(as, as.maxSeen-int64(s.horizon))
}

// drain windows every buffered event at or before due.
func (s *StreamWindower) drain(as *appStream, due int64) {
	for len(as.pend) > 0 && as.pend[0].nanos <= due {
		pe := heap.Pop(&as.pend).(pendEvent)
		s.process(as, pe.t, pe.key)
	}
}

// process applies one in-order event to the application's open group: the
// event joins it if it lies within the window of the group's anchor
// (anchored mode) or of its previous write (chained mode); otherwise the
// group closes and the event anchors a new one.
func (s *StreamWindower) process(as *appStream, t time.Time, key string) {
	if !as.open {
		as.open = true
		as.anchor, as.prev = t, t
		as.keys = append(as.keys[:0], key)
		return
	}
	var within bool
	switch s.mode {
	case GroupChained:
		within = t.Sub(as.prev) <= s.window
	default:
		within = t.Sub(as.anchor) <= s.window
	}
	if !within {
		s.close(as)
		as.anchor = t
		as.keys = as.keys[:0]
	}
	as.keys = append(as.keys, key)
	as.prev = t
}

// close emits the application's open group (sorted, deduped) and marks it
// closed. The emitted Group borrows as.out and as.keys.
func (s *StreamWindower) close(as *appStream) {
	if !as.open {
		return
	}
	sort.Strings(as.keys)
	// In-place dedup: a key written several times in one window is one
	// logical modification.
	w := 1
	for i := 1; i < len(as.keys); i++ {
		if as.keys[i] != as.keys[i-1] {
			as.keys[w] = as.keys[i]
			w++
		}
	}
	as.out = Group{Start: as.anchor, End: as.prev, App: as.app, Keys: as.keys[:w]}
	s.groups++
	s.emit(&as.out)
}

// AdvanceTo declares that no event with time earlier than t-horizon will
// arrive for any application (a watermark, typically driven by a wall
// clock when writers stamp events with real time). It windows every
// buffered event the watermark has passed and emits open groups whose
// window can no longer be extended by any future event. Events pushed
// later with times beyond the declared watermark's horizon are windowed
// in arrival order (the sort guarantee is forfeited, exactly as for any
// late event).
func (s *StreamWindower) AdvanceTo(t time.Time) {
	nanos := t.UnixNano()
	for _, as := range s.apps {
		if nanos > as.maxSeen {
			as.maxSeen = nanos
		}
		due := as.maxSeen - int64(s.horizon)
		s.drain(as, due)
		if !as.open {
			continue
		}
		// A future event carries time >= due (the watermark rules out
		// strictly-earlier arrivals only). The open group can still grow
		// iff such a time can fall within the window, i.e. while
		// due <= boundary: the boundary event itself is within (process
		// compares with <=), so closing requires strictly passing it.
		var closed bool
		switch s.mode {
		case GroupChained:
			closed = due > as.prev.UnixNano()+int64(s.window)
		default:
			closed = due > as.anchor.UnixNano()+int64(s.window)
		}
		if closed {
			s.close(as)
			as.open = false
			as.keys = as.keys[:0]
		}
	}
}

// Flush windows every buffered event and emits every open group,
// finishing the stream. After Flush the windower is reusable: subsequent
// pushes open fresh groups (per-app watermarks persist, so events older
// than a pre-flush watermark minus the horizon are late).
func (s *StreamWindower) Flush() {
	for _, as := range s.apps {
		// MaxInt64, not an arbitrary big number: quarantined far-future
		// events can carry any nanos value and must drain here.
		s.drain(as, math.MaxInt64)
		if as.open {
			s.close(as)
			as.open = false
			as.keys = as.keys[:0]
		}
	}
}
