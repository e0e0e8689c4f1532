package ttkv

import (
	"errors"
	"fmt"
	"sync"
	"testing"
	"time"
)

// swappingSink is a plain persistence sink (no sequence minting) that
// rebinds the store to a second sink the moment its first record
// arrives — the concurrent sink re-attach a revert batch must not be
// split across.
type swappingSink struct {
	s    *Store
	next *countingSink

	mu   sync.Mutex
	keys []string
}

func (w *swappingSink) append(key, value string, t time.Time, deleted bool) error {
	w.mu.Lock()
	w.keys = append(w.keys, key)
	w.mu.Unlock()
	if w.next != nil {
		w.s.sink.Store(&sinkBox{sink: w.next})
		w.next = nil
	}
	return nil
}

func (w *swappingSink) Sync() error { return nil }

type countingSink struct {
	mu   sync.Mutex
	keys []string
}

func (c *countingSink) append(key, value string, t time.Time, deleted bool) error {
	c.mu.Lock()
	c.keys = append(c.keys, key)
	c.mu.Unlock()
	return nil
}

func (c *countingSink) Sync() error { return nil }

// TestRevertSinkSnapshotted: the whole revert batch must land on the
// sink that was attached when the batch started, even if the store is
// rebound to another sink mid-batch. (Regression: the fallback loop
// re-loaded s.sink per mutation, splitting one atomic revert across two
// logs.)
func TestRevertSinkSnapshotted(t *testing.T) {
	s := New()
	base := time.Unix(100, 0)
	for _, k := range []string{"a", "b", "c"} {
		if err := s.Set(k, "old-"+k, base); err != nil {
			t.Fatal(err)
		}
		if err := s.Set(k, "new-"+k, base.Add(10*time.Second)); err != nil {
			t.Fatal(err)
		}
	}

	second := &countingSink{}
	first := &swappingSink{s: s, next: second}
	s.sink.Store(&sinkBox{sink: first})

	n, err := s.RevertCluster([]string{"a", "b", "c"}, base.Add(time.Second), base.Add(time.Minute))
	if err != nil {
		t.Fatal(err)
	}
	if n != 3 {
		t.Fatalf("reverted %d keys, want 3", n)
	}
	if len(first.keys) != 3 {
		t.Fatalf("original sink got %d records (%v), want all 3", len(first.keys), first.keys)
	}
	if len(second.keys) != 0 {
		t.Fatalf("swapped-in sink got %d records (%v), want none until the batch completes", len(second.keys), second.keys)
	}
}

// TestApplyPartialCount: a persistence error mid-batch must report
// exactly how many mutations were applied, and those must be visible.
// (Regression: Apply returned a bare error, so MSET callers could not
// tell a clean failure from a half-applied batch.)
func TestApplyPartialCount(t *testing.T) {
	s := New()
	s.sink.Store(&sinkBox{sink: &failingSink{allow: 3}})

	base := time.Unix(100, 0)
	muts := make([]Mutation, 6)
	for i := range muts {
		muts[i] = Mutation{Key: fmt.Sprintf("k%d", i), Value: "v", Time: base.Add(time.Duration(i) * time.Second)}
	}
	applied, err := s.Apply(muts)
	if err == nil {
		t.Fatal("Apply with a failing sink returned nil error")
	}
	if applied != 3 {
		t.Fatalf("applied = %d, want 3", applied)
	}
	// The reported prefix is applied and visible; the rest is not.
	for i := range muts {
		_, err := s.Latest(muts[i].Key)
		if i < applied && err != nil {
			t.Errorf("key %s: reported applied but Latest says %v", muts[i].Key, err)
		}
		if i >= applied && !errors.Is(err, ErrNoKey) {
			t.Errorf("key %s: reported unapplied but Latest says %v", muts[i].Key, err)
		}
	}

	// A clean batch reports the full count.
	s.sink.Store(nil)
	applied, err = s.Apply(muts)
	if err != nil || applied != len(muts) {
		t.Fatalf("clean Apply = (%d, %v), want (%d, nil)", applied, err, len(muts))
	}
}

// TestModTimesWallClock: ModTimes must deduplicate, compare, and sort on
// wall-clock nanoseconds only. (Regression: it deduplicated on UnixNano
// but sorted with Time.After, which prefers the monotonic reading —
// time.Now()-stamped writes could sort inconsistently with their own
// dedup key.)
func TestModTimesWallClock(t *testing.T) {
	s := New()
	now := time.Now() // carries a monotonic reading
	if err := s.Set("a", "1", now); err != nil {
		t.Fatal(err)
	}
	// Same wall-clock instant, monotonic reading stripped: one distinct
	// timestamp, not two.
	if err := s.Set("b", "1", now.Round(0)); err != nil {
		t.Fatal(err)
	}
	if err := s.Set("a", "2", now.Add(-time.Hour)); err != nil {
		t.Fatal(err)
	}
	if err := s.Set("b", "2", now.Add(time.Hour).Round(0)); err != nil {
		t.Fatal(err)
	}

	times := s.ModTimes([]string{"a", "b"})
	if len(times) != 3 {
		t.Fatalf("ModTimes returned %d timestamps (%v), want 3 distinct wall-clock instants", len(times), times)
	}
	for i, tm := range times {
		if tm != tm.Round(0) {
			t.Errorf("times[%d] retains a monotonic reading", i)
		}
		if i > 0 && times[i-1].UnixNano() <= tm.UnixNano() {
			t.Errorf("times not strictly descending on wall clock: %v then %v", times[i-1], tm)
		}
	}

	v := s.ViewAt(s.CurrentSeq())
	vtimes := v.ModTimes([]string{"a", "b"})
	if len(vtimes) != len(times) {
		t.Fatalf("View.ModTimes returned %d timestamps, want %d", len(vtimes), len(times))
	}
	for i := range times {
		if !vtimes[i].Equal(times[i]) {
			t.Fatalf("View.ModTimes[%d] = %v, Store.ModTimes = %v", i, vtimes[i], times[i])
		}
	}
}
