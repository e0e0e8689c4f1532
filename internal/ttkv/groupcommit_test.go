package ttkv

import (
	"errors"
	"fmt"
	"os"
	"path/filepath"
	"sync"
	"testing"
	"time"
)

// dumpEqual compares the full logical dump of two stores: key sets and
// per-key histories (time, value, tombstone). Sequence numbers are
// excluded — they renumber on replay.
func dumpEqual(t *testing.T, got, want *Store) {
	t.Helper()
	gotKeys, wantKeys := got.Keys(), want.Keys()
	if len(gotKeys) != len(wantKeys) {
		t.Fatalf("key count %d, want %d", len(gotKeys), len(wantKeys))
	}
	for i := range wantKeys {
		if gotKeys[i] != wantKeys[i] {
			t.Fatalf("key[%d] = %q, want %q", i, gotKeys[i], wantKeys[i])
		}
	}
	for _, k := range wantKeys {
		wh, err := want.History(k)
		if err != nil {
			t.Fatal(err)
		}
		gh, err := got.History(k)
		if err != nil {
			t.Fatalf("History(%q): %v", k, err)
		}
		if len(gh) != len(wh) {
			t.Fatalf("%q: %d versions, want %d", k, len(gh), len(wh))
		}
		for i := range wh {
			if gh[i].Value != wh[i].Value || !gh[i].Time.Equal(wh[i].Time) || gh[i].Deleted != wh[i].Deleted {
				t.Errorf("%q version %d: got %+v, want %+v", k, i, gh[i], wh[i])
			}
		}
	}
}

// newTestGroupCommit returns a group commit over a fresh segmented log
// and the log's directory.
func newTestGroupCommit(t *testing.T, cfg GroupCommitConfig) (*GroupCommit, string) {
	t.Helper()
	dir := t.TempDir()
	sa, err := OpenSegmented(dir, SegmentedConfig{})
	if err != nil {
		t.Fatal(err)
	}
	return NewGroupCommit(sa, cfg), dir
}

// loadSegments replays the segment directory dir into a fresh store. It
// replays a copy, leaving dir untouched even while its log is still live
// (opening repairs a torn tail in place).
func loadSegments(t *testing.T, dir string) *Store {
	t.Helper()
	cp := t.TempDir()
	ents, err := os.ReadDir(dir)
	if err != nil {
		t.Fatal(err)
	}
	for _, e := range ents {
		data, err := os.ReadFile(filepath.Join(dir, e.Name()))
		if err != nil {
			t.Fatal(err)
		}
		if err := os.WriteFile(filepath.Join(cp, e.Name()), data, 0o644); err != nil {
			t.Fatal(err)
		}
	}
	s := New()
	sa, err := OpenSegmentedInto(cp, s, SegmentedConfig{})
	if err != nil {
		t.Fatal(err)
	}
	if err := sa.Close(); err != nil {
		t.Fatal(err)
	}
	return s
}

func TestGroupCommitRoundTrip(t *testing.T) {
	gc, dir := newTestGroupCommit(t, GroupCommitConfig{})
	s := New()
	s.AttachGroupCommit(gc)
	must(t, s.Set("alpha", "1", at(0)))
	must(t, s.Set("beta", "x", at(1)))
	must(t, s.Set("alpha", "2", at(2)))
	must(t, s.Delete("beta", at(3)))
	if err := s.SyncAOF(); err != nil {
		t.Fatal(err)
	}
	if err := gc.Close(); err != nil {
		t.Fatal(err)
	}
	loaded := loadSegments(t, dir)
	dumpEqual(t, loaded, s)
}

func TestGroupCommitSyncBarrierForcesDurability(t *testing.T) {
	// With FsyncNever and an hour-long interval nothing reaches the file
	// on its own; the Sync barrier alone must push records through.
	gc, dir := newTestGroupCommit(t, GroupCommitConfig{
		FlushInterval: time.Hour,
		Fsync:         FsyncNever,
	})
	defer gc.Close()
	s := New()
	s.AttachGroupCommit(gc)
	must(t, s.Set("k", "v", at(0)))
	if err := s.SyncAOF(); err != nil {
		t.Fatal(err)
	}
	loaded := loadSegments(t, dir)
	if v, ok := loaded.Get("k"); !ok || v != "v" {
		t.Fatalf("after Sync barrier, replay = %q,%v, want v,true", v, ok)
	}
}

func TestGroupCommitFsyncAlwaysFlushesEagerly(t *testing.T) {
	// With an hour-long interval, only FsyncAlways's per-append wakeup can
	// get a lone record to disk — no Sync, no ticker, no size pressure.
	gc, dir := newTestGroupCommit(t, GroupCommitConfig{
		FlushInterval: time.Hour,
		Fsync:         FsyncAlways,
	})
	defer gc.Close()
	s := New()
	s.AttachGroupCommit(gc)
	must(t, s.Set("k", "v", at(0)))
	deadline := time.Now().Add(5 * time.Second)
	for {
		if v, ok := loadSegments(t, dir).Get("k"); ok && v == "v" {
			return
		}
		if time.Now().After(deadline) {
			t.Fatal("record did not reach the AOF without Sync under FsyncAlways")
		}
		time.Sleep(5 * time.Millisecond)
	}
}

func TestGroupCommitCloseDrains(t *testing.T) {
	gc, dir := newTestGroupCommit(t, GroupCommitConfig{FlushInterval: time.Hour})
	s := New()
	s.AttachGroupCommit(gc)
	const n = 500
	for i := 0; i < n; i++ {
		must(t, s.Set(fmt.Sprintf("k%03d", i), "v", at(i)))
	}
	// No Sync: Close alone must drain every pending record.
	if err := gc.Close(); err != nil {
		t.Fatal(err)
	}
	loaded := loadSegments(t, dir)
	if loaded.Len() != n {
		t.Fatalf("replayed %d keys, want %d", loaded.Len(), n)
	}
}

func TestGroupCommitAfterCloseFails(t *testing.T) {
	gc, _ := newTestGroupCommit(t, GroupCommitConfig{})
	s := New()
	s.AttachGroupCommit(gc)
	if err := gc.Close(); err != nil {
		t.Fatal(err)
	}
	if err := s.Set("k", "v", at(0)); !errors.Is(err, ErrAppenderClosed) {
		t.Errorf("Set after Close = %v, want ErrAppenderClosed", err)
	}
	// A write rejected by persistence must not mutate the in-memory store,
	// or memory and log would diverge.
	if s.Len() != 0 {
		t.Errorf("rejected write landed in the store: Len = %d, want 0", s.Len())
	}
	if st := s.Stats(); st.Writes != 0 {
		t.Errorf("rejected write counted: Writes = %d, want 0", st.Writes)
	}
	if err := gc.Sync(); !errors.Is(err, ErrAppenderClosed) {
		t.Errorf("Sync after Close = %v, want ErrAppenderClosed", err)
	}
	if err := gc.Close(); err != nil {
		t.Errorf("second Close = %v, want nil", err)
	}
}

// White-box: with no flusher draining, writers must block at the backlog
// cap instead of growing memory — before taking any shard lock, so
// readers of the same keys stay live — and resume once a flush cycle
// drains the backlog.
func TestGroupCommitBackpressure(t *testing.T) {
	aof, err := OpenSegmented(t.TempDir(), SegmentedConfig{})
	if err != nil {
		t.Fatal(err)
	}
	defer aof.Close()
	// Construct without starting the flusher goroutine, so the backlog
	// only drains when the test says so.
	gc := &GroupCommit{
		aof: aof,
		cfg: GroupCommitConfig{
			FlushInterval:   time.Hour,
			MaxBatchBytes:   32,
			MaxPendingBytes: 64,
		}.withDefaults(),
		wake:      make(chan struct{}, 1),
		quit:      make(chan struct{}),
		done:      make(chan struct{}),
		closeDone: make(chan struct{}),
	}
	gc.cond = sync.NewCond(&gc.mu)

	s := New()
	s.AttachGroupCommit(gc)
	for i := 0; gc.pendingLen() < gc.cfg.MaxPendingBytes; i++ {
		must(t, s.Set("key", "value", at(i)))
	}
	blocked := make(chan error, 1)
	go func() { blocked <- s.Set("key", "over-cap", at(999)) }()
	select {
	case err := <-blocked:
		t.Fatalf("write past the backlog cap returned %v, want it to block", err)
	case <-time.After(30 * time.Millisecond):
	}
	// The blocked writer must not be holding the shard: reads of the same
	// key still serve.
	if v, ok := s.Get("key"); !ok || v != "value" {
		t.Fatalf("read stalled behind backpressured writer: %q,%v", v, ok)
	}
	gc.flushCycle(false) // drain: the blocked write must now complete
	select {
	case err := <-blocked:
		if err != nil {
			t.Fatalf("write after drain: %v", err)
		}
	case <-time.After(2 * time.Second):
		t.Fatal("write still blocked after the backlog drained")
	}
}

func (gc *GroupCommit) pendingLen() int {
	gc.mu.Lock()
	defer gc.mu.Unlock()
	return len(gc.pending)
}

func TestGroupCommitIdleDoesNotSync(t *testing.T) {
	gc, _ := newTestGroupCommit(t, GroupCommitConfig{
		FlushInterval: 2 * time.Millisecond,
		Fsync:         FsyncInterval,
	})
	defer gc.Close()
	s := New()
	s.AttachGroupCommit(gc)
	// Nothing appended: ticker fires repeatedly but must not fsync.
	time.Sleep(40 * time.Millisecond)
	if n := gc.SyncCount(); n != 0 {
		t.Fatalf("idle appender performed %d fsyncs, want 0", n)
	}
	must(t, s.Set("k", "v", at(0)))
	if err := s.SyncAOF(); err != nil {
		t.Fatal(err)
	}
	if n := gc.SyncCount(); n == 0 {
		t.Fatal("append + Sync performed no fsync")
	}
	// Once the record is durable, the ticker must go quiet again.
	settled := gc.SyncCount()
	time.Sleep(40 * time.Millisecond)
	if n := gc.SyncCount(); n != settled {
		t.Fatalf("idle appender kept fsyncing: %d -> %d", settled, n)
	}
}

// TestGroupCommitCrashDurability chops a group-commit-written active
// segment at every possible offset and asserts reopening recovers exactly
// the records that lie fully before the damage and repairs the file to
// end just past the last of them — the every-offset companion of
// TestSegmentedTailRepair's single cut.
func TestGroupCommitCrashDurability(t *testing.T) {
	gc, dir := newTestGroupCommit(t, GroupCommitConfig{})
	s := New()
	s.AttachGroupCommit(gc)
	type mut struct {
		key, value string
		sec        int
		del        bool
	}
	muts := []mut{
		{key: "a", value: "1", sec: 0},
		{key: "b", value: "two", sec: 1},
		{key: "a", value: "3", sec: 2},
		{key: "b", sec: 3, del: true},
		{key: "c", value: "final", sec: 4},
	}
	// Record the byte offset at which each record ends, using the same
	// encoder the appender uses.
	ends := make([]int, len(muts))
	off := segHeaderLen
	for i, m := range muts {
		off += len(appendRecord(nil, m.key, m.value, at(m.sec), m.del))
		ends[i] = off
		if m.del {
			must(t, s.Delete(m.key, at(m.sec)))
		} else {
			must(t, s.Set(m.key, m.value, at(m.sec)))
		}
	}
	if err := gc.Close(); err != nil {
		t.Fatal(err)
	}
	raw, err := os.ReadFile(filepath.Join(dir, segName(1, 0)))
	if err != nil {
		t.Fatal(err)
	}
	if len(raw) != off {
		t.Fatalf("active segment is %d bytes, expected %d", len(raw), off)
	}

	chopDir := t.TempDir()
	active := filepath.Join(chopDir, segName(1, 0))
	for cut := 0; cut <= len(raw); cut++ {
		complete, end := 0, segHeaderLen
		for _, e := range ends {
			if e <= cut {
				complete, end = complete+1, e
			}
		}
		if err := os.WriteFile(active, raw[:cut], 0o644); err != nil {
			t.Fatal(err)
		}
		loaded := New()
		sa, err := OpenSegmentedInto(chopDir, loaded, SegmentedConfig{})
		if err != nil {
			t.Fatalf("cut %d: replay must tolerate truncation, got %v", cut, err)
		}
		if err := sa.Close(); err != nil {
			t.Fatal(err)
		}
		st := loaded.Stats()
		if got := int(st.Writes + st.Deletes); got != complete {
			t.Fatalf("cut %d: recovered %d records, want %d", cut, got, complete)
		}
		// Every fully-written record must replay with its exact content.
		for i := 0; i < complete; i++ {
			m := muts[i]
			v, err := loaded.GetAt(m.key, at(m.sec))
			if err != nil {
				t.Fatalf("cut %d: record %d (%q) lost: %v", cut, i, m.key, err)
			}
			if v.Deleted != m.del || (!m.del && v.Value != m.value) {
				t.Fatalf("cut %d: record %d = %+v, want value %q del %v", cut, i, v, m.value, m.del)
			}
		}
		// The torn tail is gone from disk, so later appends stay reachable.
		fi, err := os.Stat(active)
		if err != nil {
			t.Fatal(err)
		}
		if fi.Size() != int64(end) {
			t.Fatalf("cut %d: repaired segment is %d bytes, want %d", cut, fi.Size(), end)
		}
	}
}

// TestShardedGroupCommitMatchesUnshardedBaseline is the acceptance check:
// a sharded store fed by concurrent writers through a group-commit AOF
// must replay to the same full dump as an unsharded, synchronously-built
// baseline.
func TestShardedGroupCommitMatchesUnshardedBaseline(t *testing.T) {
	const writers = 8
	const perWriter = 100

	gc, dir := newTestGroupCommit(t, GroupCommitConfig{})
	sharded := NewSharded(16)
	sharded.AttachGroupCommit(gc)

	var wg sync.WaitGroup
	errs := make(chan error, writers)
	for w := 0; w < writers; w++ {
		wg.Add(1)
		go func(w int) {
			defer wg.Done()
			for i := 0; i < perWriter; i++ {
				key := fmt.Sprintf("w%d-k%d", w, i%10)
				if i%7 == 6 {
					if err := sharded.Delete(key, at(i)); err != nil {
						errs <- err
						return
					}
					continue
				}
				if err := sharded.Set(key, fmt.Sprintf("v%d", i), at(i)); err != nil {
					errs <- err
					return
				}
			}
		}(w)
	}
	wg.Wait()
	close(errs)
	for err := range errs {
		t.Fatal(err)
	}
	if err := sharded.SyncAOF(); err != nil {
		t.Fatal(err)
	}
	if err := gc.Close(); err != nil {
		t.Fatal(err)
	}

	// Baseline: the same per-writer mutation streams applied sequentially
	// to a single-shard store. Writers own disjoint key sets, so per-key
	// order is deterministic regardless of scheduling.
	baseline := NewSharded(1)
	for w := 0; w < writers; w++ {
		for i := 0; i < perWriter; i++ {
			key := fmt.Sprintf("w%d-k%d", w, i%10)
			if i%7 == 6 {
				must(t, baseline.Delete(key, at(i)))
			} else {
				must(t, baseline.Set(key, fmt.Sprintf("v%d", i), at(i)))
			}
		}
	}

	dumpEqual(t, sharded, baseline)

	dumpEqual(t, loadSegments(t, dir), baseline)
}
