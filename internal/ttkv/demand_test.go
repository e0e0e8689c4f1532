package ttkv

import (
	"errors"
	"fmt"
	"sync"
	"sync/atomic"
	"testing"
	"time"
)

// countingLog wraps a real log, counting writeBatch calls; the first call
// parks on gate (when set) so a test can pile demands up behind a flush in
// flight, and fail makes every write an error.
type countingLog struct {
	LogWriter
	calls atomic.Int64
	gate  chan struct{}
	fail  atomic.Bool
}

func (c *countingLog) writeBatch(encoded []byte, records int) error {
	if c.calls.Add(1) == 1 && c.gate != nil {
		<-c.gate
	}
	if c.fail.Load() {
		return errors.New("countingLog: injected write failure")
	}
	return c.LogWriter.writeBatch(encoded, records)
}

// newDemandPrimary is a store fed through a ReplLog whose appender only ever
// flushes on request: an hour-long interval, FsyncInterval.
func newDemandPrimary(t *testing.T, log *countingLog) (*Store, *ReplLog, *GroupCommit) {
	t.Helper()
	aof, err := OpenSegmented(t.TempDir(), SegmentedConfig{})
	if err != nil {
		t.Fatal(err)
	}
	log.LogWriter = aof
	gc := NewGroupCommit(log, GroupCommitConfig{FlushInterval: time.Hour, Fsync: FsyncInterval})
	t.Cleanup(func() { gc.Close() })
	s := New()
	rl := NewReplLog(gc)
	must(t, s.AttachReplLog(rl))
	return s, rl, gc
}

func waitFor(t *testing.T, what string, cond func() bool) {
	t.Helper()
	deadline := time.Now().Add(time.Second)
	for !cond() {
		if time.Now().After(deadline) {
			t.Fatalf("%s: not within 1s", what)
		}
		time.Sleep(200 * time.Microsecond)
	}
}

// TestReplLogDemandCommitsWithoutTimer: with nobody waiting, a write stays
// in the uncommitted window until the timer (never, here); a demanded
// sequence commits promptly, per policy — no fsync under FsyncInterval.
func TestReplLogDemandCommitsWithoutTimer(t *testing.T) {
	s, rl, gc := newDemandPrimary(t, &countingLog{})
	sub, _ := rl.Subscribe(1 << 20)
	defer sub.Close()

	var seq uint64
	for i := 0; i < 3; i++ {
		var err error
		seq, err = s.SetWithSeq(fmt.Sprintf("k%d", i), "v", at(i))
		must(t, err)
	}
	if data, _, err := sub.Next(50 * time.Millisecond); err != nil || data != nil {
		t.Fatalf("undemanded records reached the subscriber: %d frames, err %v", len(data), err)
	}
	if got := rl.DurableSeq(); got != 0 {
		t.Fatalf("DurableSeq = %d with no demand and no tick, want 0", got)
	}
	if got := gc.FlushCount(); got != 0 {
		t.Fatalf("FlushCount = %d with no demand and no tick, want 0", got)
	}

	rl.Demand(seq)
	waitFor(t, "demanded seq durable", func() bool { return rl.DurableSeq() >= seq })
	if _, last, err := sub.Next(time.Second); err != nil || last != seq {
		t.Fatalf("subscriber got watermark %d, err %v; want %d", last, err, seq)
	}
	if got := gc.SyncCount(); got != 0 {
		t.Fatalf("a demand fsynced under FsyncInterval: SyncCount = %d", got)
	}
	if got := gc.FlushCount(); got != 1 {
		t.Fatalf("FlushCount = %d after one demand, want 1", got)
	}

	// Already committed: nothing to do, nothing done.
	rl.Demand(seq)
	rl.Demand(1)
	time.Sleep(20 * time.Millisecond)
	if got := gc.FlushCount(); got != 1 {
		t.Fatalf("FlushCount = %d after demanding a committed seq, want 1", got)
	}
}

// TestReplLogDemandCoalesces: demands arriving while a flush is in flight
// share the one flush queued behind it — group commit, not a flush each.
func TestReplLogDemandCoalesces(t *testing.T) {
	const demanders = 64
	log := &countingLog{gate: make(chan struct{})}
	s, rl, gc := newDemandPrimary(t, log)

	first, err := s.SetWithSeq("first", "v", at(0))
	must(t, err)
	rl.Demand(first)
	waitFor(t, "first flush in flight", func() bool { return log.calls.Load() == 1 })

	var wg sync.WaitGroup
	for i := 0; i < demanders; i++ {
		wg.Add(1)
		go func(i int) {
			defer wg.Done()
			seq, err := s.SetWithSeq(fmt.Sprintf("k%d", i), "v", at(i))
			if err != nil {
				t.Error(err)
				return
			}
			rl.Demand(seq)
		}(i)
	}
	wg.Wait()
	close(log.gate)
	waitFor(t, "every demanded seq durable", func() bool { return rl.DurableSeq() == rl.AppendedSeq() })

	// One flush was in flight, one queued behind it took all 64.
	if got := log.calls.Load(); got != 2 {
		t.Fatalf("%d demands caused %d writeBatch calls, want 2", demanders+1, got)
	}
	if got := gc.FlushCount(); got != 2 {
		t.Fatalf("FlushCount = %d, want 2", got)
	}
	if got := gc.SyncCount(); got != 0 {
		t.Fatalf("demands fsynced under FsyncInterval: SyncCount = %d", got)
	}
}

// TestReplLogDemandAfterFailureOrClose: once the appender has failed or
// closed there is nothing a demand could commit; it must not touch the log.
func TestReplLogDemandAfterFailureOrClose(t *testing.T) {
	log := &countingLog{}
	s, rl, gc := newDemandPrimary(t, log)
	log.fail.Store(true)
	seq, err := s.SetWithSeq("k", "v", at(0))
	must(t, err)
	rl.Demand(seq)
	waitFor(t, "failed write to turn sticky", func() bool { return s.Set("k2", "v", at(1)) != nil })
	calls := log.calls.Load()
	for i := 0; i < 8; i++ {
		rl.Demand(seq)
	}
	time.Sleep(20 * time.Millisecond)
	if got := log.calls.Load(); got != calls {
		t.Fatalf("demand after a sticky error reached the log: %d writeBatch calls, want %d", got, calls)
	}
	if got := rl.DurableSeq(); got != 0 {
		t.Fatalf("DurableSeq = %d after a failed flush, want 0", got)
	}

	if err := gc.Close(); err == nil {
		t.Fatal("Close after a failed flush returned nil")
	}
	rl.Demand(seq)
	if got := log.calls.Load(); got != calls {
		t.Fatalf("demand after Close reached the log: %d writeBatch calls, want %d", got, calls)
	}
	if got := gc.FlushCount(); got != 0 {
		t.Fatalf("FlushCount = %d though every write failed, want 0", got)
	}
}
