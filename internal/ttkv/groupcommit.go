package ttkv

import (
	"errors"
	"fmt"
	"sync"
	"sync/atomic"
	"time"
)

// ErrAppenderClosed is returned by GroupCommit operations after Close.
var ErrAppenderClosed = errors.New("ttkv: group-commit appender closed")

// FsyncPolicy controls when a GroupCommit fsyncs the AOF.
type FsyncPolicy int

// Fsync policies.
const (
	// FsyncInterval fsyncs once per flush interval: the default, bounding
	// data loss to one interval of mutations (Redis "everysec" semantics).
	FsyncInterval FsyncPolicy = iota
	// FsyncAlways wakes the flusher on every append and fsyncs every
	// batch it writes, shrinking the loss window to the one batch in
	// flight (records that arrived while the previous fsync ran). Group
	// commit amortizes the fsync across that batch. Appends still do not
	// block on durability; use Sync for a hard barrier.
	FsyncAlways
	// FsyncNever leaves fsync to the OS (and to explicit Sync calls).
	FsyncNever
)

// ParseFsyncPolicy parses "always", "interval", or "never".
func ParseFsyncPolicy(s string) (FsyncPolicy, error) {
	switch s {
	case "always":
		return FsyncAlways, nil
	case "interval":
		return FsyncInterval, nil
	case "never":
		return FsyncNever, nil
	default:
		return 0, fmt.Errorf("ttkv: unknown fsync policy %q (want always, interval, or never)", s)
	}
}

// String returns the flag spelling of p.
func (p FsyncPolicy) String() string {
	switch p {
	case FsyncAlways:
		return "always"
	case FsyncInterval:
		return "interval"
	case FsyncNever:
		return "never"
	default:
		return fmt.Sprintf("FsyncPolicy(%d)", int(p))
	}
}

// GroupCommitConfig tunes a GroupCommit appender. Zero values select the
// defaults noted per field.
type GroupCommitConfig struct {
	// FlushInterval is the longest a record waits in memory before the
	// batch is written (and, per policy, fsynced). Default 50ms.
	FlushInterval time.Duration
	// MaxBatchBytes triggers an early flush once this many encoded bytes
	// are pending. Default 256 KiB.
	MaxBatchBytes int
	// MaxPendingBytes caps the unflushed backlog: writers block (before
	// taking any store lock, so readers are unaffected) once about this
	// many encoded bytes await the flusher — a stalled disk applies
	// backpressure instead of growing memory without bound. Default 4 MiB
	// (never below 2x MaxBatchBytes).
	MaxPendingBytes int
	// Fsync is the durability policy. Default FsyncInterval.
	Fsync FsyncPolicy
}

func (c GroupCommitConfig) withDefaults() GroupCommitConfig {
	if c.FlushInterval <= 0 {
		c.FlushInterval = 50 * time.Millisecond
	}
	if c.MaxBatchBytes <= 0 {
		c.MaxBatchBytes = 256 << 10
	}
	if c.MaxPendingBytes <= 0 {
		c.MaxPendingBytes = 4 << 20
	}
	if c.MaxPendingBytes < 2*c.MaxBatchBytes {
		c.MaxPendingBytes = 2 * c.MaxBatchBytes
	}
	return c
}

// LogWriter is the append-only log a GroupCommit flushes into — a
// SegmentedAOF, or a test wrapper around one. The methods are unexported
// on purpose — only this package's log types can be group-committed,
// which keeps the batching contract internal (writeBatch and flushOS are
// called from the single flusher goroutine only).
type LogWriter interface {
	// writeBatch appends a batch of pre-encoded AOF records; records is
	// how many complete records the batch holds (the segmented log uses
	// it to maintain its per-segment sequence-range index).
	writeBatch(encoded []byte, records int) error
	// flushOS pushes buffered bytes to the OS without fsyncing.
	flushOS() error
	// Sync flushes buffered bytes and fsyncs.
	Sync() error
	// Close flushes and closes the log.
	Close() error
}

// GroupCommit batches AOF appends off the store's shard locks. Writers
// encode records into an in-memory buffer (a cheap memcpy under the shard
// lock); a background goroutine writes accumulated batches to the log and
// fsyncs per policy. Sync is a barrier: it returns once everything
// appended before the call is flushed AND fsynced, whatever the policy.
// Close drains all pending records, fsyncs, and closes the log.
//
// Because writers enqueue while still holding their shard lock, the log
// preserves per-key mutation order exactly; replay therefore rebuilds
// identical per-key histories.
//
//ocasta:durable
type GroupCommit struct {
	aof LogWriter
	cfg GroupCommitConfig

	mu          sync.Mutex
	cond        *sync.Cond
	pending     []byte // encoded records not yet handed to the flusher
	pendingRecs int    // how many complete records pending holds
	scratch     []byte // recycled buffer for the next pending batch
	gen         uint64 // generation of the latest appended record
	synced      uint64 // generation fsynced
	wantSync    uint64 // highest generation an explicit Sync requires durable
	err         error  // first flush error; sticky
	closed      bool

	// syncs counts completed fsyncs and flushes counts batches written to
	// the log (observability; tests assert an idle appender does neither
	// and that concurrent demands coalesce).
	syncs   atomic.Uint64
	flushes atomic.Uint64

	// onCommit, when set, is called after each successful flush cycle with
	// the total number of records committed to the AOF so far (written to
	// the OS, and fsynced when the policy or a Sync barrier required it).
	// The replication log uses it as its durability gate: a record is
	// shipped to replicas only once this callback has covered it. Called
	// from the flusher goroutine only, outside gc.mu, in strictly
	// non-decreasing gen order. Set before any append (setOnCommit).
	//ocasta:nolock
	onCommit func(gen uint64)
	notified uint64 // highest gen passed to onCommit; flusher-only

	wake      chan struct{}
	quit      chan struct{}
	done      chan struct{}
	closeOnce sync.Once
	closeDone chan struct{} // closed once the AOF is closed and gc.err final
}

// SyncCount reports how many fsyncs the appender has performed.
func (gc *GroupCommit) SyncCount() uint64 { return gc.syncs.Load() }

// FlushCount reports how many non-empty batches the appender has written
// to the log (each one writeBatch call, whatever the fsync policy).
func (gc *GroupCommit) FlushCount() uint64 { return gc.flushes.Load() }

// setOnCommit installs the post-flush commit callback. It must be called
// before the appender receives its first record (NewReplLog does, before
// the log is attached to a store), so no commit can be missed.
func (gc *GroupCommit) setOnCommit(fn func(gen uint64)) {
	gc.mu.Lock()
	defer gc.mu.Unlock()
	gc.onCommit = fn
}

// NewGroupCommit wraps a (typically freshly opened) log in a
// group-commit appender and starts its background flusher. The appender assumes sole ownership of the log until Close.
func NewGroupCommit(a LogWriter, cfg GroupCommitConfig) *GroupCommit {
	gc := &GroupCommit{
		aof:       a,
		cfg:       cfg.withDefaults(),
		wake:      make(chan struct{}, 1),
		quit:      make(chan struct{}),
		done:      make(chan struct{}),
		closeDone: make(chan struct{}),
	}
	gc.cond = sync.NewCond(&gc.mu)
	go gc.run()
	return gc
}

// append implements aofSink. It only copies bytes; disk I/O happens on the
// flusher goroutine. A sticky flush error is reported here so writers
// learn that persistence is failing.
// waitCapacity implements the store's pre-lock backpressure gate: it
// blocks while the backlog is at its cap, so a disk stall pauses writers
// before they take any shard lock — readers stay unaffected. The cap is
// approximate: writers already past the gate may overshoot it by their
// in-flight records.
func (gc *GroupCommit) waitCapacity() error {
	gc.mu.Lock()
	defer gc.mu.Unlock()
	for len(gc.pending) >= gc.cfg.MaxPendingBytes && gc.err == nil && !gc.closed {
		gc.signal()
		gc.cond.Wait()
	}
	if gc.err != nil {
		return gc.err
	}
	if gc.closed {
		return ErrAppenderClosed
	}
	return nil
}

func (gc *GroupCommit) append(key, value string, t time.Time, deleted bool) error {
	gc.mu.Lock()
	if gc.err != nil {
		err := gc.err
		gc.mu.Unlock()
		return err
	}
	if gc.closed {
		gc.mu.Unlock()
		return ErrAppenderClosed
	}
	gc.pending = appendRecord(gc.pending, key, value, t, deleted)
	gc.pendingRecs++
	gc.gen++
	full := len(gc.pending) >= gc.cfg.MaxBatchBytes
	gc.mu.Unlock()
	// FsyncAlways flushes eagerly on every append, not just on batch-size
	// pressure, so a record's loss window is one in-flight batch rather
	// than a full flush interval.
	if full || gc.cfg.Fsync == FsyncAlways {
		gc.signal()
	}
	return nil
}

// appendEncodedBatch enqueues n pre-encoded AOF records as one indivisible
// unit: all n land in the same flush batch, so the commit callback can
// never cover a prefix of them. The replication log uses it for atomic
// cluster-revert batches — the durable watermark (and with it the
// snapshot/tail boundary a resuming replica syncs at) stays batch-aligned.
func (gc *GroupCommit) appendEncodedBatch(encoded []byte, n int) error {
	gc.mu.Lock()
	if gc.err != nil {
		err := gc.err
		gc.mu.Unlock()
		return err
	}
	if gc.closed {
		gc.mu.Unlock()
		return ErrAppenderClosed
	}
	gc.pending = append(gc.pending, encoded...)
	gc.pendingRecs += n
	gc.gen += uint64(n)
	full := len(gc.pending) >= gc.cfg.MaxBatchBytes
	gc.mu.Unlock()
	if full || gc.cfg.Fsync == FsyncAlways {
		gc.signal()
	}
	return nil
}

func (gc *GroupCommit) signal() {
	select {
	case gc.wake <- struct{}{}:
	default:
	}
}

// demand asks the flusher to commit what is pending now instead of at the
// next timer tick: a writer is waiting on it (the replication log's
// semi-sync path). It is the same wake-up batch-size pressure uses, so the
// flush honours the fsync policy — under interval or never it writes and
// flushes to the OS, no extra fsync. With nothing pending every appended
// record is already in a started flush cycle (its commit callback is on the
// way), and the wake channel holds one signal, so concurrent demanders
// coalesce: one flush in flight, at most one queued behind it. A no-op
// after Close or a sticky error.
func (gc *GroupCommit) demand() {
	gc.mu.Lock()
	need := len(gc.pending) > 0 && gc.err == nil && !gc.closed
	gc.mu.Unlock()
	if need {
		gc.signal()
	}
}

// Sync blocks until every record appended before the call is written and
// fsynced, regardless of fsync policy.
func (gc *GroupCommit) Sync() error {
	gc.mu.Lock()
	if gc.err != nil {
		err := gc.err
		gc.mu.Unlock()
		return err
	}
	if gc.closed {
		gc.mu.Unlock()
		return ErrAppenderClosed
	}
	g := gc.gen
	if g > gc.wantSync {
		gc.wantSync = g
	}
	gc.mu.Unlock()
	gc.signal()
	gc.mu.Lock()
	defer gc.mu.Unlock()
	for gc.synced < g && gc.err == nil && !gc.closed {
		gc.cond.Wait()
	}
	if gc.err != nil {
		return gc.err
	}
	if gc.synced < g {
		return ErrAppenderClosed
	}
	return nil
}

// Close drains pending records, fsyncs, closes the AOF, and stops the
// flusher. It is idempotent and safe for concurrent use: every caller
// blocks until shutdown has fully completed (AOF closed, final error
// recorded) and observes the same result. After Close, append and Sync
// fail.
func (gc *GroupCommit) Close() error {
	gc.closeOnce.Do(func() {
		gc.mu.Lock()
		gc.closed = true
		gc.mu.Unlock()
		close(gc.quit)
		<-gc.done // final drain flush has run
		aofErr := gc.aof.Close()
		gc.mu.Lock()
		if gc.err == nil {
			gc.err = aofErr
		}
		gc.cond.Broadcast()
		gc.mu.Unlock()
		close(gc.closeDone)
	})
	<-gc.closeDone
	gc.mu.Lock()
	defer gc.mu.Unlock()
	return gc.err
}

// run is the flusher goroutine: it wakes on the interval ticker, on
// batch-size pressure, on a waiting writer's demand, and on Sync barriers,
// and performs one flush cycle per wakeup.
func (gc *GroupCommit) run() {
	defer close(gc.done)
	ticker := time.NewTicker(gc.cfg.FlushInterval)
	defer ticker.Stop()
	for {
		select {
		case <-gc.quit:
			gc.flushCycle(true) // final drain: always durable
			return
		case <-ticker.C:
			gc.flushCycle(gc.cfg.Fsync != FsyncNever)
		case <-gc.wake:
			gc.flushCycle(gc.cfg.Fsync == FsyncAlways)
		}
	}
}

// flushCycle hands the pending batch to the AOF, flushes it to the OS, and
// fsyncs when the policy or a pending Sync barrier requires it.
func (gc *GroupCommit) flushCycle(policySync bool) {
	gc.mu.Lock()
	if gc.err != nil {
		gc.mu.Unlock()
		return
	}
	batch := gc.pending
	batchRecs := gc.pendingRecs
	gc.pending = gc.scratch[:0]
	gc.pendingRecs = 0
	gc.scratch = batch
	target := gc.gen
	commitCb := gc.onCommit
	// Sync only when there is something new to make durable: an idle
	// daemon must not fsync an unchanged file every tick.
	doSync := (policySync || gc.wantSync > gc.synced) && target > gc.synced
	gc.mu.Unlock()

	var err error
	if len(batch) > 0 {
		if err = gc.aof.writeBatch(batch, batchRecs); err == nil {
			gc.flushes.Add(1)
		}
	}
	if err == nil {
		if doSync {
			if err = gc.aof.Sync(); err == nil {
				gc.syncs.Add(1)
			}
		} else if len(batch) > 0 {
			err = gc.aof.flushOS()
		}
	}

	// Report the commit before updating synced/broadcasting, so a Sync
	// caller that unblocks has the guarantee that the replication log's
	// durability watermark already covers its records.
	if err == nil && target > gc.notified {
		gc.notified = target
		if commitCb != nil {
			commitCb(target)
		}
	}

	gc.mu.Lock()
	if err != nil {
		if gc.err == nil {
			gc.err = err
		}
	} else if doSync && target > gc.synced {
		gc.synced = target
	}
	gc.cond.Broadcast()
	gc.mu.Unlock()
}
