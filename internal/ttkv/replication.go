package ttkv

import (
	"encoding/binary"
	"errors"
	"fmt"
	"sort"
	"sync"
	"time"
)

// Replication errors.
var (
	// ErrReplCorrupt is returned by DecodeReplRecord for bytes that are
	// not a well-formed replication record.
	ErrReplCorrupt = errors.New("ttkv: corrupt replication record")
	// ErrReplUnbound is returned by a ReplLog that receives an append
	// before being attached to a store.
	ErrReplUnbound = errors.New("ttkv: replication log not attached to a store")
	// ErrReplBound is returned by AttachReplLog when the log is already
	// attached to a different store.
	ErrReplBound = errors.New("ttkv: replication log already attached to another store")
	// ErrReplSeq is returned by ApplyReplicated when a record's sequence
	// number does not advance past everything already applied — the
	// exactly-once tripwire: a duplicated or reordered stream trips it
	// instead of silently corrupting history.
	ErrReplSeq = errors.New("ttkv: replicated record does not advance the applied sequence")
	// ErrReplSinkAttached is returned by ApplyReplicated and Reset on a
	// store with a persistence sink: replicas replay the primary's records
	// verbatim and must not re-log or re-mint them.
	ErrReplSinkAttached = errors.New("ttkv: store has a persistence sink attached")
	// ErrReplSubClosed is returned by ReplSub.Next after Close.
	ErrReplSubClosed = errors.New("ttkv: replication subscription closed")
	// ErrReplSubLagging is returned by ReplSub.Next when the subscriber's
	// bounded outbox overflowed: the replica fell too far behind and must
	// reconnect (it will resume from its last applied sequence).
	ErrReplSubLagging = errors.New("ttkv: replication subscriber outbox overflowed")
)

// ReplRecord is one replicated store mutation. Unlike an AOF record it
// carries the primary's store-wide sequence number, so a replica rebuilds
// not just the same per-key histories but the same global version order —
// dumps of a drained replica are byte-identical to the primary's.
// BatchOpen marks a record as a non-final member of an atomic batch (a
// cluster revert): a replica buffers until the batch closes and applies
// the whole group under every involved shard lock at once, preserving the
// primary's all-or-nothing visibility.
type ReplRecord struct {
	Seq       uint64
	Key       string
	Value     string
	Time      time.Time
	Deleted   bool
	BatchOpen bool
}

// Replication record flag bits.
const (
	replFlagDeleted   = 0x1
	replFlagBatchOpen = 0x2
	replFlagsKnown    = replFlagDeleted | replFlagBatchOpen
)

// AppendReplRecord encodes r onto dst and returns the extended slice.
// Layout: flags u8 | seq u64 | unixnanos i64 | keylen u32 | key
// [| vallen u32 | value], the value omitted for deletions (as in the AOF
// format, which this framing extends with flags and the sequence number).
func AppendReplRecord(dst []byte, r ReplRecord) []byte {
	var flags byte
	if r.Deleted {
		flags |= replFlagDeleted
	}
	if r.BatchOpen {
		flags |= replFlagBatchOpen
	}
	dst = append(dst, flags)
	dst = binary.LittleEndian.AppendUint64(dst, r.Seq)
	dst = binary.LittleEndian.AppendUint64(dst, uint64(r.Time.UnixNano()))
	dst = appendLenPrefixed(dst, r.Key)
	if !r.Deleted {
		dst = appendLenPrefixed(dst, r.Value)
	}
	return dst
}

// replRecordLen is the length of r's encoding.
func replRecordLen(r ReplRecord) int {
	n := 1 + 8 + 8 + 4 + len(r.Key)
	if !r.Deleted {
		n += 4 + len(r.Value)
	}
	return n
}

// DecodeReplRecord decodes one record from the front of b, returning the
// record and how many bytes it consumed. Truncated or malformed bytes are
// ErrReplCorrupt: the stream framing delivers whole records, so a partial
// record is damage, not a retry condition.
func DecodeReplRecord(b []byte) (ReplRecord, int, error) {
	const header = 1 + 8 + 8 // flags + seq + nanos
	if len(b) < header {
		return ReplRecord{}, 0, fmt.Errorf("%w: truncated header", ErrReplCorrupt)
	}
	flags := b[0]
	if flags&^byte(replFlagsKnown) != 0 {
		return ReplRecord{}, 0, fmt.Errorf("%w: unknown flags %#x", ErrReplCorrupt, flags)
	}
	r := ReplRecord{
		Seq:       binary.LittleEndian.Uint64(b[1:]),
		Time:      time.Unix(0, int64(binary.LittleEndian.Uint64(b[9:]))).UTC(),
		Deleted:   flags&replFlagDeleted != 0,
		BatchOpen: flags&replFlagBatchOpen != 0,
	}
	n := header
	var err error
	if r.Key, n, err = replDecodeString(b, n); err != nil {
		return ReplRecord{}, 0, err
	}
	if !r.Deleted {
		if r.Value, n, err = replDecodeString(b, n); err != nil {
			return ReplRecord{}, 0, err
		}
	}
	return r, n, nil
}

// replDecodeString decodes one length-prefixed string at offset n.
func replDecodeString(b []byte, n int) (string, int, error) {
	if len(b)-n < 4 {
		return "", 0, fmt.Errorf("%w: truncated length", ErrReplCorrupt)
	}
	l := binary.LittleEndian.Uint32(b[n:])
	if l > MaxStringLen {
		return "", 0, fmt.Errorf("%w: string length %d", ErrReplCorrupt, l)
	}
	n += 4
	if len(b)-n < int(l) {
		return "", 0, fmt.Errorf("%w: truncated string", ErrReplCorrupt)
	}
	return string(b[n : n+int(l)]), n + int(l), nil
}

// replEntry is one committed-pending record in the log window.
type replEntry struct {
	seq     uint64
	gcIndex uint64 // the group-commit gen this record was accepted as
	data    []byte // its full encoding, shared read-only with outboxes
}

// ReplLog is the primary side of replication: a seq-assigning persistence
// sink that sits between the store and its group-commit appender. Every
// mutation flows through appendSeq under the log's lock, which mints the
// store-wide sequence number and forwards the record to the AOF appender
// in the same critical section — so the AOF byte order, the replication
// stream order, and the sequence order all coincide, and AOF replay on
// restart re-mints identical sequence numbers.
//
// Records are fanned out to subscriber outboxes only once the appender's
// commit callback covers them (written to the OS, fsynced per policy):
// a replica never sees a record the primary itself could still lose.
// With no appender (an in-memory primary), records commit instantly.
//
// Outboxes are bounded: a subscriber that falls behind its byte budget is
// dropped (ErrReplSubLagging) and the replica reconnects, resuming from
// its last applied sequence — backpressure never propagates to writers.
//
//ocasta:durable
type ReplLog struct {
	gc *GroupCommit // nil: records commit the instant they append

	mu          sync.Mutex
	store       *Store
	window      []replEntry // appended but not yet committed, in seq order
	gcCount     uint64      // records accepted by gc (== its gen, as its sole feeder)
	durableSeq  uint64      // newest committed (fanned-out) sequence
	appendedSeq uint64      // newest minted sequence
	slab        []byte      // record encodings are carved from its tail (stageLocked)
	epoch       uint64      // failover fencing term of this primary incarnation
	subs        map[*ReplSub]struct{}
}

// NewReplLog returns a replication log feeding gc (which must be fresh:
// the log must observe every commit). gc may be nil for an in-memory
// primary with no AOF; records are then shippable the moment they apply.
// Attach the log with Store.AttachReplLog.
func NewReplLog(gc *GroupCommit) *ReplLog {
	rl := &ReplLog{gc: gc, subs: make(map[*ReplSub]struct{})}
	if gc != nil {
		gc.setOnCommit(rl.onCommit)
	}
	return rl
}

// AttachReplLog makes rl the store's persistence sink and sequence minter:
// every subsequent mutation is encoded into the replication stream (and
// forwarded to rl's group-commit appender, if any). Attach after AOF
// replay, before serving writes. Pass nil to detach the sink.
func (s *Store) AttachReplLog(rl *ReplLog) error {
	if rl == nil {
		s.sink.Store(nil)
		return nil
	}
	rl.mu.Lock()
	if rl.store != nil && rl.store != s {
		rl.mu.Unlock()
		return ErrReplBound
	}
	rl.store = s
	// The store counter continues from whatever replay minted; the log's
	// own watermarks start at that boundary, so pre-attach history is
	// served to replicas via snapshots, never from the live window.
	seq := s.seq.Load()
	if rl.appendedSeq < seq {
		rl.appendedSeq = seq
	}
	if rl.durableSeq < seq {
		rl.durableSeq = seq
	}
	rl.mu.Unlock()
	s.sink.Store(&sinkBox{sink: rl})
	return nil
}

// DurableSeq returns the newest sequence number committed to the AOF per
// policy and therefore shippable to replicas. Everything at or below it is
// also visible in the store (appends and inserts share the shard lock).
func (rl *ReplLog) DurableSeq() uint64 {
	rl.mu.Lock()
	defer rl.mu.Unlock()
	return rl.durableSeq
}

// AppendedSeq returns the newest minted sequence number.
func (rl *ReplLog) AppendedSeq() uint64 {
	rl.mu.Lock()
	defer rl.mu.Unlock()
	return rl.appendedSeq
}

// SetEpoch records the failover fencing term of this primary incarnation.
// Epochs are strictly increasing across promotions: a node promoting
// itself adopts one more than the highest epoch it has observed, so a
// revived stale primary — still carrying the old epoch — recognizes the
// new leader as more recent and demotes. Set once, before the log starts
// serving replicas.
func (rl *ReplLog) SetEpoch(epoch uint64) {
	rl.mu.Lock()
	rl.epoch = epoch
	rl.mu.Unlock()
}

// Epoch returns the fencing term set by SetEpoch (zero when failover is
// not in use).
func (rl *ReplLog) Epoch() uint64 {
	rl.mu.Lock()
	defer rl.mu.Unlock()
	return rl.epoch
}

// Sync implements the sink's durability barrier by delegating to the
// appender; with no appender it is a no-op. After Sync returns, every
// record appended before the call is also past the replication durability
// gate (the commit callback runs before Sync unblocks).
func (rl *ReplLog) Sync() error {
	if rl.gc != nil {
		return rl.gc.Sync()
	}
	return nil
}

// Demand tells the log that a writer is about to wait for seq to reach
// replicas. Records ship only once committed, and under the interval and
// never fsync policies nothing but the flush timer commits them; if the
// durable watermark does not cover seq yet, the appender is nudged to run
// its flush cycle now (per policy — see GroupCommit.demand), so the wait
// costs one commit rather than what is left of the flush interval. Writers
// nobody waits on keep the timer. A no-op with no appender, for a sequence
// already committed, and after the appender closed or failed.
func (rl *ReplLog) Demand(seq uint64) {
	if rl.gc == nil {
		return
	}
	rl.mu.Lock()
	committed := seq <= rl.durableSeq
	rl.mu.Unlock()
	if !committed {
		rl.gc.demand()
	}
}

// append implements aofSink. The store prefers the seq-assigning variant;
// this exists so a ReplLog is a valid sink wherever one is expected.
func (rl *ReplLog) append(key, value string, t time.Time, deleted bool) error {
	_, err := rl.appendSeq(key, value, t, deleted)
	return err
}

// waitCapacity forwards the store's pre-lock backpressure gate to the
// appender, preserving the disk-stall behavior of a plain group commit.
func (rl *ReplLog) waitCapacity() error {
	if rl.gc != nil {
		return rl.gc.waitCapacity()
	}
	return nil
}

// appendSeq implements seqSink: forward to the AOF appender, mint the
// sequence number, and stage the encoded record for post-commit fan-out —
// all under rl.mu, which is what makes stream order equal seq order.
func (rl *ReplLog) appendSeq(key, value string, t time.Time, deleted bool) (uint64, error) {
	rl.mu.Lock()
	defer rl.mu.Unlock()
	seq, err := rl.appendLocked(key, value, t, deleted)
	if err != nil {
		return 0, err
	}
	if rl.gc == nil {
		rl.commitLocked(rl.gcCount)
	}
	return seq, nil
}

// appendSeqBatch implements batchSeqSink: the whole batch is staged under
// one lock hold and handed to the appender as one indivisible enqueue, so
// it occupies a contiguous run of sequence numbers, of the replication
// stream, and of a single flush batch — the durable watermark can never
// land mid-batch, and a replica applies the group atomically whether it
// arrives on the live tail or sits just past a resume boundary. An
// appender error rejects the whole batch: nothing reaches the AOF,
// nothing is minted.
func (rl *ReplLog) appendSeqBatch(muts []Mutation) ([]uint64, error) {
	rl.mu.Lock()
	defer rl.mu.Unlock()
	if rl.store == nil {
		return nil, ErrReplUnbound
	}
	if rl.gc != nil {
		var encoded []byte
		for i := range muts {
			encoded = appendRecord(encoded, muts[i].Key, muts[i].Value, muts[i].Time, muts[i].Delete)
		}
		if err := rl.gc.appendEncodedBatch(encoded, len(muts)); err != nil {
			return nil, err
		}
	}
	seqs := make([]uint64, len(muts))
	for i := range muts {
		m := &muts[i]
		seqs[i] = rl.stageLocked(m.Key, m.Value, m.Time, m.Delete, i < len(muts)-1)
	}
	if rl.gc == nil {
		rl.commitLocked(rl.gcCount)
	}
	return seqs, nil
}

// stageLocked mints one record's sequence number and stages its encoding
// for post-commit fan-out. Caller holds rl.mu, has verified the log is
// bound, and has already handed the record to the appender (gcIndex
// mirrors the appender's gen because this log is its sole feeder).
func (rl *ReplLog) stageLocked(key, value string, t time.Time, deleted, batchOpen bool) uint64 {
	rl.gcCount++
	seq := rl.store.seq.Add(1)
	rec := ReplRecord{Seq: seq, Key: key, Value: value, Time: t, Deleted: deleted, BatchOpen: batchOpen}
	// One allocation per slab, not per record: encodings are immutable once
	// staged, so records can share a backing array (a slab is collected
	// when the last outbox drops its last record).
	if n := replRecordLen(rec); cap(rl.slab)-len(rl.slab) < n {
		rl.slab = make([]byte, 0, max(n, replSlabBytes))
	}
	start := len(rl.slab)
	rl.slab = AppendReplRecord(rl.slab, rec)
	rl.window = append(rl.window, replEntry{seq: seq, gcIndex: rl.gcCount, data: rl.slab[start:len(rl.slab):len(rl.slab)]})
	rl.appendedSeq = seq
	return seq
}

// replSlabBytes is the size of the slabs stageLocked carves record
// encodings from (a larger record gets a slab of its own).
const replSlabBytes = 64 << 10

// appendLocked forwards one record to the appender, mints its sequence
// number, and stages its encoding. Caller holds rl.mu.
func (rl *ReplLog) appendLocked(key, value string, t time.Time, deleted bool) (uint64, error) {
	if rl.store == nil {
		return 0, ErrReplUnbound
	}
	if rl.gc != nil {
		if err := rl.gc.append(key, value, t, deleted); err != nil {
			return 0, err
		}
	}
	return rl.stageLocked(key, value, t, deleted, false), nil
}

// onCommit is the appender's post-flush callback: records accepted as gen
// <= upTo are now committed; fan them out. Runs on the flusher goroutine.
func (rl *ReplLog) onCommit(upTo uint64) {
	rl.mu.Lock()
	rl.commitLocked(upTo)
	rl.mu.Unlock()
}

// commitLocked fans every window entry accepted at or before gc gen upTo
// out to the subscribers and advances the durable watermark. Caller holds
// rl.mu. Entries are in both seq and gen order, so this is a prefix move.
func (rl *ReplLog) commitLocked(upTo uint64) {
	n := 0
	for n < len(rl.window) && rl.window[n].gcIndex <= upTo {
		n++
	}
	if n == 0 {
		return
	}
	batch := rl.window[:n]
	for sub := range rl.subs {
		sub.push(batch)
	}
	rl.durableSeq = batch[n-1].seq
	rl.window = append(rl.window[:0], rl.window[n:]...)
}

// Subscribe registers a bounded outbox. Records with sequence numbers
// above the returned watermark will be delivered to it exactly once, in
// order; everything at or below the watermark is already committed and
// visible in the store, so the caller snapshots that range directly
// (Store.ReplSnapshot) — the two sources partition the stream cleanly.
// maxBytes bounds the outbox backlog; beyond it the subscriber is dropped.
func (rl *ReplLog) Subscribe(maxBytes int) (*ReplSub, uint64) {
	if maxBytes <= 0 {
		maxBytes = DefaultOutboxBytes
	}
	sub := &ReplSub{rl: rl, max: maxBytes, wake: make(chan struct{}, 1)}
	rl.mu.Lock()
	rl.subs[sub] = struct{}{}
	from := rl.durableSeq
	rl.mu.Unlock()
	return sub, from
}

// DefaultOutboxBytes is the per-replica outbox bound used when the caller
// does not choose one: large enough to ride out a multi-second stall on a
// busy primary, small enough that a wedged replica cannot hold the heap.
const DefaultOutboxBytes = 64 << 20

// ReplSub is one subscriber's bounded outbox of committed records.
type ReplSub struct {
	rl    *ReplLog
	max   int
	wake  chan struct{}
	timer *time.Timer // Next's timeout, re-armed per call instead of allocated

	mu    sync.Mutex
	queue [][]byte // encoded records, oldest first
	bytes int
	last  uint64 // newest queued sequence
	err   error  // terminal: lagging or closed
}

// push stages committed entries; called with rl.mu held.
func (sub *ReplSub) push(entries []replEntry) {
	sub.mu.Lock()
	defer sub.mu.Unlock()
	if sub.err != nil {
		return
	}
	for i := range entries {
		sub.bytes += len(entries[i].data)
	}
	if sub.bytes > sub.max {
		sub.err = ErrReplSubLagging
		sub.queue, sub.bytes = nil, 0
		sub.signal()
		return
	}
	for i := range entries {
		sub.queue = append(sub.queue, entries[i].data)
	}
	sub.last = entries[len(entries)-1].seq
	sub.signal()
}

func (sub *ReplSub) signal() {
	select {
	case sub.wake <- struct{}{}:
	default:
	}
}

// Next blocks until records are queued, the timeout elapses (nil, nil —
// the caller's heartbeat turn), or the subscription terminates. Returned
// slices are shared read-only encodings; the newest delivered sequence
// number accompanies them for lag accounting. One consumer at a time.
func (sub *ReplSub) Next(timeout time.Duration) (data [][]byte, lastSeq uint64, err error) {
	if sub.timer == nil {
		sub.timer = time.NewTimer(timeout)
	} else {
		sub.timer.Reset(timeout) // no stale tick to drain: Go 1.23+ timers
	}
	timer := sub.timer
	defer timer.Stop()
	for {
		sub.mu.Lock()
		if len(sub.queue) > 0 {
			data, lastSeq = sub.queue, sub.last
			sub.queue, sub.bytes = nil, 0
			sub.mu.Unlock()
			return data, lastSeq, nil
		}
		if sub.err != nil {
			err = sub.err
			sub.mu.Unlock()
			return nil, 0, err
		}
		sub.mu.Unlock()
		select {
		case <-sub.wake:
		case <-timer.C:
			return nil, 0, nil
		}
	}
}

// QueuedBytes reports the outbox backlog, for lag accounting.
func (sub *ReplSub) QueuedBytes() int {
	sub.mu.Lock()
	defer sub.mu.Unlock()
	return sub.bytes
}

// Close unregisters the subscriber and wakes any blocked Next.
func (sub *ReplSub) Close() {
	sub.rl.mu.Lock()
	delete(sub.rl.subs, sub)
	sub.rl.mu.Unlock()
	sub.mu.Lock()
	if sub.err == nil {
		sub.err = ErrReplSubClosed
	}
	sub.queue, sub.bytes = nil, 0
	sub.signal()
	sub.mu.Unlock()
}

// ReplSnapshot collects every version with sequence number in
// (afterSeq, upToSeq], ordered by sequence — the snapshot phase of a SYNC.
// upToSeq must be at or below a committed watermark (ReplLog.Subscribe
// returns one). The scan is lock-free: it first waits for the publication
// watermark to cover upToSeq — every version it promises to return is then
// fully inserted into its record's published state — and then walks the
// published states without touching a lock, so a snapshot of any size
// never blocks writers. Callers stream large histories in bounded
// sub-ranges; the returned records carry no atomic-batch flags (the store
// does not record batch membership), so catch-up replay is record-ordered
// like an AOF replay — resume boundaries themselves stay batch-aligned
// because the durable watermark never lands inside a batch.
func (s *Store) ReplSnapshot(afterSeq, upToSeq uint64) []ReplRecord {
	s.waitVisible(upToSeq)
	var out []ReplRecord
	for i := range s.shards {
		for k, rec := range s.shards[i].load() {
			vs := rec.state.Load().versions
			for j := range vs {
				v := &vs[j]
				if v.Seq > afterSeq && v.Seq <= upToSeq {
					out = append(out, ReplRecord{
						Seq: v.Seq, Key: k, Value: v.Value, Time: v.Time, Deleted: v.Deleted,
					})
				}
			}
		}
	}
	sort.Slice(out, func(a, b int) bool { return out[a].Seq < out[b].Seq })
	return out
}

// ErrExportRange is returned by ExportRange for a range the store cannot
// serve consistently: the range is inverted, ends past the store's
// current sequence, or the store was Reset (replica full resync) while
// the export scanned — its counter fell below the pinned bound, so the
// scan may mix sequence incarnations and is discarded.
var ErrExportRange = errors.New("ttkv: export range not consistently readable")

// ExportRange returns every version with sequence number in
// (afterSeq, upToSeq], ordered by sequence — ReplSnapshot plus the
// validation a backup needs. Pinning upToSeq at a value read from
// CurrentSeq before the scan is safe on any store: CurrentSeq is the
// publication watermark, so everything at or below the pin is already
// fully inserted into the published record states the lock-free scan
// walks — the export never misses a record it claims to cover, without
// taking a single lock or blocking writers at all. A pin above the
// watermark (a caller racing in-flight writers) waits for publication to
// catch up before scanning. The post-scan counter re-check downgrades the
// one hole — a replica Reset for full resync mid-scan — from silent
// corruption to an error; the caller retries after the resync settles.
func (s *Store) ExportRange(afterSeq, upToSeq uint64) ([]ReplRecord, error) {
	if afterSeq > upToSeq {
		return nil, fmt.Errorf("%w: (%d, %d]", ErrExportRange, afterSeq, upToSeq)
	}
	if cur := s.seq.Load(); cur < upToSeq {
		return nil, fmt.Errorf("%w: store at seq %d, range ends at %d", ErrExportRange, cur, upToSeq)
	}
	if !s.waitVisible(upToSeq) {
		return nil, fmt.Errorf("%w: store reset while waiting for seq %d to publish", ErrExportRange, upToSeq)
	}
	recs := s.ReplSnapshot(afterSeq, upToSeq)
	if cur := s.seq.Load(); cur < upToSeq {
		return nil, fmt.Errorf("%w: store reset mid-export (seq fell to %d)", ErrExportRange, cur)
	}
	return recs, nil
}

// ApplyReplicated applies a chunk of replicated records to a replica
// store: each version is inserted with the primary's sequence number, so
// the replica's histories — and its snapshot dumps — are byte-identical
// to the primary's once lag drains. The whole chunk is inserted before
// the publication watermark advances across it in one step, so an atomic
// batch inside it (a cluster revert) is never readable half-applied,
// exactly as on the primary. Sequence numbers must strictly ascend past
// everything already applied (ErrReplSeq otherwise — a duplicate or
// reordered stream fails loudly), and the store must have no persistence
// sink attached.
func (s *Store) ApplyReplicated(recs []ReplRecord) error {
	if len(recs) == 0 {
		return nil
	}
	if s.sink.Load() != nil {
		return ErrReplSinkAttached
	}
	last := s.seq.Load()
	for i := range recs {
		r := &recs[i]
		if r.Key == "" {
			return ErrEmptyKey
		}
		if r.Time.IsZero() {
			return ErrZeroTime
		}
		if len(r.Key) > MaxStringLen || len(r.Value) > MaxStringLen {
			return ErrOversize
		}
		if r.Seq <= last {
			return fmt.Errorf("%w: seq %d after %d", ErrReplSeq, r.Seq, last)
		}
		last = r.Seq
	}

	unlock := s.lockShardsFor(func(yield func(string) bool) {
		for i := range recs {
			if !yield(recs[i].Key) {
				return
			}
		}
	})
	for i := range recs {
		r := &recs[i]
		s.insertLocked(&s.shards[s.shardIndex(r.Key)], r.Key, r.Value, r.Time, r.Deleted, r.Seq)
	}
	// Advance the counter so ViewAt bounds cover the chunk; max-CAS in
	// case a misuse races this with local minting (the sink check above
	// rules out the supported configurations).
	for {
		cur := s.seq.Load()
		if cur >= last || s.seq.CompareAndSwap(cur, last) {
			break
		}
	}
	unlock()
	// Publish the whole chunk in one watermark jump: lock-free readers
	// flip from seeing none of it to all of it atomically.
	s.pub.advanceTo(last)

	// Observer calls run outside the shard locks by contract.
	if obs := s.statsObserver(); obs != nil {
		for i := range recs {
			obs.ObserveWrite(recs[i].Key, recs[i].Time, recs[i].Deleted)
		}
	}
	return nil
}

// Reset empties the store in place: all histories, counters, and the
// sequence counter. A replica told to full-resync (the primary restarted
// or was replaced) calls it before replaying the new snapshot, so stale
// divergent history cannot shadow the new stream. Refused while a
// persistence sink is attached.
func (s *Store) Reset() error {
	if s.sink.Load() != nil {
		return ErrReplSinkAttached
	}
	for i := range s.shards {
		s.shards[i].mu.Lock()
	}
	for i := range s.shards {
		sh := &s.shards[i]
		m := make(map[string]*record)
		sh.records.Store(&m)
		sh.writes.Store(0)
		sh.deletes.Store(0)
		sh.reads.Store(0)
	}
	s.seq.Store(0)
	// Rewind the publication watermark after the counter: a waiter woken
	// by the reset re-checks the counter and bails out instead of waiting
	// for a sequence number that no longer exists.
	s.pub.reset()
	for i := range s.shards {
		s.shards[i].mu.Unlock()
	}
	return nil
}
