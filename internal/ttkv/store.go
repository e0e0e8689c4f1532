// Package ttkv implements Ocasta's Time Travel Key-Value store: a versioned
// key-value store that records, for every configuration key, the full
// timestamped history of its values including deletions, together with
// read/write/delete counters.
//
// The paper built the TTKV on top of Redis, mapping each key to a record
// holding the number of writes and deletions plus a list of historical
// values with timestamps, with a special value type representing deletions.
// This package implements that record schema natively, adds point-in-time
// reads (the primitive the repair tool's rollback search is built on), and
// provides append-only-log persistence (segment.go, groupcommit.go, with
// the record codec in aof.go) so a logging daemon can survive restarts.
//
// The store is sharded: keys are hash-partitioned across N lock-striped
// shards so writers to distinct keys never contend on a lock. Version
// sequence numbers remain store-wide and monotone, so point-in-time
// ordering semantics are identical to a single-shard store.
//
// Reads are lock-free (MVCC): every key's record publishes an immutable
// version-array snapshot through an atomic pointer, and a store-wide
// publication watermark tells readers which sequence numbers are fully
// inserted. Readers load the watermark once, load one pointer per record,
// and walk an immutable slice — no mutex, no spinning, which is what makes
// read interception effectively free (the paper's viability requirement
// for logging tens of millions of reads per machine per day).
package ttkv

import (
	"errors"
	"math/bits"
	"sort"
	"sync"
	"sync/atomic"
	"time"
)

// Store errors.
var (
	ErrNoKey     = errors.New("ttkv: no such key")
	ErrZeroTime  = errors.New("ttkv: zero timestamp")
	ErrEmptyKey  = errors.New("ttkv: empty key")
	ErrNoVersion = errors.New("ttkv: no version at or before requested time")
	ErrOversize  = errors.New("ttkv: key or value exceeds MaxStringLen")
)

// MaxStringLen bounds keys and values (it matches the wire protocol's
// bulk-string limit). Enforcing it on the write path keeps the AOF
// replayable: the replay side rejects longer strings as corruption.
const MaxStringLen = 8 << 20

// Version is one entry in a key's value history. Deleted versions are the
// paper's "special type of value ... used to represent deletions", kept in
// the history like any other value.
type Version struct {
	Time    time.Time
	Value   string
	Deleted bool
	// Seq is a store-wide monotone sequence number that orders versions
	// carrying identical timestamps (second-granularity traces make those
	// common).
	Seq uint64
}

// recordState is one immutable published snapshot of a key's record: the
// paper's per-key schema (write/delete counts plus the chronological value
// history). A state is never mutated after publication; writers build a
// successor and swap the record's pointer, so a reader that loaded the
// pointer owns a consistent view for as long as it keeps it.
type recordState struct {
	versions []Version
	writes   int
	deletes  int
}

// record is a key's mutable cell: the atomically published state plus the
// read counter, which stays a plain atomic because read counting must not
// write-share the version history.
type record struct {
	state atomic.Pointer[recordState]
	reads atomic.Uint64
}

// newRecord returns a record published with an empty state.
func newRecord() *record {
	r := &record{}
	r.state.Store(&recordState{})
	return r
}

// shard is one lock stripe. The mutex serializes writers only; readers go
// through the atomically published map and record states. The map itself
// is copy-on-write: inserting a new key swaps in a fresh map, so readers
// never observe a map mid-insert.
type shard struct {
	mu      sync.Mutex                         // serializes writers; readers never take it
	records atomic.Pointer[map[string]*record] // copy-on-write on new-key insert
	writes  atomic.Uint64
	deletes atomic.Uint64
	reads   atomic.Uint64
	// pad spaces shards at least a cache line apart so one shard's lock
	// traffic does not false-share with its neighbors.
	_ [64]byte
}

// load returns the shard's current key map. The map is immutable once
// published; records inside it publish their own states.
func (sh *shard) load() map[string]*record { return *sh.records.Load() }

// DefaultShards is the shard count used by New. It is a modest power of
// two: enough stripes that GOMAXPROCS writers rarely collide, small enough
// that iteration (Keys, Stats, snapshots) stays cheap.
const DefaultShards = 16

// Store is an in-memory TTKV. It is safe for concurrent use. The zero
// value is not usable; construct with New or NewSharded.
type Store struct {
	shards   []shard
	mask     uint64 // len(shards)-1; len is a power of two
	seq      atomic.Uint64
	pub      publisher                   // publication watermark for lock-free readers
	sink     atomic.Pointer[sinkBox]     // optional persistence; see aof.go
	observer atomic.Pointer[observerBox] // optional analytics hook
}

// publisher tracks which minted sequence numbers have finished inserting.
// Minting and inserting are two steps (the sink mints under its own lock,
// the insert happens under the shard lock, publication is the final
// pointer swap), so at any instant some minted sequence numbers are not
// yet readable. The watermark advances only contiguously: everything at or
// below it is fully published. Readers load it once per operation and
// ignore versions above it — which is also what makes a contiguous batch
// (a cluster revert) become visible in one atomic step: the watermark
// jumps across the whole batch in a single store.
type publisher struct {
	// visible is the watermark. It is written only under mu, in one atomic
	// store per advance, and read lock-free by every reader.
	visible atomic.Uint64
	mu      sync.Mutex
	cond    *sync.Cond
	// done holds finished publication runs that cannot advance the
	// watermark yet because a lower sequence number is still in flight:
	// first sequence of the run -> last sequence of the run.
	done map[uint64]uint64
	// resets counts Reset calls, so a writer waiting for its own
	// publication cannot hang across a concurrent Reset (which rewinds
	// the sequence space out from under it).
	resets uint64
}

func (p *publisher) init() {
	p.cond = sync.NewCond(&p.mu)
	p.done = make(map[uint64]uint64)
}

// advanceLocked folds every run that now touches the watermark into it.
// Caller holds p.mu.
func (p *publisher) advanceLocked() {
	v := p.visible.Load()
	advanced := false
	for {
		last, ok := p.done[v+1]
		if !ok {
			break
		}
		delete(p.done, v+1)
		v = last
		advanced = true
	}
	if advanced {
		p.visible.Store(v)
		p.cond.Broadcast()
	}
}

// completeRange marks the contiguous run [first, last] fully inserted and
// blocks until the watermark covers it, so a writer that returns has
// read-your-writes: its own mutation is already visible to lock-free
// readers. The wait is short by construction — between minting and
// completing there are only in-memory inserts, never I/O.
func (p *publisher) completeRange(first, last uint64) {
	p.mu.Lock()
	p.done[first] = last
	p.advanceLocked()
	r0 := p.resets
	for p.visible.Load() < last && p.resets == r0 {
		p.cond.Wait()
	}
	p.mu.Unlock()
}

// completeSeqs is completeRange for a strictly ascending (possibly gapped)
// sequence list: the list is coalesced into contiguous runs first.
func (p *publisher) completeSeqs(seqs []uint64) {
	if len(seqs) == 0 {
		return
	}
	p.mu.Lock()
	first, last := seqs[0], seqs[0]
	for _, q := range seqs[1:] {
		if q == last+1 {
			last = q
			continue
		}
		p.done[first] = last
		first, last = q, q
	}
	p.done[first] = last
	p.advanceLocked()
	r0 := p.resets
	for p.visible.Load() < last && p.resets == r0 {
		p.cond.Wait()
	}
	p.mu.Unlock()
}

// advanceTo jump-advances the watermark (replica replay and segment
// replay, where one applier owns the whole sequence space and gaps cannot
// exist below what it has applied).
func (p *publisher) advanceTo(seq uint64) {
	p.mu.Lock()
	if p.visible.Load() < seq {
		p.visible.Store(seq)
		p.cond.Broadcast()
	}
	p.mu.Unlock()
}

// reset rewinds the publisher for Store.Reset and wakes every waiter.
func (p *publisher) reset() {
	p.mu.Lock()
	p.done = make(map[uint64]uint64)
	p.visible.Store(0)
	p.resets++
	p.cond.Broadcast()
	p.mu.Unlock()
}

// waitVisible blocks until every version with sequence number at or below
// upTo is published, and reports whether that was reached. It returns
// false when the store can no longer get there: the sequence counter sits
// below upTo (a bound from a different sequence incarnation, or a Reset
// rewound the space mid-wait).
func (s *Store) waitVisible(upTo uint64) bool {
	if s.pub.visible.Load() >= upTo {
		return true
	}
	s.pub.mu.Lock()
	defer s.pub.mu.Unlock()
	for s.pub.visible.Load() < upTo {
		if s.seq.Load() < upTo {
			return false
		}
		s.pub.cond.Wait()
	}
	return true
}

// sinkBox wraps the persistence interface so it can live in an
// atomic.Pointer (interfaces cannot).
type sinkBox struct{ sink aofSink }

// StatsObserver receives every successful mutation of the store, the hook
// the streaming analytics engine (core.Engine) feeds from. Implementations
// must be safe for concurrent use: the store invokes the observer from
// whichever goroutine performed the write, after releasing the shard lock,
// so calls from writers on different shards overlap and same-instant
// writes to different keys may be observed slightly out of order (the
// analytics engine's reorder horizon absorbs this; grouping follows the
// mutation timestamps, not observation order).
type StatsObserver interface {
	//ocasta:nolock
	ObserveWrite(key string, t time.Time, deleted bool)
}

// observerBox wraps the observer interface so it can live in an
// atomic.Pointer.
type observerBox struct{ obs StatsObserver }

// SetStatsObserver installs (or, with nil, removes) the store's mutation
// observer. Segment replay bypasses it; use ObserveHistory to feed the
// replayed history through before attaching.
func (s *Store) SetStatsObserver(obs StatsObserver) {
	if obs == nil {
		s.observer.Store(nil)
		return
	}
	s.observer.Store(&observerBox{obs: obs})
}

// statsObserver returns the current observer, nil if none.
func (s *Store) statsObserver() StatsObserver {
	if box := s.observer.Load(); box != nil {
		return box.obs
	}
	return nil
}

// ObserveHistory replays every version already in the store, in global
// sequence order, through obs. It is the analytics bridge for parallel
// segment replay, which bypasses the per-write observer hook; call it
// once after replay, before serving writes.
func (s *Store) ObserveHistory(obs StatsObserver) {
	if obs == nil {
		return
	}
	for _, e := range s.snapshotEntries(0) {
		obs.ObserveWrite(e.key, e.v.Time, e.v.Deleted)
	}
}

// New returns an empty store with DefaultShards shards.
func New() *Store { return NewSharded(DefaultShards) }

// NewSharded returns an empty store striped across n shards. n is rounded
// up to the next power of two; n <= 1 yields a single-shard store, which
// behaves exactly like the historical single-lock implementation.
func NewSharded(n int) *Store {
	if n < 1 {
		n = 1
	}
	n = 1 << bits.Len(uint(n-1)) // next power of two (n itself if already one)
	s := &Store{shards: make([]shard, n), mask: uint64(n - 1)}
	for i := range s.shards {
		m := make(map[string]*record)
		s.shards[i].records.Store(&m)
	}
	s.pub.init()
	return s
}

// NumShards reports the store's shard count.
func (s *Store) NumShards() int { return len(s.shards) }

// shardIndex hashes key (FNV-1a) onto a shard index.
func (s *Store) shardIndex(key string) uint64 {
	const (
		offset64 = 14695981039346656037
		prime64  = 1099511628211
	)
	h := uint64(offset64)
	for i := 0; i < len(key); i++ {
		h ^= uint64(key[i])
		h *= prime64
	}
	return h & s.mask
}

// shardFor hashes key onto its shard.
func (s *Store) shardFor(key string) *shard {
	return &s.shards[s.shardIndex(key)]
}

// lockShardsFor write-locks every shard holding any of keys, each exactly
// once, in ascending index order — the one ordering every multi-shard
// locker (RevertCluster, ApplyReplicated) uses, so they can never
// deadlock against each other. The returned unlock is idempotent, so it
// can both be deferred and called early (observers run outside the
// locks by contract).
//
//ocasta:lockfn
func (s *Store) lockShardsFor(keys func(yield func(string) bool)) (unlock func()) {
	idxSet := make(map[uint64]struct{})
	keys(func(k string) bool {
		idxSet[s.shardIndex(k)] = struct{}{}
		return true
	})
	idxs := make([]uint64, 0, len(idxSet))
	for i := range idxSet {
		idxs = append(idxs, i)
	}
	sort.Slice(idxs, func(a, b int) bool { return idxs[a] < idxs[b] })
	for _, i := range idxs {
		s.shards[i].mu.Lock()
	}
	var once sync.Once
	return func() {
		once.Do(func() {
			for _, i := range idxs {
				s.shards[i].mu.Unlock()
			}
		})
	}
}

// Set records a write of value to key at time t. Timestamps may arrive out
// of order (error injection deliberately writes into the past); the version
// is inserted at its chronological position, after any existing version
// with the same timestamp.
func (s *Store) Set(key, value string, t time.Time) error {
	_, err := s.apply(key, value, t, false)
	return err
}

// SetWithSeq is Set additionally returning the sequence number minted for
// the write, so a caller that must wait on *this* write's replication (the
// wire server's semi-sync gate) has its exact watermark instead of a
// store-wide one inflated by concurrent writers.
func (s *Store) SetWithSeq(key, value string, t time.Time) (uint64, error) {
	return s.apply(key, value, t, false)
}

// Delete records a deletion of key at time t. The deletion is a tombstone
// version in the history; prior values remain reachable via GetAt.
func (s *Store) Delete(key string, t time.Time) error {
	_, err := s.apply(key, "", t, true)
	return err
}

// DeleteWithSeq is Delete additionally returning the minted sequence
// number (see SetWithSeq).
func (s *Store) DeleteWithSeq(key string, t time.Time) (uint64, error) {
	return s.apply(key, "", t, true)
}

func (s *Store) apply(key, value string, t time.Time, deleted bool) (uint64, error) {
	if key == "" {
		return 0, ErrEmptyKey
	}
	if t.IsZero() {
		return 0, ErrZeroTime
	}
	if len(key) > MaxStringLen || len(value) > MaxStringLen {
		return 0, ErrOversize
	}
	if err := s.waitSinkCapacity(); err != nil {
		return 0, err
	}
	sh := s.shardFor(key)
	sh.mu.Lock()
	seq, err := s.applyLocked(sh, key, value, t, deleted)
	sh.mu.Unlock()
	if err != nil {
		return 0, err
	}
	// Publish before observing: anything the observer triggers already
	// sees the write.
	s.pub.completeRange(seq, seq)
	if obs := s.statsObserver(); obs != nil {
		obs.ObserveWrite(key, t, deleted)
	}
	return seq, nil
}

// capacityWaiter is the optional backpressure gate a persistence sink can
// expose (GroupCommit does). It is consulted before any shard lock is
// taken, so a stalled disk pauses writers without blocking readers.
type capacityWaiter interface{ waitCapacity() error }

func (s *Store) waitSinkCapacity() error {
	if box := s.sink.Load(); box != nil {
		if cw, ok := box.sink.(capacityWaiter); ok {
			return cw.waitCapacity()
		}
	}
	return nil
}

// applyLocked performs one mutation with sh.mu already held and returns
// the minted sequence number. The persistence enqueue happens under the
// shard lock so the AOF records same-key mutations in exactly their
// in-memory insertion order (the group-commit sink only copies bytes
// here; disk I/O happens on its own goroutine). The enqueue runs first:
// if persistence rejects the record (sticky flush error, closed
// appender), the in-memory store stays untouched, so memory and log
// cannot diverge. The reverse crash window — record in the AOF, process
// dies before the insert — only makes replay a superset, which is the
// correct durability direction. The caller must complete publication
// (s.pub) after releasing the shard lock.
func (s *Store) applyLocked(sh *shard, key, value string, t time.Time, deleted bool) (uint64, error) {
	seq, err := s.sinkAppend(key, value, t, deleted)
	if err != nil {
		return 0, err
	}
	return s.insertLocked(sh, key, value, t, deleted, seq), nil
}

// seqSink is the optional sink extension a replication log implements: the
// sink mints the record's store-wide sequence number itself, under its own
// lock, so the replication stream, the AOF byte order, and the sequence
// order all coincide. A seq of 0 is never minted.
type seqSink interface {
	appendSeq(key, value string, t time.Time, deleted bool) (uint64, error)
}

// sinkAppend enqueues one record to the persistence sink, if attached. A
// seq-assigning sink returns the sequence number it minted for the record;
// plain sinks return 0 and the caller mints from the store counter.
func (s *Store) sinkAppend(key, value string, t time.Time, deleted bool) (uint64, error) {
	if box := s.sink.Load(); box != nil {
		if ss, ok := box.sink.(seqSink); ok {
			return ss.appendSeq(key, value, t, deleted)
		}
		return 0, box.sink.append(key, value, t, deleted)
	}
	return 0, nil
}

// insertLocked performs the in-memory half of one mutation with sh.mu
// held: version insert plus counters, returning the sequence number used.
// seq is the sink-assigned sequence number, or 0 to mint one from the
// store counter. The new version is published immediately (readers with a
// fresh state pointer can see it) but only becomes *visible* once the
// publication watermark covers it — the caller completes that after
// unlocking.
func (s *Store) insertLocked(sh *shard, key, value string, t time.Time, deleted bool, seq uint64) uint64 {
	if seq == 0 {
		seq = s.seq.Add(1)
	}
	m := sh.load()
	rec, ok := m[key]
	if !ok {
		// New key: copy-on-write map swap, so lock-free readers never see
		// a map mutation in flight.
		rec = newRecord()
		nm := make(map[string]*record, len(m)+1)
		for k, r := range m {
			nm[k] = r
		}
		nm[key] = rec
		sh.records.Store(&nm)
	}
	st := rec.state.Load()
	rec.state.Store(st.insert(Version{Time: t, Value: value, Deleted: deleted, Seq: seq}))
	if deleted {
		sh.deletes.Add(1)
	} else {
		sh.writes.Add(1)
	}
	return seq
}

// versionSlot returns the index at which a version with time t and
// sequence number seq belongs: after every chronologically earlier
// version and, among equal timestamps, after every lower sequence number.
// Live writes always carry the record's highest sequence number (minting
// and inserting happen under the same shard lock), so they land after any
// equal-time version exactly as before; explicit-sequence insertion
// (parallel segment replay, replicated chunks) becomes order-independent.
func versionSlot(vs []Version, t time.Time, seq uint64) int {
	return sort.Search(len(vs), func(i int) bool {
		if vs[i].Time.After(t) {
			return true
		}
		return vs[i].Time.Equal(t) && vs[i].Seq > seq
	})
}

// insert returns the successor state with v added at its chronological
// position. The returned state shares the old backing array only for a
// pure tail append, which is safe to publish: readers holding the old
// state's shorter slice header can never index the appended element.
// Mid-slice inserts copy to a fresh array, so published elements are
// never moved or overwritten in place.
func (st *recordState) insert(v Version) *recordState {
	ns := &recordState{writes: st.writes, deletes: st.deletes}
	if v.Deleted {
		ns.deletes++
	} else {
		ns.writes++
	}
	vs := st.versions
	if i := versionSlot(vs, v.Time, v.Seq); i == len(vs) {
		ns.versions = append(vs, v)
	} else {
		nv := make([]Version, len(vs)+1)
		copy(nv, vs[:i])
		nv[i] = v
		copy(nv[i+1:], vs[i:])
		ns.versions = nv
	}
	return ns
}

// Get returns the current value of key: the newest visible version, if it
// is not a deletion. ok is false when the key was never written or its
// latest version is a deletion. Get counts as a read (a miss is still
// application read traffic). Lock-free.
func (s *Store) Get(key string) (value string, ok bool) {
	sh := s.shardFor(key)
	bound := s.pub.visible.Load()
	rec := sh.load()[key]
	sh.reads.Add(1)
	if rec == nil {
		return "", false
	}
	rec.reads.Add(1)
	vs := rec.state.Load().versions
	for i := len(vs) - 1; i >= 0; i-- {
		if vs[i].Seq > bound {
			continue
		}
		if vs[i].Deleted {
			return "", false
		}
		return vs[i].Value, true
	}
	return "", false
}

// GetAt returns the version of key in effect at time t: the latest visible
// version with Time <= t. It does not count as a read (it is a
// recovery-path operation, not application activity). Lock-free.
func (s *Store) GetAt(key string, t time.Time) (Version, error) {
	sh := s.shardFor(key)
	bound := s.pub.visible.Load()
	rec := sh.load()[key]
	if rec == nil {
		return Version{}, ErrNoKey
	}
	vs := rec.state.Load().versions
	i := sort.Search(len(vs), func(i int) bool {
		return vs[i].Time.After(t)
	})
	// A version written after the bound may sit anywhere at or before i
	// (out-of-order timestamps), so scan backwards to the newest visible
	// one.
	for i--; i >= 0; i-- {
		if vs[i].Seq <= bound {
			return vs[i], nil
		}
	}
	return Version{}, ErrNoVersion
}

// History returns a copy of key's visible version history, oldest first.
// Lock-free.
func (s *Store) History(key string) ([]Version, error) {
	sh := s.shardFor(key)
	bound := s.pub.visible.Load()
	rec := sh.load()[key]
	if rec == nil {
		return nil, ErrNoKey
	}
	vs := rec.state.Load().versions
	out := make([]Version, 0, len(vs))
	for i := range vs {
		if vs[i].Seq <= bound {
			out = append(out, vs[i])
		}
	}
	if len(out) == 0 {
		return nil, ErrNoKey
	}
	return out, nil
}

// Latest returns the newest visible version of key. Lock-free.
func (s *Store) Latest(key string) (Version, error) {
	sh := s.shardFor(key)
	bound := s.pub.visible.Load()
	rec := sh.load()[key]
	if rec == nil {
		return Version{}, ErrNoKey
	}
	vs := rec.state.Load().versions
	for i := len(vs) - 1; i >= 0; i-- {
		if vs[i].Seq <= bound {
			return vs[i], nil
		}
	}
	return Version{}, ErrNoKey
}

// Keys returns all keys with at least one visible version, sorted.
// Lock-free.
func (s *Store) Keys() []string {
	bound := s.pub.visible.Load()
	var keys []string
	for i := range s.shards {
		for k, rec := range s.shards[i].load() {
			if recVisible(rec, bound) {
				keys = append(keys, k)
			}
		}
	}
	sort.Strings(keys)
	return keys
}

// recVisible reports whether rec has any version at or below bound. The
// scan short-circuits on the first hit, which for a live key is the first
// element.
func recVisible(rec *record, bound uint64) bool {
	vs := rec.state.Load().versions
	for i := range vs {
		if vs[i].Seq <= bound {
			return true
		}
	}
	return false
}

// Len returns the number of keys with at least one visible version.
// Lock-free.
func (s *Store) Len() int {
	bound := s.pub.visible.Load()
	n := 0
	for i := range s.shards {
		for _, rec := range s.shards[i].load() {
			if recVisible(rec, bound) {
				n++
			}
		}
	}
	return n
}

// WriteCount returns how many non-delete writes key received. The count
// may lead visibility by the writes currently in flight (it tracks the
// published state, not the watermark). Lock-free.
func (s *Store) WriteCount(key string) int {
	if rec := s.shardFor(key).load()[key]; rec != nil {
		return rec.state.Load().writes
	}
	return 0
}

// DeleteCount returns how many deletions key received. Lock-free.
func (s *Store) DeleteCount(key string) int {
	if rec := s.shardFor(key).load()[key]; rec != nil {
		return rec.state.Load().deletes
	}
	return 0
}

// ModCount returns writes + deletions of key: its total number of recorded
// modifications, the quantity Ocasta's repair tool sorts clusters by.
// Lock-free.
func (s *Store) ModCount(key string) int {
	if rec := s.shardFor(key).load()[key]; rec != nil {
		st := rec.state.Load()
		return st.writes + st.deletes
	}
	return 0
}

// Stats summarizes the store, including the approximate in-memory size of
// all histories (the "TTKV size" column of Table I).
type Stats struct {
	Keys        int
	Writes      uint64
	Deletes     uint64
	Reads       uint64
	Versions    int
	ApproxBytes int64
}

// versionOverhead approximates the fixed per-version bookkeeping cost
// (time, sequence number, flags, slice header share).
const versionOverhead = 40

// keyOverhead approximates the fixed per-key bookkeeping cost.
const keyOverhead = 64

// Stats returns a snapshot of the store's counters and size, lock-free.
// Under concurrent writes the snapshot is approximate: each record's
// published state is internally consistent, but counters across records
// are read at slightly different instants.
func (s *Store) Stats() Stats {
	var st Stats
	for i := range s.shards {
		sh := &s.shards[i]
		m := sh.load()
		st.Keys += len(m)
		st.Writes += sh.writes.Load()
		st.Deletes += sh.deletes.Load()
		st.Reads += sh.reads.Load()
		for k, rec := range m {
			versions := rec.state.Load().versions
			st.Versions += len(versions)
			st.ApproxBytes += int64(len(k)) + keyOverhead
			for i := range versions {
				st.ApproxBytes += int64(len(versions[i].Value)) + versionOverhead
			}
		}
	}
	return st
}

// CountRead records an application read of key without fetching the value;
// loggers use it when they observe read traffic they do not need the result
// of. Like Get, a read of a never-written key still counts globally (it is
// real application read traffic). Lock-free.
func (s *Store) CountRead(key string) {
	sh := s.shardFor(key)
	if rec := sh.load()[key]; rec != nil {
		rec.reads.Add(1)
	}
	sh.reads.Add(1)
}

// Clone returns a deep copy of the store's contents (counters and shard
// layout included, AOF binding excluded). Used by tests and by sandboxed
// trials that need a writable copy. The clone's watermark covers
// everything copied: versions a concurrent writer had published but not
// yet completed become immediately visible in the clone.
func (s *Store) Clone() *Store {
	out := NewSharded(len(s.shards))
	for i := range s.shards {
		sh := &s.shards[i]
		osh := &out.shards[i]
		osh.writes.Store(sh.writes.Load())
		osh.deletes.Store(sh.deletes.Load())
		osh.reads.Store(sh.reads.Load())
		m := sh.load()
		nm := make(map[string]*record, len(m))
		for k, rec := range m {
			st := rec.state.Load()
			ns := &recordState{
				versions: make([]Version, len(st.versions)),
				writes:   st.writes,
				deletes:  st.deletes,
			}
			copy(ns.versions, st.versions)
			nr := &record{}
			nr.state.Store(ns)
			nr.reads.Store(rec.reads.Load())
			nm[k] = nr
		}
		osh.records.Store(&nm)
	}
	// Load seq only after every shard is copied: a concurrent writer may
	// have minted sequence numbers we did not copy (a harmless gap), but
	// loading first could hand the clone a counter below copied versions,
	// making later clone writes mint duplicate Seqs.
	seq := s.seq.Load()
	out.seq.Store(seq)
	out.pub.advanceTo(seq)
	return out
}

// ModTimes returns every distinct visible modification timestamp of the
// given keys, newest first. The repair tool uses this to enumerate the
// historical versions of a cluster: each timestamp at which any member key
// changed is one candidate rollback point. Timestamps are deduplicated,
// compared, and sorted on wall-clock nanoseconds (monotonic readings are
// stripped), so ordering can never disagree with deduplication for
// time.Now()-stamped writes. Lock-free.
func (s *Store) ModTimes(keys []string) []time.Time {
	bound := s.pub.visible.Load()
	seen := make(map[int64]struct{})
	var times []time.Time
	for _, k := range keys {
		rec := s.shardFor(k).load()[k]
		if rec == nil {
			continue
		}
		vs := rec.state.Load().versions
		for i := range vs {
			if vs[i].Seq > bound {
				continue
			}
			ns := vs[i].Time.UnixNano()
			if _, dup := seen[ns]; !dup {
				seen[ns] = struct{}{}
				times = append(times, vs[i].Time.Round(0))
			}
		}
	}
	sort.Slice(times, func(i, j int) bool { return times[i].UnixNano() > times[j].UnixNano() })
	return times
}
