package ttkv

import (
	"fmt"
	"path/filepath"
	"sort"
	"sync"
	"sync/atomic"
	"testing"
	"time"
)

// Benchmarks behind BENCH_store.json: the lock-free MVCC read path
// against a faithful reproduction of the pre-MVCC locked read path, and
// startup replay across log layouts. Regenerate the JSON with
// scripts/bench_store.sh.

// lockedStore reproduces the store's pre-MVCC read path — per-shard
// RWMutex around a map of version slices — as the baseline the lock-free
// readers are measured against.
type lockedStore struct {
	shards []lockedShard
	mask   uint64
	seq    atomic.Uint64
}

type lockedRecord struct {
	reads    atomic.Uint64
	versions []Version
}

type lockedShard struct {
	mu    sync.RWMutex
	recs  map[string]*lockedRecord
	reads atomic.Uint64
	_     [24]byte // keep neighboring shard locks off one cache line
}

func newLockedStore(n int) *lockedStore {
	ls := &lockedStore{shards: make([]lockedShard, n), mask: uint64(n - 1)}
	for i := range ls.shards {
		ls.shards[i].recs = make(map[string]*lockedRecord)
	}
	return ls
}

func (ls *lockedStore) shardFor(key string) *lockedShard {
	// Same FNV-1a stripe selection as the real store.
	h := uint64(14695981039346656037)
	for i := 0; i < len(key); i++ {
		h ^= uint64(key[i])
		h *= 1099511628211
	}
	return &ls.shards[h&ls.mask]
}

func (ls *lockedStore) setLocked(sh *lockedShard, key, value string, t time.Time, deleted bool, seq uint64) {
	rec, ok := sh.recs[key]
	if !ok {
		rec = &lockedRecord{}
		sh.recs[key] = rec
	}
	rec.versions = append(rec.versions, Version{Time: t, Value: value, Deleted: deleted, Seq: seq})
}

func (ls *lockedStore) Set(key, value string, t time.Time) {
	sh := ls.shardFor(key)
	sh.mu.Lock()
	ls.setLocked(sh, key, value, t, false, ls.seq.Add(1))
	sh.mu.Unlock()
}

func (ls *lockedStore) Delete(key string, t time.Time) {
	sh := ls.shardFor(key)
	sh.mu.Lock()
	ls.setLocked(sh, key, "", t, true, ls.seq.Add(1))
	sh.mu.Unlock()
}

// ApplyBatch mirrors Store.Apply's locking: consecutive same-shard
// mutations are appended under one write-lock acquisition.
func (ls *lockedStore) ApplyBatch(muts []Mutation) {
	for i := 0; i < len(muts); {
		sh := ls.shardFor(muts[i].Key)
		sh.mu.Lock()
		for ; i < len(muts) && ls.shardFor(muts[i].Key) == sh; i++ {
			ls.setLocked(sh, muts[i].Key, muts[i].Value, muts[i].Time, muts[i].Delete, ls.seq.Add(1))
		}
		sh.mu.Unlock()
	}
}

// RevertCluster mirrors the pre-MVCC Store.RevertCluster locking
// discipline: every involved shard is write-locked at once for the whole
// plan-and-apply batch, so the revert is atomic against readers — by
// blocking them.
func (ls *lockedStore) RevertCluster(keys []string, fixAt, applyAt time.Time) {
	locked := make(map[*lockedShard]bool, len(ls.shards))
	for i := range ls.shards {
		sh := &ls.shards[i]
		for _, k := range keys {
			if ls.shardFor(k) == sh {
				locked[sh] = true
				//ocasta:allow lockorder the outer loop walks ls.shards by ascending index, so acquisition order is fixed
				sh.mu.Lock()
				break
			}
		}
	}
	for _, k := range keys {
		sh := ls.shardFor(k)
		rec := sh.recs[k]
		if rec == nil {
			continue
		}
		// The version in effect at fixAt: newest with Time <= fixAt,
		// binary-searched like the real GetAt.
		var val string
		haveTarget, liveTarget := false, false
		if i := sort.Search(len(rec.versions), func(i int) bool {
			return rec.versions[i].Time.After(fixAt)
		}); i > 0 {
			haveTarget = true
			liveTarget = !rec.versions[i-1].Deleted
			val = rec.versions[i-1].Value
		}
		switch {
		case !haveTarget || !liveTarget:
			// Dead at the fix point: tombstone the key if it is currently
			// live, otherwise there is nothing to undo — the same skip the
			// real RevertCluster takes.
			if n := len(rec.versions); n > 0 && !rec.versions[n-1].Deleted {
				rec.versions = append(rec.versions, Version{Time: applyAt, Deleted: true, Seq: ls.seq.Add(1)})
			}
		default:
			rec.versions = append(rec.versions, Version{Time: applyAt, Value: val, Seq: ls.seq.Add(1)})
		}
	}
	for sh := range locked {
		sh.mu.Unlock()
	}
}

// Get matches the pre-MVCC read path exactly: shared-lock the shard,
// count the read, scan the version slice from the tail.
func (ls *lockedStore) Get(key string) (string, bool) {
	sh := ls.shardFor(key)
	sh.mu.RLock()
	defer sh.mu.RUnlock()
	rec := sh.recs[key]
	sh.reads.Add(1)
	if rec == nil {
		return "", false
	}
	rec.reads.Add(1)
	vs := rec.versions
	for i := len(vs) - 1; i >= 0; i-- {
		if vs[i].Deleted {
			return "", false
		}
		return vs[i].Value, true
	}
	return "", false
}

const (
	benchKeys     = 4096
	benchVersions = 4
)

var benchBase = time.Unix(1_700_000_000, 0).UTC()

func benchKeyName(i int) string { return fmt.Sprintf("/bench/app%d/key%d", i%32, i) }

// benchBatch builds one generation of the background write batch.
func benchBatch(batchKeys []string, gen int) []Mutation {
	at := benchBase.Add(time.Duration(benchVersions+gen) * time.Second)
	muts := make([]Mutation, len(batchKeys))
	for i, k := range batchKeys {
		muts[i] = Mutation{Key: k, Value: "w", Time: at}
	}
	return muts
}

// BenchmarkStoreRead measures Get throughput under reader concurrency
// while a background writer runs the paper's repair loop against a
// 512-key cluster: dirty a window, then revert-sweep the cluster clean.
// impl=locked reproduces the pre-MVCC RWMutex read path (readers block
// for every sweep's all-shard lock hold); impl=mvcc is the lock-free
// store (readers never block).
func BenchmarkStoreRead(b *testing.B) {
	for _, impl := range []string{"locked", "mvcc"} {
		for _, g := range []int{1, 8, 64} {
			b.Run(fmt.Sprintf("impl=%s/goroutines=%d", impl, g), func(b *testing.B) {
				keys := make([]string, benchKeys)
				for i := range keys {
					keys[i] = benchKeyName(i)
				}
				// The repair cluster: every 8th key, grouped by shard. The
				// cluster is seeded tombstoned at fixAt, so a revert sweep
				// plans across all of it under every shard lock but appends
				// only for keys a dirty batch has re-livened since the last
				// sweep — lock-held time stays high while history growth
				// stays bounded.
				ref := NewSharded(16)
				batchKeys := make([]string, 0, benchKeys/8)
				for i := 0; i < benchKeys; i += 8 {
					batchKeys = append(batchKeys, keys[i])
				}
				sort.Slice(batchKeys, func(i, j int) bool {
					return ref.shardIndex(batchKeys[i]) < ref.shardIndex(batchKeys[j])
				})
				fixAt := benchBase.Add(time.Duration(benchVersions) * time.Second)
				const dirtyWindow = 64
				dirty := func(gen int) []string {
					start := (gen / 8 * dirtyWindow) % len(batchKeys)
					return batchKeys[start : start+dirtyWindow]
				}

				var get func(string) (string, bool)
				var applyBatch func(gen int)
				switch impl {
				case "locked":
					ls := newLockedStore(16)
					for v := 0; v < benchVersions; v++ {
						for i, k := range keys {
							ls.Set(k, fmt.Sprintf("v%d-%d", i, v), benchBase.Add(time.Duration(v)*time.Second))
						}
					}
					for _, k := range batchKeys {
						ls.Delete(k, fixAt)
					}
					get = ls.Get
					applyBatch = func(gen int) {
						if gen%8 == 1 {
							ls.ApplyBatch(benchBatch(dirty(gen), gen))
						} else {
							ls.RevertCluster(batchKeys, fixAt, benchBase.Add(time.Duration(benchVersions+gen)*time.Second))
						}
					}
				case "mvcc":
					s := NewSharded(16)
					for v := 0; v < benchVersions; v++ {
						for i, k := range keys {
							if err := s.Set(k, fmt.Sprintf("v%d-%d", i, v), benchBase.Add(time.Duration(v)*time.Second)); err != nil {
								b.Fatal(err)
							}
						}
					}
					for _, k := range batchKeys {
						if err := s.Delete(k, fixAt); err != nil {
							b.Fatal(err)
						}
					}
					get = s.Get
					applyBatch = func(gen int) {
						if gen%8 == 1 {
							if _, err := s.Apply(benchBatch(dirty(gen), gen)); err != nil {
								b.Error(err)
							}
						} else if _, err := s.RevertCluster(batchKeys, fixAt, benchBase.Add(time.Duration(benchVersions+gen)*time.Second)); err != nil {
							b.Error(err)
						}
					}
				}

				// The writer models a continuous repair loop: dirty a 64-key
				// window of the cluster, then revert-sweep the whole cluster
				// until it is clean again, back to back. It is one goroutine
				// in both implementations, so the scheduler offers it the
				// same CPU share either way; the only asymmetry is that
				// locked sweeps block readers and MVCC sweeps do not.
				stop := make(chan struct{})
				var writerWG sync.WaitGroup
				var gen atomic.Int64
				writerWG.Add(1)
				go func() {
					defer writerWG.Done()
					for {
						select {
						case <-stop:
							return
						default:
						}
						applyBatch(int(gen.Add(1)))
					}
				}()

				var mu sync.Mutex
				var samples []time.Duration
				b.SetParallelism(g)
				b.ResetTimer()
				b.RunParallel(func(pb *testing.PB) {
					rng := uint64(0x9e3779b97f4a7c15)
					local := make([]time.Duration, 0, 512)
					n := 0
					for pb.Next() {
						rng ^= rng << 13
						rng ^= rng >> 7
						rng ^= rng << 17
						key := keys[rng%benchKeys]
						if n%128 == 0 {
							t0 := time.Now()
							get(key)
							local = append(local, time.Since(t0))
						} else {
							get(key)
						}
						n++
					}
					mu.Lock()
					samples = append(samples, local...)
					mu.Unlock()
				})
				b.StopTimer()
				close(stop)
				writerWG.Wait()
				if len(samples) > 0 {
					sort.Slice(samples, func(i, j int) bool { return samples[i] < samples[j] })
					p99 := samples[len(samples)*99/100]
					b.ReportMetric(float64(p99.Nanoseconds()), "p99-ns")
				}
			})
		}
	}
}

// buildSegmentDir writes n records through the normal append path into a
// segmented AOF directory and returns it.
func buildSegmentDir(b *testing.B, dir string, n int) string {
	b.Helper()
	segDir := filepath.Join(dir, "segs")
	s := New()
	sa, err := OpenSegmentedInto(segDir, s, SegmentedConfig{MaxSegmentBytes: 256 << 10})
	if err != nil {
		b.Fatal(err)
	}
	gc := NewGroupCommit(sa, GroupCommitConfig{Fsync: FsyncNever})
	s.AttachGroupCommit(gc)
	fillBenchHistory(b, s, n)
	if err := gc.Close(); err != nil {
		b.Fatal(err)
	}
	return segDir
}

func fillBenchHistory(b *testing.B, s *Store, n int) {
	b.Helper()
	for i := 0; i < n; i++ {
		k := benchKeyName(i % benchKeys)
		if err := s.Set(k, fmt.Sprintf("value-%d", i), benchBase.Add(time.Duration(i)*time.Millisecond)); err != nil {
			b.Fatal(err)
		}
		// Periodic sync bounds group-commit batches so the segmented
		// writer actually rolls (a batch never splits across segments).
		if i%512 == 511 {
			if err := s.SyncAOF(); err != nil {
				b.Fatal(err)
			}
		}
	}
	if err := s.SyncAOF(); err != nil {
		b.Fatal(err)
	}
}

var replaySizes = []int{20000, 80000}

// BenchmarkReplaySegmented replays a segmented directory: sealed
// segments fan out across the worker pool, so wall-clock cost is the
// per-worker share plus the active tail.
func BenchmarkReplaySegmented(b *testing.B) {
	for _, n := range replaySizes {
		b.Run(fmt.Sprintf("records=%d", n), func(b *testing.B) {
			segDir := buildSegmentDir(b, b.TempDir(), n)
			b.ResetTimer()
			for i := 0; i < b.N; i++ {
				s := NewSharded(16)
				sa, err := OpenSegmentedInto(segDir, s, SegmentedConfig{MaxSegmentBytes: 256 << 10})
				if err != nil {
					b.Fatal(err)
				}
				if got := s.CurrentSeq(); got != uint64(n) {
					b.Fatalf("replayed %d records, want %d", got, n)
				}
				if err := sa.Close(); err != nil {
					b.Fatal(err)
				}
			}
		})
	}
}

// BenchmarkReplaySegmentedCompacted replays after segment-level
// compaction with full retention dropped to the newest version per key:
// startup cost tracks the live keyspace, not the history length — the
// sub-linear curve in BENCH_store.json.
func BenchmarkReplaySegmentedCompacted(b *testing.B) {
	for _, n := range replaySizes {
		b.Run(fmt.Sprintf("records=%d", n), func(b *testing.B) {
			segDir := buildSegmentDir(b, b.TempDir(), n)
			cfg := SegmentedConfig{MaxSegmentBytes: 256 << 10}
			if err := CompactSegmentDir(segDir, 16, 1, cfg); err != nil {
				b.Fatal(err)
			}
			live := benchKeys
			if n < benchKeys {
				live = n
			}
			b.ResetTimer()
			for i := 0; i < b.N; i++ {
				s := NewSharded(16)
				sa, err := OpenSegmentedInto(segDir, s, cfg)
				if err != nil {
					b.Fatal(err)
				}
				if got := s.Len(); got != live {
					b.Fatalf("replayed %d keys, want %d", got, live)
				}
				if err := sa.Close(); err != nil {
					b.Fatal(err)
				}
			}
		})
	}
}
