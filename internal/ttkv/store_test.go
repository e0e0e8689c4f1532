package ttkv

import (
	"errors"
	"fmt"
	"math/rand"
	"reflect"
	"sync"
	"sync/atomic"
	"testing"
	"testing/quick"
	"time"
)

var t0 = time.Date(2013, 6, 1, 12, 0, 0, 0, time.UTC)

func at(sec int) time.Time { return t0.Add(time.Duration(sec) * time.Second) }

func TestSetGet(t *testing.T) {
	s := New()
	if err := s.Set("k", "v1", at(0)); err != nil {
		t.Fatal(err)
	}
	v, ok := s.Get("k")
	if !ok || v != "v1" {
		t.Fatalf("Get = %q,%v, want v1,true", v, ok)
	}
	if err := s.Set("k", "v2", at(1)); err != nil {
		t.Fatal(err)
	}
	if v, _ := s.Get("k"); v != "v2" {
		t.Fatalf("Get after update = %q, want v2", v)
	}
}

func TestGetMissing(t *testing.T) {
	s := New()
	if _, ok := s.Get("nope"); ok {
		t.Error("Get on missing key must report ok=false")
	}
}

func TestValidation(t *testing.T) {
	s := New()
	if err := s.Set("", "v", at(0)); !errors.Is(err, ErrEmptyKey) {
		t.Errorf("empty key: err = %v, want ErrEmptyKey", err)
	}
	if err := s.Set("k", "v", time.Time{}); !errors.Is(err, ErrZeroTime) {
		t.Errorf("zero time: err = %v, want ErrZeroTime", err)
	}
	if err := s.Delete("", at(0)); !errors.Is(err, ErrEmptyKey) {
		t.Errorf("delete empty key: err = %v, want ErrEmptyKey", err)
	}
}

func TestDeleteTombstone(t *testing.T) {
	s := New()
	must(t, s.Set("k", "v1", at(0)))
	must(t, s.Delete("k", at(1)))
	if _, ok := s.Get("k"); ok {
		t.Error("deleted key must not be gettable")
	}
	// But the history retains both versions, and GetAt can see past the
	// tombstone.
	hist, err := s.History("k")
	if err != nil || len(hist) != 2 {
		t.Fatalf("History = %v,%v, want 2 versions", hist, err)
	}
	if !hist[1].Deleted {
		t.Error("latest version must be a tombstone")
	}
	v, err := s.GetAt("k", at(0))
	if err != nil || v.Value != "v1" || v.Deleted {
		t.Fatalf("GetAt before delete = %+v,%v, want v1", v, err)
	}
}

func TestGetAt(t *testing.T) {
	s := New()
	must(t, s.Set("k", "v0", at(0)))
	must(t, s.Set("k", "v10", at(10)))
	must(t, s.Set("k", "v20", at(20)))
	tests := []struct {
		sec     int
		want    string
		wantErr error
	}{
		{-1, "", ErrNoVersion},
		{0, "v0", nil},
		{5, "v0", nil},
		{10, "v10", nil},
		{15, "v10", nil},
		{25, "v20", nil},
	}
	for _, tt := range tests {
		v, err := s.GetAt("k", at(tt.sec))
		if tt.wantErr != nil {
			if !errors.Is(err, tt.wantErr) {
				t.Errorf("GetAt(%d): err = %v, want %v", tt.sec, err, tt.wantErr)
			}
			continue
		}
		if err != nil || v.Value != tt.want {
			t.Errorf("GetAt(%d) = %q,%v, want %q", tt.sec, v.Value, err, tt.want)
		}
	}
	if _, err := s.GetAt("missing", at(0)); !errors.Is(err, ErrNoKey) {
		t.Errorf("GetAt(missing) err = %v, want ErrNoKey", err)
	}
}

func TestOutOfOrderInsert(t *testing.T) {
	// Error injection writes into the past; history must stay chronological.
	s := New()
	must(t, s.Set("k", "new", at(100)))
	must(t, s.Set("k", "injected", at(50)))
	hist, _ := s.History("k")
	if len(hist) != 2 || hist[0].Value != "injected" || hist[1].Value != "new" {
		t.Fatalf("history = %+v, want injected then new", hist)
	}
	// Current value must still be the chronologically newest.
	if v, _ := s.Get("k"); v != "new" {
		t.Errorf("Get = %q, want new", v)
	}
	if v, err := s.GetAt("k", at(60)); err != nil || v.Value != "injected" {
		t.Errorf("GetAt(60) = %+v,%v, want injected", v, err)
	}
}

func TestEqualTimestampOrdering(t *testing.T) {
	// Same-second writes (second-granularity traces) keep insertion order.
	s := New()
	must(t, s.Set("k", "first", at(5)))
	must(t, s.Set("k", "second", at(5)))
	hist, _ := s.History("k")
	if hist[0].Value != "first" || hist[1].Value != "second" {
		t.Fatalf("equal-timestamp order = %+v", hist)
	}
	if v, _ := s.Get("k"); v != "second" {
		t.Errorf("Get = %q, want second (last inserted at equal time)", v)
	}
}

func TestLatest(t *testing.T) {
	s := New()
	must(t, s.Set("k", "a", at(0)))
	must(t, s.Set("k", "b", at(1)))
	v, err := s.Latest("k")
	if err != nil || v.Value != "b" {
		t.Fatalf("Latest = %+v,%v, want b", v, err)
	}
	if _, err := s.Latest("missing"); !errors.Is(err, ErrNoKey) {
		t.Errorf("Latest(missing) err = %v, want ErrNoKey", err)
	}
}

func TestHistoryMissing(t *testing.T) {
	if _, err := New().History("missing"); !errors.Is(err, ErrNoKey) {
		t.Errorf("History(missing) err = %v, want ErrNoKey", err)
	}
}

func TestKeysSorted(t *testing.T) {
	s := New()
	for _, k := range []string{"zeta", "alpha", "mid"} {
		must(t, s.Set(k, "v", at(0)))
	}
	keys := s.Keys()
	if len(keys) != 3 || keys[0] != "alpha" || keys[2] != "zeta" {
		t.Fatalf("Keys = %v, want sorted", keys)
	}
	if s.Len() != 3 {
		t.Errorf("Len = %d, want 3", s.Len())
	}
}

func TestCounters(t *testing.T) {
	s := New()
	must(t, s.Set("k", "a", at(0)))
	must(t, s.Set("k", "b", at(1)))
	must(t, s.Delete("k", at(2)))
	if s.WriteCount("k") != 2 || s.DeleteCount("k") != 1 || s.ModCount("k") != 3 {
		t.Errorf("counts = %d/%d/%d, want 2/1/3",
			s.WriteCount("k"), s.DeleteCount("k"), s.ModCount("k"))
	}
	if s.WriteCount("missing") != 0 || s.DeleteCount("missing") != 0 || s.ModCount("missing") != 0 {
		t.Error("missing key must report zero counts")
	}
}

func TestStats(t *testing.T) {
	s := New()
	must(t, s.Set("key1", "value1", at(0)))
	must(t, s.Set("key1", "value2", at(1)))
	must(t, s.Delete("key1", at(2)))
	must(t, s.Set("key2", "v", at(3)))
	s.Get("key1")
	s.Get("key2")
	s.CountRead("key1")
	s.CountRead("unknown")
	st := s.Stats()
	if st.Keys != 2 {
		t.Errorf("Keys = %d, want 2", st.Keys)
	}
	if st.Writes != 3 || st.Deletes != 1 {
		t.Errorf("Writes/Deletes = %d/%d, want 3/1", st.Writes, st.Deletes)
	}
	if st.Reads != 4 {
		t.Errorf("Reads = %d, want 4", st.Reads)
	}
	if st.Versions != 4 {
		t.Errorf("Versions = %d, want 4", st.Versions)
	}
	if st.ApproxBytes <= 0 {
		t.Errorf("ApproxBytes = %d, want positive", st.ApproxBytes)
	}
}

func TestClone(t *testing.T) {
	s := New()
	must(t, s.Set("k", "orig", at(0)))
	c := s.Clone()
	must(t, c.Set("k", "changed", at(1)))
	must(t, c.Set("new", "x", at(1)))
	if v, _ := s.Get("k"); v != "orig" {
		t.Error("mutating the clone leaked into the original")
	}
	if s.Len() != 1 {
		t.Error("clone key set leaked into the original")
	}
	if v, _ := c.Get("k"); v != "changed" {
		t.Error("clone did not apply its own write")
	}
}

func TestModTimes(t *testing.T) {
	s := New()
	must(t, s.Set("a", "1", at(10)))
	must(t, s.Set("b", "1", at(10))) // duplicate timestamp deduped
	must(t, s.Set("a", "2", at(30)))
	must(t, s.Set("b", "2", at(20)))
	times := s.ModTimes([]string{"a", "b", "missing"})
	if len(times) != 3 {
		t.Fatalf("ModTimes = %v, want 3 distinct times", times)
	}
	if !times[0].Equal(at(30)) || !times[1].Equal(at(20)) || !times[2].Equal(at(10)) {
		t.Errorf("ModTimes order = %v, want newest first", times)
	}
}

func TestConcurrentAccess(t *testing.T) {
	s := New()
	var wg sync.WaitGroup
	for g := 0; g < 8; g++ {
		wg.Add(1)
		go func(g int) {
			defer wg.Done()
			for i := 0; i < 200; i++ {
				key := fmt.Sprintf("k%d", i%10)
				_ = s.Set(key, "v", at(i))
				s.Get(key)
				_, _ = s.GetAt(key, at(i))
				_, _ = s.History(key)
			}
		}(g)
	}
	wg.Wait()
	if st := s.Stats(); st.Writes != 8*200 {
		t.Errorf("Writes = %d, want %d", st.Writes, 8*200)
	}
}

// Property: GetAt(k, t) always returns the version with the largest
// timestamp <= t, regardless of insertion order.
func TestGetAtProperty(t *testing.T) {
	rng := rand.New(rand.NewSource(11))
	prop := func(offsets []uint8) bool {
		if len(offsets) == 0 {
			return true
		}
		s := New()
		for i, off := range offsets {
			if err := s.Set("k", fmt.Sprintf("v%d", i), at(int(off))); err != nil {
				return false
			}
		}
		// Reference: track max offset <= query.
		for q := 0; q <= 255; q += 17 {
			var wantOff = -1
			for _, off := range offsets {
				if int(off) <= q && int(off) > wantOff {
					wantOff = int(off)
				}
			}
			v, err := s.GetAt("k", at(q))
			if wantOff == -1 {
				if !errors.Is(err, ErrNoVersion) {
					return false
				}
				continue
			}
			if err != nil || !v.Time.Equal(at(wantOff)) {
				return false
			}
		}
		return true
	}
	if err := quick.Check(prop, &quick.Config{MaxCount: 200, Rand: rng}); err != nil {
		t.Fatal(err)
	}
}

// Property: history is always chronologically sorted.
func TestHistorySortedProperty(t *testing.T) {
	prop := func(offsets []uint8) bool {
		s := New()
		for i, off := range offsets {
			if i%5 == 4 {
				if err := s.Delete("k", at(int(off))); err != nil {
					return false
				}
			} else if err := s.Set("k", "v", at(int(off))); err != nil {
				return false
			}
		}
		if len(offsets) == 0 {
			return true
		}
		hist, err := s.History("k")
		if err != nil {
			return false
		}
		for i := 1; i < len(hist); i++ {
			if hist[i].Time.Before(hist[i-1].Time) {
				return false
			}
		}
		return len(hist) == len(offsets)
	}
	if err := quick.Check(prop, &quick.Config{MaxCount: 200}); err != nil {
		t.Fatal(err)
	}
}

func must(t *testing.T, err error) {
	t.Helper()
	if err != nil {
		t.Fatal(err)
	}
}

func TestNewShardedRounding(t *testing.T) {
	for _, tt := range []struct{ in, want int }{
		{-3, 1}, {0, 1}, {1, 1}, {2, 2}, {3, 4}, {16, 16}, {17, 32},
	} {
		if got := NewSharded(tt.in).NumShards(); got != tt.want {
			t.Errorf("NewSharded(%d).NumShards() = %d, want %d", tt.in, got, tt.want)
		}
	}
}

// Regression: CountReads must not skew global read stats with reads of
// keys the store has never seen.
func TestCountReadsMissingKeyNotCounted(t *testing.T) {
	s := New()
	s.CountReads("ghost", 50)
	if st := s.Stats(); st.Reads != 0 {
		t.Fatalf("Reads after CountReads(missing) = %d, want 0", st.Reads)
	}
	must(t, s.Set("real", "v", at(0)))
	s.CountReads("real", 7)
	s.CountReads("ghost", 3)
	if st := s.Stats(); st.Reads != 7 {
		t.Fatalf("Reads = %d, want 7 (only the existing key counts)", st.Reads)
	}
}

func TestApplyBatch(t *testing.T) {
	s := New()
	muts := []Mutation{
		{Key: "a", Value: "1", Time: at(0)},
		{Key: "b", Value: "x", Time: at(1)},
		{Key: "a", Value: "2", Time: at(2)},
		{Key: "b", Time: at(3), Delete: true},
		// Equal-timestamp pair: batch order must be preserved.
		{Key: "a", Value: "first", Time: at(5)},
		{Key: "a", Value: "second", Time: at(5)},
	}
	if _, err := s.Apply(muts); err != nil {
		t.Fatal(err)
	}
	if v, _ := s.Get("a"); v != "second" {
		t.Errorf("a = %q, want second", v)
	}
	if _, ok := s.Get("b"); ok {
		t.Error("b must be deleted")
	}
	hist, _ := s.History("a")
	if len(hist) != 4 || hist[2].Value != "first" || hist[3].Value != "second" {
		t.Fatalf("a history = %+v, want batch order preserved at equal timestamps", hist)
	}
	if st := s.Stats(); st.Writes != 5 || st.Deletes != 1 {
		t.Errorf("Writes/Deletes = %d/%d, want 5/1", st.Writes, st.Deletes)
	}
}

// Oversized keys/values must be rejected at write time: the AOF replay
// side treats strings past MaxStringLen as corruption, so accepting one
// would make the log permanently unreplayable.
func TestOversizeRejected(t *testing.T) {
	s := New()
	big := string(make([]byte, MaxStringLen+1))
	if err := s.Set("k", big, at(0)); !errors.Is(err, ErrOversize) {
		t.Errorf("oversized value: err = %v, want ErrOversize", err)
	}
	if err := s.Set(big, "v", at(0)); !errors.Is(err, ErrOversize) {
		t.Errorf("oversized key: err = %v, want ErrOversize", err)
	}
	_, err := s.Apply([]Mutation{{Key: "k", Value: big, Time: at(0)}})
	if !errors.Is(err, ErrOversize) {
		t.Errorf("oversized batch value: err = %v, want ErrOversize", err)
	}
	if s.Len() != 0 {
		t.Error("rejected oversize writes must not land")
	}
}

func TestApplyValidatesUpFront(t *testing.T) {
	s := New()
	_, err := s.Apply([]Mutation{
		{Key: "good", Value: "v", Time: at(0)},
		{Key: "", Value: "v", Time: at(1)},
	})
	if !errors.Is(err, ErrEmptyKey) {
		t.Fatalf("err = %v, want ErrEmptyKey", err)
	}
	if s.Len() != 0 {
		t.Error("validation failure must apply no entries")
	}
	_, err = s.Apply([]Mutation{{Key: "k", Value: "v"}})
	if !errors.Is(err, ErrZeroTime) {
		t.Fatalf("err = %v, want ErrZeroTime", err)
	}
}

// Sharded and single-shard stores must be observationally identical for
// any mutation sequence applied in the same order.
func TestShardedMatchesSingleShard(t *testing.T) {
	rng := rand.New(rand.NewSource(42))
	single := NewSharded(1)
	sharded := NewSharded(16)
	for i := 0; i < 2000; i++ {
		key := fmt.Sprintf("k%d", rng.Intn(50))
		sec := rng.Intn(300)
		if rng.Intn(10) == 0 {
			must(t, single.Delete(key, at(sec)))
			must(t, sharded.Delete(key, at(sec)))
		} else {
			v := fmt.Sprintf("v%d", i)
			must(t, single.Set(key, v, at(sec)))
			must(t, sharded.Set(key, v, at(sec)))
		}
	}
	if got, want := sharded.Keys(), single.Keys(); !reflect.DeepEqual(got, want) {
		t.Fatalf("key sets differ: %v vs %v", got, want)
	}
	for _, k := range single.Keys() {
		wh, _ := single.History(k)
		gh, _ := sharded.History(k)
		if len(wh) != len(gh) {
			t.Fatalf("%q: %d versions, want %d", k, len(gh), len(wh))
		}
		for i := range wh {
			if wh[i].Value != gh[i].Value || !wh[i].Time.Equal(gh[i].Time) ||
				wh[i].Deleted != gh[i].Deleted || wh[i].Seq != gh[i].Seq {
				t.Errorf("%q version %d: %+v vs %+v", k, i, gh[i], wh[i])
			}
		}
		if single.ModCount(k) != sharded.ModCount(k) {
			t.Errorf("%q ModCount: %d vs %d", k, sharded.ModCount(k), single.ModCount(k))
		}
	}
	ss, st := single.Stats(), sharded.Stats()
	if ss != st {
		t.Errorf("stats differ: %+v vs %+v", st, ss)
	}
}

func TestConcurrentDistinctKeyWriters(t *testing.T) {
	s := NewSharded(16)
	const writers = 16
	const perWriter = 300
	var wg sync.WaitGroup
	for w := 0; w < writers; w++ {
		wg.Add(1)
		go func(w int) {
			defer wg.Done()
			key := fmt.Sprintf("writer-%d", w)
			for i := 0; i < perWriter; i++ {
				_ = s.Set(key, "v", at(i))
				s.Get(key)
				_, _ = s.GetAt(key, at(i))
			}
		}(w)
	}
	wg.Wait()
	st := s.Stats()
	if st.Writes != writers*perWriter {
		t.Errorf("Writes = %d, want %d", st.Writes, writers*perWriter)
	}
	if st.Keys != writers {
		t.Errorf("Keys = %d, want %d", st.Keys, writers)
	}
	for w := 0; w < writers; w++ {
		hist, err := s.History(fmt.Sprintf("writer-%d", w))
		if err != nil || len(hist) != perWriter {
			t.Fatalf("writer-%d history = %d,%v, want %d", w, len(hist), err, perWriter)
		}
	}
}

// BenchmarkStoreParallel measures concurrent writers hitting distinct
// keys. The shards=1 case is the historical single-lock store; at
// GOMAXPROCS >= 8 the sharded configurations should win by well over 3x
// because distinct-key writers share no locks, only the atomic sequence
// counter.
func BenchmarkStoreParallel(b *testing.B) {
	for _, shards := range []int{1, 8, 16, 64} {
		b.Run(fmt.Sprintf("shards=%d", shards), func(b *testing.B) {
			s := NewSharded(shards)
			var id atomic.Int64
			b.ReportAllocs()
			b.ResetTimer()
			b.RunParallel(func(pb *testing.PB) {
				key := fmt.Sprintf("writer-%d", id.Add(1))
				i := 0
				for pb.Next() {
					i++
					if err := s.Set(key, "value", at(i)); err != nil {
						b.Fatal(err)
					}
				}
			})
		})
	}
}

// BenchmarkStoreParallelGroupCommit is the same write-heavy workload with
// a group-commit segmented log attached, to quantify the persistence
// overhead on the hot path (an in-memory memcpy; disk I/O is off-thread).
func BenchmarkStoreParallelGroupCommit(b *testing.B) {
	aof, err := OpenSegmented(b.TempDir(), SegmentedConfig{})
	if err != nil {
		b.Fatal(err)
	}
	gc := NewGroupCommit(aof, GroupCommitConfig{Fsync: FsyncNever})
	defer gc.Close()
	s := NewSharded(16)
	s.AttachGroupCommit(gc)
	var id atomic.Int64
	b.ReportAllocs()
	b.ResetTimer()
	b.RunParallel(func(pb *testing.PB) {
		key := fmt.Sprintf("writer-%d", id.Add(1))
		i := 0
		for pb.Next() {
			i++
			if err := s.Set(key, "value", at(i)); err != nil {
				b.Fatal(err)
			}
		}
	})
}

// BenchmarkApplyBatch times the batch API per mutation (b.N counts
// mutations, applied in batches of 100) against one persistent store, so
// the number reflects Apply itself rather than store construction.
func BenchmarkApplyBatch(b *testing.B) {
	const batchSize = 100
	s := NewSharded(16)
	muts := make([]Mutation, batchSize)
	for i := range muts {
		muts[i] = Mutation{Key: fmt.Sprintf("k%d", i), Value: "value"}
	}
	b.ReportAllocs()
	b.ResetTimer()
	t := 0
	for n := 0; n < b.N; n += batchSize {
		for j := range muts {
			t++
			muts[j].Time = at(t)
		}
		if _, err := s.Apply(muts); err != nil {
			b.Fatal(err)
		}
	}
}

// recordingObserver captures StatsObserver callbacks.
type recordingObserver struct {
	mu   sync.Mutex
	seen []string
}

func (r *recordingObserver) ObserveWrite(key string, t time.Time, deleted bool) {
	r.mu.Lock()
	defer r.mu.Unlock()
	suffix := ""
	if deleted {
		suffix = "!"
	}
	r.seen = append(r.seen, fmt.Sprintf("%s@%d%s", key, t.Unix(), suffix))
}

func TestStatsObserverSeesAllMutationPaths(t *testing.T) {
	s := New()
	obs := &recordingObserver{}
	s.SetStatsObserver(obs)
	if err := s.Set("a", "1", at(1)); err != nil {
		t.Fatal(err)
	}
	if err := s.Delete("a", at(2)); err != nil {
		t.Fatal(err)
	}
	if _, err := s.Apply([]Mutation{
		{Key: "b", Value: "2", Time: at(3)},
		{Key: "c", Value: "3", Time: at(4), Delete: true},
	}); err != nil {
		t.Fatal(err)
	}
	want := []string{"a@" + fmt.Sprint(at(1).Unix()), "a@" + fmt.Sprint(at(2).Unix()) + "!",
		"b@" + fmt.Sprint(at(3).Unix()), "c@" + fmt.Sprint(at(4).Unix()) + "!"}
	if !reflect.DeepEqual(obs.seen, want) {
		t.Fatalf("observer saw %v, want %v", obs.seen, want)
	}

	// Rejected writes must not reach the observer.
	if err := s.Set("", "x", at(5)); err == nil {
		t.Fatal("empty key accepted")
	}
	if err := s.Set("d", "x", time.Time{}); err == nil {
		t.Fatal("zero time accepted")
	}
	if len(obs.seen) != 4 {
		t.Fatalf("rejected writes reached the observer: %v", obs.seen)
	}

	// Detaching stops the callbacks.
	s.SetStatsObserver(nil)
	if err := s.Set("e", "x", at(6)); err != nil {
		t.Fatal(err)
	}
	if len(obs.seen) != 4 {
		t.Fatalf("detached observer still called: %v", obs.seen)
	}
}

// TestStatsObserverSeesReplayedAOF: segment replay (parallel across
// sealed segments) bypasses the observer, and ObserveHistory then feeds
// the replayed history through it in sequence order — not time order,
// tombstones included — before live writes follow. This is the path
// ttkvd and OpenStore warm the analytics engine through on restart.
func TestStatsObserverSeesReplayedAOF(t *testing.T) {
	dir := t.TempDir()
	cfg := SegmentedConfig{MaxSegmentBytes: 32} // roll after every batch
	src, sa, gc := newSegStore(t, dir, cfg)
	writes := []struct {
		key string
		sec int
		del bool
	}{
		{"k1", 1, false},
		{"k2", 5, false},
		{"k1", 3, false}, // out of order: sequence order differs from time order
		{"k2", 6, true},
		{"k1", 2, true}, // an out-of-order tombstone
		{"k3", 4, false},
	}
	var want []string
	for _, w := range writes {
		if w.del {
			must(t, src.Delete(w.key, at(w.sec)))
		} else {
			must(t, src.Set(w.key, "v", at(w.sec)))
		}
		must(t, src.SyncAOF()) // one record per batch, so segments roll
		suffix := ""
		if w.del {
			suffix = "!"
		}
		want = append(want, fmt.Sprintf("%s@%d%s", w.key, at(w.sec).Unix(), suffix))
	}
	if st := sa.Stats(); st.Sealed < 3 {
		t.Fatalf("Sealed = %d, want several segments to replay in parallel", st.Sealed)
	}
	if err := gc.Close(); err != nil {
		t.Fatal(err)
	}

	dst := New()
	obs := &recordingObserver{}
	dst.SetStatsObserver(obs)
	re, err := OpenSegmentedInto(dir, dst, SegmentedConfig{MaxSegmentBytes: 32, Parallelism: 4})
	if err != nil {
		t.Fatal(err)
	}
	defer re.Close()
	if len(obs.seen) != 0 {
		t.Fatalf("segment replay reached the observer directly: %v", obs.seen)
	}
	dst.ObserveHistory(obs)
	if !reflect.DeepEqual(obs.seen, want) {
		t.Fatalf("ObserveHistory fed %v, want %v (sequence order)", obs.seen, want)
	}
	must(t, dst.Set("live", "v", at(9)))
	if got := obs.seen[len(obs.seen)-1]; got != fmt.Sprintf("live@%d", at(9).Unix()) {
		t.Fatalf("live write after backfill observed as %q", got)
	}
}
