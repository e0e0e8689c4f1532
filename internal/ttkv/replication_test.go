package ttkv

import (
	"bytes"
	"errors"
	"fmt"
	"math/rand"
	"sync"
	"testing"
	"time"
)

// snapBytes returns the store's snapshot dump, the byte-identity oracle
// the replication suite compares stores with (version seqs included via
// global ordering).
func snapBytes(t *testing.T, s *Store) []byte {
	t.Helper()
	var buf bytes.Buffer
	if err := s.WriteSnapshot(&buf); err != nil {
		t.Fatal(err)
	}
	return buf.Bytes()
}

func TestReplRecordRoundtrip(t *testing.T) {
	base := time.Date(2014, 6, 23, 10, 0, 0, 0, time.UTC)
	recs := []ReplRecord{
		{Seq: 1, Key: "k", Value: "v", Time: base},
		{Seq: 2, Key: "k", Value: "", Time: base.Add(time.Second)},
		{Seq: 3, Key: "gone", Time: base.Add(2 * time.Second), Deleted: true},
		{Seq: 4, Key: "a/b", Value: "x\x00y", Time: base, BatchOpen: true},
		{Seq: 1<<64 - 1, Key: "max", Value: "v", Time: base, Deleted: false, BatchOpen: true},
	}
	var buf []byte
	for _, r := range recs {
		buf = AppendReplRecord(buf, r)
	}
	for _, want := range recs {
		got, n, err := DecodeReplRecord(buf)
		if err != nil {
			t.Fatalf("decode %+v: %v", want, err)
		}
		if got.Seq != want.Seq || got.Key != want.Key || got.Value != want.Value ||
			!got.Time.Equal(want.Time) || got.Deleted != want.Deleted || got.BatchOpen != want.BatchOpen {
			t.Fatalf("roundtrip: got %+v, want %+v", got, want)
		}
		buf = buf[n:]
	}
	if len(buf) != 0 {
		t.Fatalf("%d bytes left after decoding all records", len(buf))
	}
}

func TestReplRecordDecodeCorrupt(t *testing.T) {
	good := AppendReplRecord(nil, ReplRecord{Seq: 9, Key: "key", Value: "value", Time: time.Unix(10, 0)})
	for _, tc := range []struct {
		name string
		b    []byte
	}{
		{"empty", nil},
		{"truncated header", good[:10]},
		{"truncated key", good[:1+8+8+4+1]},
		{"truncated value length", good[:1+8+8+4+3+2]},
		{"unknown flags", append([]byte{0x80}, good[1:]...)},
		{"oversize length", func() []byte {
			b := append([]byte(nil), good...)
			// Stamp the key length with something past MaxStringLen.
			b[17], b[18], b[19], b[20] = 0xff, 0xff, 0xff, 0xff
			return b
		}()},
	} {
		if _, _, err := DecodeReplRecord(tc.b); !errors.Is(err, ErrReplCorrupt) {
			t.Errorf("%s: err = %v, want ErrReplCorrupt", tc.name, err)
		}
	}
}

// TestReplLogCommitGate: with a group-commit appender, records must not
// reach subscribers before the appender commits them — and a Sync barrier
// must push them through before it returns.
func TestReplLogCommitGate(t *testing.T) {
	gc, _ := newTestGroupCommit(t, GroupCommitConfig{
		FlushInterval: time.Hour, // only explicit Sync flushes
		Fsync:         FsyncInterval,
	})
	defer gc.Close()
	s := New()
	rl := NewReplLog(gc)
	if err := s.AttachReplLog(rl); err != nil {
		t.Fatal(err)
	}
	sub, from := rl.Subscribe(1 << 20)
	defer sub.Close()
	if from != 0 {
		t.Fatalf("fresh log durable watermark = %d, want 0", from)
	}

	base := time.Unix(100, 0)
	for i := 0; i < 5; i++ {
		if err := s.Set(fmt.Sprintf("k%d", i), "v", base.Add(time.Duration(i)*time.Second)); err != nil {
			t.Fatal(err)
		}
	}
	if data, _, err := sub.Next(50 * time.Millisecond); err != nil || data != nil {
		t.Fatalf("records leaked to the subscriber before commit: %d frames, err %v", len(data), err)
	}
	if got := rl.DurableSeq(); got != 0 {
		t.Fatalf("DurableSeq = %d before any flush, want 0", got)
	}

	if err := s.SyncAOF(); err != nil {
		t.Fatal(err)
	}
	// The commit callback runs before Sync returns: the watermark is
	// already advanced, no polling needed.
	if got := rl.DurableSeq(); got != 5 {
		t.Fatalf("DurableSeq after Sync = %d, want 5", got)
	}
	data, last, err := sub.Next(time.Second)
	if err != nil {
		t.Fatal(err)
	}
	if last != 5 {
		t.Fatalf("delivered watermark = %d, want 5", last)
	}
	var seqs []uint64
	for _, d := range data {
		for len(d) > 0 {
			rec, n, err := DecodeReplRecord(d)
			if err != nil {
				t.Fatal(err)
			}
			seqs = append(seqs, rec.Seq)
			d = d[n:]
		}
	}
	for i, seq := range seqs {
		if seq != uint64(i+1) {
			t.Fatalf("stream seqs = %v, want 1..5 in order", seqs)
		}
	}
	if len(seqs) != 5 {
		t.Fatalf("delivered %d records, want 5", len(seqs))
	}
}

// TestReplLogInMemoryImmediate: with no appender there is nothing the
// primary could lose, so records are shippable the instant they apply.
func TestReplLogInMemoryImmediate(t *testing.T) {
	s := New()
	rl := NewReplLog(nil)
	if err := s.AttachReplLog(rl); err != nil {
		t.Fatal(err)
	}
	sub, _ := rl.Subscribe(1 << 20)
	defer sub.Close()
	if err := s.Set("k", "v", time.Unix(1, 0)); err != nil {
		t.Fatal(err)
	}
	data, last, err := sub.Next(time.Second)
	if err != nil || len(data) == 0 || last != 1 {
		t.Fatalf("Next = (%d frames, last %d, %v), want immediate delivery of seq 1", len(data), last, err)
	}
}

// TestReplLogSubscribePartition: records committed before Subscribe are
// not delivered through the outbox (the snapshot range serves them);
// records after are. Together they cover the stream exactly once.
func TestReplLogSubscribePartition(t *testing.T) {
	s := New()
	rl := NewReplLog(nil)
	if err := s.AttachReplLog(rl); err != nil {
		t.Fatal(err)
	}
	for i := 0; i < 3; i++ {
		if err := s.Set(fmt.Sprintf("pre%d", i), "v", time.Unix(int64(i+1), 0)); err != nil {
			t.Fatal(err)
		}
	}
	sub, from := rl.Subscribe(1 << 20)
	defer sub.Close()
	if from != 3 {
		t.Fatalf("subscribe watermark = %d, want 3", from)
	}
	snap := s.ReplSnapshot(0, from)
	if len(snap) != 3 {
		t.Fatalf("snapshot range has %d records, want 3", len(snap))
	}
	for i, r := range snap {
		if r.Seq != uint64(i+1) {
			t.Fatalf("snapshot seqs out of order: %+v", snap)
		}
	}
	if err := s.Set("post", "v", time.Unix(10, 0)); err != nil {
		t.Fatal(err)
	}
	data, last, err := sub.Next(time.Second)
	if err != nil || last != 4 {
		t.Fatalf("Next = (last %d, %v), want the post-subscribe record seq 4", last, err)
	}
	rec, _, err := DecodeReplRecord(data[0])
	if err != nil || rec.Key != "post" {
		t.Fatalf("outbox delivered %+v, %v; want key \"post\"", rec, err)
	}
}

// TestReplSubOverflowDrops: a subscriber that exceeds its byte budget is
// dropped with ErrReplSubLagging instead of growing without bound.
func TestReplSubOverflowDrops(t *testing.T) {
	s := New()
	rl := NewReplLog(nil)
	if err := s.AttachReplLog(rl); err != nil {
		t.Fatal(err)
	}
	sub, _ := rl.Subscribe(64) // tiny budget
	defer sub.Close()
	big := string(bytes.Repeat([]byte("x"), 128))
	if err := s.Set("k", big, time.Unix(1, 0)); err != nil {
		t.Fatal(err)
	}
	if _, _, err := sub.Next(time.Second); !errors.Is(err, ErrReplSubLagging) {
		t.Fatalf("Next err = %v, want ErrReplSubLagging", err)
	}
	// The log itself keeps serving other subscribers and writers.
	if err := s.Set("k2", "v", time.Unix(2, 0)); err != nil {
		t.Fatal(err)
	}
}

// TestApplyReplicatedRebuildsExactly: a replica that replays the stream
// reproduces byte-identical dumps (same seqs, same order) and the same
// counters, and re-applying any prefix trips the exactly-once guard.
func TestApplyReplicatedRebuildsExactly(t *testing.T) {
	primary := New()
	rl := NewReplLog(nil)
	if err := primary.AttachReplLog(rl); err != nil {
		t.Fatal(err)
	}
	sub, _ := rl.Subscribe(1 << 20)
	defer sub.Close()

	base := time.Unix(1000, 0)
	rng := rand.New(rand.NewSource(7))
	for i := 0; i < 200; i++ {
		k := fmt.Sprintf("key%02d", rng.Intn(20))
		if rng.Intn(10) == 0 {
			if err := primary.Delete(k, base.Add(time.Duration(i)*time.Second)); err != nil {
				t.Fatal(err)
			}
		} else if err := primary.Set(k, fmt.Sprintf("v%d", i), base.Add(time.Duration(i)*time.Second)); err != nil {
			t.Fatal(err)
		}
	}

	var recs []ReplRecord
	for {
		data, _, err := sub.Next(20 * time.Millisecond)
		if err != nil {
			t.Fatal(err)
		}
		if data == nil {
			break
		}
		for _, d := range data {
			for len(d) > 0 {
				rec, n, err := DecodeReplRecord(d)
				if err != nil {
					t.Fatal(err)
				}
				recs = append(recs, rec)
				d = d[n:]
			}
		}
	}
	if len(recs) != 200 {
		t.Fatalf("streamed %d records, want 200", len(recs))
	}

	replica := NewSharded(4) // different shard count must not matter
	if err := replica.ApplyReplicated(recs); err != nil {
		t.Fatal(err)
	}
	if got, want := snapBytes(t, replica), snapBytes(t, primary); !bytes.Equal(got, want) {
		t.Fatal("replica dump differs from primary dump")
	}
	if replica.CurrentSeq() != primary.CurrentSeq() {
		t.Fatalf("replica seq %d, primary seq %d", replica.CurrentSeq(), primary.CurrentSeq())
	}
	for _, k := range primary.Keys() {
		if replica.ModCount(k) != primary.ModCount(k) {
			t.Fatalf("%s: replica modcount %d, primary %d", k, replica.ModCount(k), primary.ModCount(k))
		}
	}
	pm, rm := primary.ModTimes(primary.Keys()), replica.ModTimes(replica.Keys())
	if len(pm) != len(rm) {
		t.Fatalf("modtimes length %d vs %d", len(rm), len(pm))
	}
	for i := range pm {
		if !pm[i].Equal(rm[i]) {
			t.Fatalf("modtimes[%d] %v vs %v", i, rm[i], pm[i])
		}
	}

	// Exactly-once: any duplicate application must fail loudly, leaving
	// the store untouched.
	before := snapBytes(t, replica)
	if err := replica.ApplyReplicated(recs[len(recs)-3:]); !errors.Is(err, ErrReplSeq) {
		t.Fatalf("duplicate apply err = %v, want ErrReplSeq", err)
	}
	if !bytes.Equal(before, snapBytes(t, replica)) {
		t.Fatal("failed duplicate apply mutated the store")
	}
}

// TestApplyReplicatedValidation covers the reject paths.
func TestApplyReplicatedValidation(t *testing.T) {
	s := New()
	good := ReplRecord{Seq: 1, Key: "k", Value: "v", Time: time.Unix(1, 0)}
	for _, tc := range []struct {
		name string
		recs []ReplRecord
		want error
	}{
		{"empty key", []ReplRecord{{Seq: 1, Time: time.Unix(1, 0)}}, ErrEmptyKey},
		{"zero time", []ReplRecord{{Seq: 1, Key: "k"}}, ErrZeroTime},
		{"non-ascending", []ReplRecord{good, {Seq: 1, Key: "k2", Value: "v", Time: time.Unix(2, 0)}}, ErrReplSeq},
		{"zero seq", []ReplRecord{{Seq: 0, Key: "k", Value: "v", Time: time.Unix(1, 0)}}, ErrReplSeq},
	} {
		if err := s.ApplyReplicated(tc.recs); !errors.Is(err, tc.want) {
			t.Errorf("%s: err = %v, want %v", tc.name, err, tc.want)
		}
	}
	if s.Len() != 0 {
		t.Fatal("rejected batches must leave the store empty")
	}

	withSink := New()
	rl := NewReplLog(nil)
	if err := withSink.AttachReplLog(rl); err != nil {
		t.Fatal(err)
	}
	if err := withSink.ApplyReplicated([]ReplRecord{good}); !errors.Is(err, ErrReplSinkAttached) {
		t.Fatalf("apply with sink attached err = %v, want ErrReplSinkAttached", err)
	}
}

// TestApplyReplicatedAtomicVisibility: a replicated batch spanning shards
// is never readable half-applied — the torn-read guarantee a cluster
// revert has on the primary survives replication. Readers pin a view at
// the publication watermark: two independent Gets are not a snapshot (a
// reader descheduled between them legitimately sees two different batches).
func TestApplyReplicatedAtomicVisibility(t *testing.T) {
	s := NewSharded(16)
	keys := []string{"pair/a", "pair/b"}
	base := time.Unix(1, 0)
	if err := s.ApplyReplicated([]ReplRecord{
		{Seq: 1, Key: keys[0], Value: "old", Time: base},
		{Seq: 2, Key: keys[1], Value: "old", Time: base},
	}); err != nil {
		t.Fatal(err)
	}

	stop := make(chan struct{})
	var torn sync.Map
	var wg sync.WaitGroup
	for r := 0; r < 4; r++ {
		wg.Add(1)
		go func() {
			defer wg.Done()
			for {
				select {
				case <-stop:
					return
				default:
				}
				v := s.ViewAt(s.CurrentSeq())
				a, _ := v.Get(keys[0])
				b, _ := v.Get(keys[1])
				if a != b {
					torn.Store(a+"|"+b, true)
				}
			}
		}()
	}

	seq := uint64(2)
	for i := 0; i < 200; i++ {
		val := fmt.Sprintf("v%d", i)
		batch := []ReplRecord{
			{Seq: seq + 1, Key: keys[0], Value: val, Time: base.Add(time.Duration(i+1) * time.Second), BatchOpen: true},
			{Seq: seq + 2, Key: keys[1], Value: val, Time: base.Add(time.Duration(i+1) * time.Second)},
		}
		seq += 2
		if err := s.ApplyReplicated(batch); err != nil {
			t.Fatal(err)
		}
	}
	close(stop)
	wg.Wait()
	torn.Range(func(k, _ any) bool {
		t.Errorf("torn read observed: %v", k)
		return true
	})
}

// TestRevertClusterReplBatch: a cluster revert on a replicated primary
// occupies one contiguous batch-flagged run of the stream even while
// unrelated writers race it — the regression test for mutations flowing
// through the replication tap in commit order.
func TestRevertClusterReplBatch(t *testing.T) {
	s := NewSharded(8)
	rl := NewReplLog(nil)
	if err := s.AttachReplLog(rl); err != nil {
		t.Fatal(err)
	}
	base := time.Unix(1000, 0)
	cluster := []string{"c/a", "c/b", "c/c"}
	for i, k := range cluster {
		if err := s.Set(k, "good", base.Add(time.Duration(i)*time.Millisecond)); err != nil {
			t.Fatal(err)
		}
		if err := s.Set(k, "bad", base.Add(time.Hour)); err != nil {
			t.Fatal(err)
		}
	}

	sub, _ := rl.Subscribe(1 << 20)
	defer sub.Close()

	// Unrelated writers race the revert.
	stop := make(chan struct{})
	var wg sync.WaitGroup
	for w := 0; w < 4; w++ {
		wg.Add(1)
		go func(w int) {
			defer wg.Done()
			for i := 0; ; i++ {
				select {
				case <-stop:
					return
				default:
				}
				s.Set(fmt.Sprintf("noise/%d", w), fmt.Sprintf("n%d", i), base.Add(2*time.Hour))
			}
		}(w)
	}
	applyAt := base.Add(3 * time.Hour)
	n, err := s.RevertCluster(cluster, base.Add(time.Minute), applyAt)
	close(stop)
	wg.Wait()
	if err != nil || n != len(cluster) {
		t.Fatalf("RevertCluster = (%d, %v), want (%d, nil)", n, err, len(cluster))
	}

	// Drain the stream and find the revert's records.
	var recs []ReplRecord
	for {
		data, _, err := sub.Next(20 * time.Millisecond)
		if err != nil {
			t.Fatal(err)
		}
		if data == nil {
			break
		}
		for _, d := range data {
			for len(d) > 0 {
				rec, n, err := DecodeReplRecord(d)
				if err != nil {
					t.Fatal(err)
				}
				recs = append(recs, rec)
				d = d[n:]
			}
		}
	}
	var revert []ReplRecord
	for i, r := range recs {
		if i > 0 && r.Seq != recs[i-1].Seq+1 {
			t.Fatalf("stream seqs not contiguous at %d: %d after %d", i, r.Seq, recs[i-1].Seq)
		}
		if r.Time.Equal(applyAt) {
			revert = append(revert, r)
		}
	}
	if len(revert) != len(cluster) {
		t.Fatalf("found %d revert records in the stream, want %d", len(revert), len(cluster))
	}
	for i, r := range revert {
		if i > 0 && r.Seq != revert[i-1].Seq+1 {
			t.Fatalf("revert interleaved with other writers: seqs %d then %d", revert[i-1].Seq, r.Seq)
		}
		if wantOpen := i < len(revert)-1; r.BatchOpen != wantOpen {
			t.Fatalf("revert record %d BatchOpen = %v, want %v", i, r.BatchOpen, wantOpen)
		}
		if r.Value != "good" {
			t.Fatalf("revert record %d value %q, want \"good\"", i, r.Value)
		}
	}
}

// TestReplDurableWatermarkBatchAligned: the durable watermark — and with
// it the snapshot/tail boundary a resuming replica syncs at — must never
// land strictly inside an atomic batch. A revert batch enters the
// appender as one indivisible enqueue, so no flush cycle can ever observe
// (and commit) a prefix of it. The test wraps the commit callback to see
// every committed gen while a Sync hammer forces flushes at arbitrary
// points between appends; the single-writer workload makes each gen's
// batch position computable, so one mid-batch commit fails the test.
func TestReplDurableWatermarkBatchAligned(t *testing.T) {
	gc, _ := newTestGroupCommit(t, GroupCommitConfig{
		FlushInterval: time.Millisecond,
		MaxBatchBytes: 1, // every append wakes the flusher immediately
		Fsync:         FsyncNever,
	})
	s := NewSharded(8)
	rl := NewReplLog(gc)
	if err := s.AttachReplLog(rl); err != nil {
		t.Fatal(err)
	}
	// Observe every committed gen (not a sampling race): the wrapper runs
	// on the flusher goroutine for each flush cycle.
	var genMu sync.Mutex
	var gens []uint64
	gc.setOnCommit(func(gen uint64) {
		genMu.Lock()
		gens = append(gens, gen)
		genMu.Unlock()
		rl.onCommit(gen)
	})

	// Fat values stretch the per-record work inside the batch append to
	// microseconds, so a flusher woken per append has ample time to flush
	// between two records of a batch that is not enqueued atomically.
	const clusterKeys = 16
	fat := string(bytes.Repeat([]byte("v"), 256<<10))
	base := time.Unix(1000, 0)
	cluster := make([]string, clusterKeys)
	for i := range cluster {
		cluster[i] = fmt.Sprintf("c/k%02d", i)
		if err := s.Set(cluster[i], fat, base.Add(time.Duration(i)*time.Millisecond)); err != nil {
			t.Fatal(err)
		}
	}

	const rounds = 12
	// fixAt sits after every seed write, so each revert's plan re-writes
	// all clusterKeys keys: every batch is exactly clusterKeys records.
	fixAt := base.Add(time.Second)
	for i := 0; i < rounds; i++ {
		if _, err := s.RevertCluster(cluster, fixAt, base.Add(time.Duration(i+1)*time.Hour)); err != nil {
			t.Fatal(err)
		}
		if err := s.Set("noise", fmt.Sprintf("n%d", i), base.Add(time.Duration(i)*time.Second)); err != nil {
			t.Fatal(err)
		}
	}
	if err := s.SyncAOF(); err != nil {
		t.Fatal(err)
	}

	// Gen layout (single writer): clusterKeys seed sets, then per round a
	// clusterKeys-record batch followed by 1 noise set. Any committed gen
	// strictly inside a batch is a torn resume boundary.
	genMu.Lock()
	defer genMu.Unlock()
	if len(gens) == 0 {
		t.Fatal("commit callback never ran")
	}
	const span = clusterKeys + 1
	last := uint64(clusterKeys + span*rounds)
	for _, g := range gens {
		if g <= clusterKeys || g > last {
			continue
		}
		if pos := (g - clusterKeys - 1) % span; pos < clusterKeys-1 {
			t.Fatalf("flusher committed gen %d: strictly inside a revert batch (position %d of %d)", g, pos, clusterKeys)
		}
	}
	if final := gens[len(gens)-1]; final != last {
		t.Fatalf("final committed gen %d, want %d", final, last)
	}
}

// replSnapEqual compares two stores' full replication snapshots record
// for record, sequence numbers included.
func replSnapEqual(t *testing.T, got, want *Store) {
	t.Helper()
	a, b := got.ReplSnapshot(0, got.CurrentSeq()), want.ReplSnapshot(0, want.CurrentSeq())
	if len(a) != len(b) {
		t.Fatalf("snapshot lengths %d, want %d", len(a), len(b))
	}
	for i := range b {
		if a[i].Seq != b[i].Seq || a[i].Key != b[i].Key || a[i].Value != b[i].Value ||
			!a[i].Time.Equal(b[i].Time) || a[i].Deleted != b[i].Deleted {
			t.Fatalf("record %d: got %+v, want %+v", i, a[i], b[i])
		}
	}
}

// TestReplAOFOrderMatchesSeqOrder: with a replication log attached, the
// segment byte order IS the sequence order even under concurrent writers,
// so segment replay (which derives each record's seq from its position)
// rebuilds identical sequence numbers and dumps are byte-identical across
// a restart — the invariant resumable replication rests on.
func TestReplAOFOrderMatchesSeqOrder(t *testing.T) {
	gc, dir := newTestGroupCommit(t, GroupCommitConfig{FlushInterval: time.Millisecond})
	s := NewSharded(16)
	rl := NewReplLog(gc)
	if err := s.AttachReplLog(rl); err != nil {
		t.Fatal(err)
	}
	base := time.Unix(5000, 0)
	var wg sync.WaitGroup
	for w := 0; w < 8; w++ {
		wg.Add(1)
		go func(w int) {
			defer wg.Done()
			for i := 0; i < 200; i++ {
				k := fmt.Sprintf("w%d/k%d", w, i%17)
				if i%13 == 0 {
					s.Delete(k, base.Add(time.Duration(i)*time.Second))
				} else {
					s.Set(k, fmt.Sprintf("v%d", i), base.Add(time.Duration(i)*time.Second))
				}
			}
		}(w)
	}
	wg.Wait()
	if err := s.SyncAOF(); err != nil {
		t.Fatal(err)
	}
	s.AttachReplLog(nil)
	if err := gc.Close(); err != nil {
		t.Fatal(err)
	}

	replayed := loadSegments(t, dir)
	if got, want := snapBytes(t, replayed), snapBytes(t, s); !bytes.Equal(got, want) {
		t.Fatal("replayed dump differs: segment order diverged from seq order")
	}
	replSnapEqual(t, replayed, s)
}

// TestStoreReset empties everything and refuses with a sink attached.
func TestStoreReset(t *testing.T) {
	s := New()
	if err := s.Set("k", "v", time.Unix(1, 0)); err != nil {
		t.Fatal(err)
	}
	s.CountRead("k")
	if err := s.Reset(); err != nil {
		t.Fatal(err)
	}
	if s.Len() != 0 || s.CurrentSeq() != 0 {
		t.Fatalf("after Reset: len %d seq %d, want 0 0", s.Len(), s.CurrentSeq())
	}
	st := s.Stats()
	if st.Writes != 0 || st.Deletes != 0 || st.Reads != 0 || st.Versions != 0 {
		t.Fatalf("after Reset: stats %+v, want zeros", st)
	}
	if err := s.Set("k", "v2", time.Unix(2, 0)); err != nil {
		t.Fatal(err)
	}
	if v, _ := s.Get("k"); v != "v2" {
		t.Fatalf("store unusable after Reset: Get = %q", v)
	}

	rl := NewReplLog(nil)
	if err := s.AttachReplLog(rl); err != nil {
		t.Fatal(err)
	}
	if err := s.Reset(); !errors.Is(err, ErrReplSinkAttached) {
		t.Fatalf("Reset with sink err = %v, want ErrReplSinkAttached", err)
	}
}

// TestReplLogRebindRejected: one log cannot serve two stores.
func TestReplLogRebindRejected(t *testing.T) {
	rl := NewReplLog(nil)
	a, b := New(), New()
	if err := a.AttachReplLog(rl); err != nil {
		t.Fatal(err)
	}
	if err := b.AttachReplLog(rl); !errors.Is(err, ErrReplBound) {
		t.Fatalf("second attach err = %v, want ErrReplBound", err)
	}
	// Re-attaching to the same store is fine (idempotent).
	if err := a.AttachReplLog(rl); err != nil {
		t.Fatal(err)
	}
}
