package ttkv

import (
	"bytes"
	"errors"
	"fmt"
	"os"
	"path/filepath"
	"strings"
	"testing"
	"time"
)

// newSegStore opens a segmented log in dir wired the production way:
// store → ReplLog → GroupCommit → SegmentedAOF. Returns the store and
// the group commit (Close tears the whole stack down).
func newSegStore(t *testing.T, dir string, cfg SegmentedConfig) (*Store, *SegmentedAOF, *GroupCommit) {
	t.Helper()
	s := New()
	sa, err := OpenSegmentedInto(dir, s, cfg)
	if err != nil {
		t.Fatal(err)
	}
	gc := NewGroupCommit(sa, GroupCommitConfig{})
	rl := NewReplLog(gc)
	if err := s.AttachReplLog(rl); err != nil {
		t.Fatal(err)
	}
	return s, sa, gc
}

// fillSegStore writes n records (key k<i%17>, distinct timestamps, every
// 5th a delete), syncing every few writes so batches stay small and the
// tiny segment threshold in these tests forces frequent rolls.
func fillSegStore(t *testing.T, s *Store, n int) {
	t.Helper()
	base := time.Unix(1000, 0)
	for i := 0; i < n; i++ {
		k := fmt.Sprintf("k%02d", i%17)
		tm := base.Add(time.Duration(i) * time.Second)
		var err error
		if i%5 == 4 {
			err = s.Delete(k, tm)
		} else {
			err = s.Set(k, fmt.Sprintf("v%04d", i), tm)
		}
		if err != nil {
			t.Fatal(err)
		}
		if i%3 == 2 {
			if err := s.SyncAOF(); err != nil {
				t.Fatal(err)
			}
		}
	}
	if err := s.SyncAOF(); err != nil {
		t.Fatal(err)
	}
}

func TestSegmentedRoundTrip(t *testing.T) {
	dir := t.TempDir()
	cfg := SegmentedConfig{MaxSegmentBytes: 128}
	s, sa, gc := newSegStore(t, dir, cfg)
	fillSegStore(t, s, 100)
	if st := sa.Stats(); st.Sealed < 3 {
		t.Fatalf("Sealed = %d, want several rolls at a 128-byte threshold", st.Sealed)
	} else if st.Records != 100 {
		t.Fatalf("Stats records = %d, want 100", st.Records)
	}
	if err := gc.Close(); err != nil {
		t.Fatal(err)
	}

	s2 := New()
	sa2, err := OpenSegmentedInto(dir, s2, cfg)
	if err != nil {
		t.Fatal(err)
	}
	dumpEqual(t, s2, s)
	if got := s2.CurrentSeq(); got != 100 {
		t.Fatalf("CurrentSeq after replay = %d, want 100", got)
	}

	// Appends continue the sequence space where replay left off.
	gc2 := NewGroupCommit(sa2, GroupCommitConfig{})
	rl2 := NewReplLog(gc2)
	if err := s2.AttachReplLog(rl2); err != nil {
		t.Fatal(err)
	}
	if err := s2.Set("after", "reopen", time.Unix(5000, 0)); err != nil {
		t.Fatal(err)
	}
	if err := s2.SyncAOF(); err != nil {
		t.Fatal(err)
	}
	if got := rl2.DurableSeq(); got != 101 {
		t.Fatalf("DurableSeq after reopen+append = %d, want 101", got)
	}
	if err := gc2.Close(); err != nil {
		t.Fatal(err)
	}
	s3 := New()
	if _, err := OpenSegmentedInto(dir, s3, cfg); err != nil {
		t.Fatal(err)
	}
	dumpEqual(t, s3, s2)
}

// TestSegmentedParallelReplayEquivalence: replaying the same segment
// directory with 1 worker and with 8 must produce byte-identical
// histories including sequence numbers — parallel replay inserts
// out of order, but (Time, Seq) slotting makes the result order-
// independent.
func TestSegmentedParallelReplayEquivalence(t *testing.T) {
	dir := t.TempDir()
	cfg := SegmentedConfig{MaxSegmentBytes: 100}
	s, sa, gc := newSegStore(t, dir, cfg)
	fillSegStore(t, s, 300)
	if st := sa.Stats(); st.Sealed < 8 {
		t.Fatalf("Sealed = %d, want >= 8 for a meaningful parallel replay", st.Sealed)
	}
	if err := gc.Close(); err != nil {
		t.Fatal(err)
	}

	serial, parallel := New(), New()
	if _, err := OpenSegmentedInto(dir, serial, SegmentedConfig{MaxSegmentBytes: 100, Parallelism: 1}); err != nil {
		t.Fatal(err)
	}
	if _, err := OpenSegmentedInto(dir, parallel, SegmentedConfig{MaxSegmentBytes: 100, Parallelism: 8}); err != nil {
		t.Fatal(err)
	}
	dumpEqual(t, parallel, serial)
	// Sequence numbers too, not just logical content: both derive them
	// from the manifest, so the full replication snapshots must match.
	a := serial.ReplSnapshot(0, serial.CurrentSeq())
	b := parallel.ReplSnapshot(0, parallel.CurrentSeq())
	if len(a) != len(b) {
		t.Fatalf("snapshot lengths %d vs %d", len(a), len(b))
	}
	for i := range a {
		if a[i].Seq != b[i].Seq || a[i].Key != b[i].Key || a[i].Value != b[i].Value ||
			!a[i].Time.Equal(b[i].Time) || a[i].Deleted != b[i].Deleted {
			t.Fatalf("record %d: serial %+v, parallel %+v", i, a[i], b[i])
		}
	}
}

func TestSegmentedTailRepair(t *testing.T) {
	dir := t.TempDir()
	cfg := SegmentedConfig{MaxSegmentBytes: 1 << 20} // no rolls: all records in the active tail
	s, _, gc := newSegStore(t, dir, cfg)
	fillSegStore(t, s, 10)
	if err := gc.Close(); err != nil {
		t.Fatal(err)
	}

	// Chop a few bytes off the active segment, as a crash mid-append would.
	active := filepath.Join(dir, segName(1, 0))
	st, err := os.Stat(active)
	if err != nil {
		t.Fatal(err)
	}
	if err := os.Truncate(active, st.Size()-3); err != nil {
		t.Fatal(err)
	}

	s2 := New()
	sa2, err := OpenSegmentedInto(dir, s2, cfg)
	if err != nil {
		t.Fatal(err)
	}
	if got := s2.CurrentSeq(); got != 9 {
		t.Fatalf("CurrentSeq after tail repair = %d, want 9 (last record chopped)", got)
	}
	// The file itself is repaired: appends after the truncation point are
	// replayable.
	gc2 := NewGroupCommit(sa2, GroupCommitConfig{})
	rl2 := NewReplLog(gc2)
	if err := s2.AttachReplLog(rl2); err != nil {
		t.Fatal(err)
	}
	if err := s2.Set("post", "repair", time.Unix(9000, 0)); err != nil {
		t.Fatal(err)
	}
	if err := gc2.Close(); err != nil {
		t.Fatal(err)
	}
	s3 := New()
	if _, err := OpenSegmentedInto(dir, s3, cfg); err != nil {
		t.Fatal(err)
	}
	dumpEqual(t, s3, s2)
}

func TestSegmentedSealedCorruption(t *testing.T) {
	dir := t.TempDir()
	cfg := SegmentedConfig{MaxSegmentBytes: 128}
	s, sa, gc := newSegStore(t, dir, cfg)
	fillSegStore(t, s, 50)
	if sa.Stats().Sealed == 0 {
		t.Fatal("test needs at least one sealed segment")
	}
	if err := gc.Close(); err != nil {
		t.Fatal(err)
	}

	// Flip one record byte in the first sealed segment. Unlike a torn
	// active tail this is not crash damage: the index committed these
	// bytes, so the open must refuse, not silently truncate.
	seg := filepath.Join(dir, segName(1, 0))
	data, err := os.ReadFile(seg)
	if err != nil {
		t.Fatal(err)
	}
	data[segHeaderLen+12] ^= 0xff
	if err := os.WriteFile(seg, data, 0o644); err != nil {
		t.Fatal(err)
	}
	if _, err := OpenSegmentedInto(dir, New(), cfg); !errors.Is(err, ErrSegCorrupt) {
		t.Fatalf("open with corrupt sealed segment: err = %v, want ErrSegCorrupt", err)
	}

	// Truncating a sealed segment is equally fatal.
	if err := os.WriteFile(seg, data[:len(data)-10], 0o644); err != nil {
		t.Fatal(err)
	}
	if _, err := OpenSegmentedInto(dir, New(), cfg); !errors.Is(err, ErrSegCorrupt) {
		t.Fatalf("open with truncated sealed segment: err = %v, want ErrSegCorrupt", err)
	}
}

func TestSegmentedIndexCorruption(t *testing.T) {
	dir := t.TempDir()
	cfg := SegmentedConfig{MaxSegmentBytes: 128}
	s, _, gc := newSegStore(t, dir, cfg)
	fillSegStore(t, s, 50)
	if err := gc.Close(); err != nil {
		t.Fatal(err)
	}

	idx := filepath.Join(dir, segIndexName)
	orig, err := os.ReadFile(idx)
	if err != nil {
		t.Fatal(err)
	}

	// A flipped byte fails the index's own checksum.
	mangled := append([]byte(nil), orig...)
	mangled[len(segIndexMagic)+7] ^= 0x01
	if err := os.WriteFile(idx, mangled, 0o644); err != nil {
		t.Fatal(err)
	}
	if _, err := OpenSegmentedInto(dir, New(), cfg); !errors.Is(err, ErrSegCorrupt) {
		t.Fatalf("open with corrupt index: err = %v, want ErrSegCorrupt", err)
	}

	// A deleted index cannot be confused with a fresh directory while
	// sealed segments exist.
	if err := os.Remove(idx); err != nil {
		t.Fatal(err)
	}
	if _, err := OpenSegmentedInto(dir, New(), cfg); !errors.Is(err, ErrSegCorrupt) {
		t.Fatalf("open with missing index: err = %v, want ErrSegCorrupt", err)
	}
}

// TestSegmentedSweep: crash leftovers — temp files, segments from an
// interrupted compaction's generation, a missing active file after a
// crash between index commit and first append — are cleaned up or
// tolerated; a current-generation segment the index does not know is
// corruption.
func TestSegmentedSweep(t *testing.T) {
	dir := t.TempDir()
	cfg := SegmentedConfig{MaxSegmentBytes: 128}
	s, sa, gc := newSegStore(t, dir, cfg)
	fillSegStore(t, s, 50)
	sealed := sa.Stats().Sealed
	if sealed == 0 {
		t.Fatal("test needs at least one sealed segment")
	}
	if err := gc.Close(); err != nil {
		t.Fatal(err)
	}

	tmp := filepath.Join(dir, segIndexName+".tmp")
	stale := filepath.Join(dir, segName(7, 0))
	for _, p := range []string{tmp, stale} {
		if err := os.WriteFile(p, []byte("leftover"), 0o644); err != nil {
			t.Fatal(err)
		}
	}
	s2 := New()
	if _, err := OpenSegmentedInto(dir, s2, cfg); err != nil {
		t.Fatal(err)
	}
	for _, p := range []string{tmp, stale} {
		if _, err := os.Stat(p); !errors.Is(err, os.ErrNotExist) {
			t.Fatalf("%s survived the sweep (err %v)", p, err)
		}
	}
	dumpEqual(t, s2, s)

	// Losing the unsynced active right after a roll: reopen recreates it
	// and keeps every sealed record.
	var activeBase uint64
	for _, m := range mustReadIndex(t, dir) {
		activeBase = m.base + m.records
	}
	if err := os.Remove(filepath.Join(dir, segName(1, activeBase))); err != nil {
		t.Fatal(err)
	}
	s3 := New()
	if _, err := OpenSegmentedInto(dir, s3, cfg); err != nil {
		t.Fatal(err)
	}
	if got := s3.CurrentSeq(); got != activeBase {
		t.Fatalf("CurrentSeq after losing active = %d, want %d (sealed records only)", got, activeBase)
	}

	// An extra current-generation segment the index does not account for
	// is corruption, not something to guess about.
	rogue := filepath.Join(dir, segName(1, 999999))
	if err := os.WriteFile(rogue, segHeader(999999), 0o644); err != nil {
		t.Fatal(err)
	}
	if _, err := OpenSegmentedInto(dir, New(), cfg); !errors.Is(err, ErrSegCorrupt) {
		t.Fatalf("open with rogue segment: err = %v, want ErrSegCorrupt", err)
	}
}

func mustReadIndex(t *testing.T, dir string) []segMeta {
	t.Helper()
	_, sealed, found, err := readSegIndex(dir)
	if err != nil || !found {
		t.Fatalf("readSegIndex: found %v, err %v", found, err)
	}
	return sealed
}

// TestSegmentedRangeRecords: range reads from the segment files must
// match ReplSnapshot record-for-record, and a range the files cannot
// serve must be ErrSegRange (the caller's cue to fall back).
func TestSegmentedRangeRecords(t *testing.T) {
	dir := t.TempDir()
	cfg := SegmentedConfig{MaxSegmentBytes: 128}
	s, sa, gc := newSegStore(t, dir, cfg)
	fillSegStore(t, s, 100)
	defer gc.Close()

	ranges := [][2]uint64{{0, 100}, {0, 1}, {99, 100}, {17, 63}, {40, 41}, {0, 50}, {50, 100}}
	for _, r := range ranges {
		want := s.ReplSnapshot(r[0], r[1])
		got, err := sa.RangeRecords(r[0], r[1])
		if err != nil {
			t.Fatalf("RangeRecords(%d, %d): %v", r[0], r[1], err)
		}
		if len(got) != len(want) {
			t.Fatalf("RangeRecords(%d, %d) = %d records, want %d", r[0], r[1], len(got), len(want))
		}
		for i := range want {
			if got[i].Seq != want[i].Seq || got[i].Key != want[i].Key || got[i].Value != want[i].Value ||
				!got[i].Time.Equal(want[i].Time) || got[i].Deleted != want[i].Deleted {
				t.Fatalf("range (%d, %d] record %d: got %+v, want %+v", r[0], r[1], i, got[i], want[i])
			}
		}
	}

	if recs, err := sa.RangeRecords(42, 42); err != nil || recs != nil {
		t.Fatalf("empty range: got %d records, err %v", len(recs), err)
	}
	if _, err := sa.RangeRecords(0, 105); !errors.Is(err, ErrSegRange) {
		t.Fatalf("range past the log end: err = %v, want ErrSegRange", err)
	}
}

func TestCompactSegmentDir(t *testing.T) {
	dir := t.TempDir()
	cfg := SegmentedConfig{MaxSegmentBytes: 128}
	s, _, gc := newSegStore(t, dir, cfg)
	fillSegStore(t, s, 100)
	if err := gc.Close(); err != nil {
		t.Fatal(err)
	}

	// Full-history compaction: logically identical store, all files
	// renumbered into generation 2.
	if err := CompactSegmentDir(dir, 16, 0, cfg); err != nil {
		t.Fatal(err)
	}
	ents, err := os.ReadDir(dir)
	if err != nil {
		t.Fatal(err)
	}
	for _, e := range ents {
		if g, _, ok := parseSegName(e.Name()); ok && g != 2 {
			t.Fatalf("generation-%d file %s survived compaction", g, e.Name())
		}
	}
	s2 := New()
	sa2, err := OpenSegmentedInto(dir, s2, cfg)
	if err != nil {
		t.Fatal(err)
	}
	dumpEqual(t, s2, s)

	// The compacted directory keeps accepting appends.
	gc2 := NewGroupCommit(sa2, GroupCommitConfig{})
	rl2 := NewReplLog(gc2)
	if err := s2.AttachReplLog(rl2); err != nil {
		t.Fatal(err)
	}
	if err := s2.Set("post", "compact", time.Unix(9000, 0)); err != nil {
		t.Fatal(err)
	}
	if err := gc2.Close(); err != nil {
		t.Fatal(err)
	}

	// retain=1 keeps only each key's newest version.
	if err := CompactSegmentDir(dir, 16, 1, cfg); err != nil {
		t.Fatal(err)
	}
	s3 := New()
	if _, err := OpenSegmentedInto(dir, s3, cfg); err != nil {
		t.Fatal(err)
	}
	for _, k := range s3.Keys() {
		h, err := s3.History(k)
		if err != nil {
			t.Fatal(err)
		}
		if len(h) != 1 {
			t.Fatalf("key %q: %d versions after retain=1 compaction", k, len(h))
		}
		want, werr := s2.Latest(k)
		got, gerr := s3.Latest(k)
		if werr != nil || gerr != nil || got.Value != want.Value || !got.Time.Equal(want.Time) || got.Deleted != want.Deleted {
			t.Fatalf("key %q: latest %+v (err %v), want %+v (err %v)", k, got, gerr, want, werr)
		}
	}
}

// TestSegmentedBatchAtomicity: a multi-record atomic batch lands in one
// segment whole even when it overshoots the roll threshold, so the
// per-segment record accounting (and thus every derived sequence
// number) stays exact.
func TestSegmentedBatchAtomicity(t *testing.T) {
	dir := t.TempDir()
	cfg := SegmentedConfig{MaxSegmentBytes: 64}
	s, _, gc := newSegStore(t, dir, cfg)
	base := time.Unix(2000, 0)
	var muts []Mutation
	for i := 0; i < 40; i++ {
		muts = append(muts, Mutation{Key: fmt.Sprintf("b%02d", i), Value: strings.Repeat("x", 20), Time: base.Add(time.Duration(i) * time.Second)})
	}
	if _, err := s.Apply(muts); err != nil {
		t.Fatal(err)
	}
	if err := s.SyncAOF(); err != nil {
		t.Fatal(err)
	}
	if err := gc.Close(); err != nil {
		t.Fatal(err)
	}
	s2 := New()
	if _, err := OpenSegmentedInto(dir, s2, cfg); err != nil {
		t.Fatal(err)
	}
	dumpEqual(t, s2, s)
	if got := s2.CurrentSeq(); got != 40 {
		t.Fatalf("CurrentSeq = %d, want 40", got)
	}
}

// TestWriteSegmentDirFullFidelity: the snapshot writer turns a store —
// out-of-order injected history and tombstones included — into a
// segment directory that replays to a byte-identical dump with identical
// sequence numbers, across several sealed segments.
func TestWriteSegmentDirFullFidelity(t *testing.T) {
	s := New()
	must(t, s.Set("k", "v1", at(0)))
	must(t, s.Set("k", "v2", at(5)))
	must(t, s.Set("other", "x", at(3)))
	must(t, s.Delete("other", at(8)))
	must(t, s.Set("k", "injected", at(2))) // out-of-order history survives

	dir := t.TempDir()
	cfg := SegmentedConfig{MaxSegmentBytes: 48}
	if err := s.WriteSegmentDir(dir, 0, cfg); err != nil {
		t.Fatal(err)
	}
	if n := len(mustReadIndex(t, dir)); n < 2 {
		t.Fatalf("%d sealed segments, want several at a 48-byte threshold", n)
	}
	loaded := New()
	sa, err := OpenSegmentedInto(dir, loaded, cfg)
	if err != nil {
		t.Fatal(err)
	}
	if err := sa.Close(); err != nil {
		t.Fatal(err)
	}
	if !bytes.Equal(snapBytes(t, loaded), snapBytes(t, s)) {
		t.Fatal("replayed dump differs from the written store")
	}
	replSnapEqual(t, loaded, s)
}

// TestWriteSegmentDirRetention: retain keeps the newest N versions per
// key in the written generation (the in-memory store is untouched), a
// rewrite over an existing directory supersedes the previous generation,
// and a negative retention is refused before anything is written.
func TestWriteSegmentDirRetention(t *testing.T) {
	s := New()
	for i := 0; i < 10; i++ {
		must(t, s.Set("hot", fmt.Sprintf("v%d", i), at(i)))
	}
	must(t, s.Set("cold", "only", at(0)))

	dir := t.TempDir()
	if err := s.WriteSegmentDir(dir, 0, SegmentedConfig{}); err != nil {
		t.Fatal(err)
	}
	if err := s.WriteSegmentDir(dir, 3, SegmentedConfig{}); err != nil {
		t.Fatal(err)
	}
	ents, err := os.ReadDir(dir)
	if err != nil {
		t.Fatal(err)
	}
	for _, e := range ents {
		if g, _, ok := parseSegName(e.Name()); ok && g != 3 {
			t.Fatalf("generation-%d file %s survived the rewrite", g, e.Name())
		}
	}
	loaded := loadSegments(t, dir)
	hist, err := loaded.History("hot")
	if err != nil || len(hist) != 3 {
		t.Fatalf("retained history = %d versions,%v, want 3", len(hist), err)
	}
	// The newest versions survive, oldest are shed.
	if hist[0].Value != "v7" || hist[2].Value != "v9" {
		t.Errorf("retained versions = %+v, want v7..v9", hist)
	}
	if h, err := loaded.History("cold"); err != nil || len(h) != 1 {
		t.Errorf("short history must be untouched: %v,%v", h, err)
	}
	if h, _ := s.History("hot"); len(h) != 10 {
		t.Errorf("WriteSegmentDir must not trim the live store (got %d versions)", len(h))
	}

	fresh := filepath.Join(t.TempDir(), "never-written")
	if err := s.WriteSegmentDir(fresh, -1, SegmentedConfig{}); err == nil {
		t.Fatal("negative retention accepted")
	}
	if _, err := os.Stat(fresh); !errors.Is(err, os.ErrNotExist) {
		t.Fatalf("refused write still created %s (stat err %v)", fresh, err)
	}
	if err := CompactSegmentDir(dir, 16, -1, SegmentedConfig{}); err == nil {
		t.Fatal("CompactSegmentDir accepted a negative retention")
	}
}
