package ttkv

import (
	"bytes"
	"errors"
	"io"
	"reflect"
	"testing"
	"testing/iotest"
)

// readDump replays an OCKV record stream into a fresh store.
func readDump(r io.Reader) (*Store, error) {
	s := New()
	if err := ReadAOFInto(r, s); err != nil {
		return nil, err
	}
	return s, nil
}

func TestAOFRoundTrip(t *testing.T) {
	dir := t.TempDir()
	s, _, gc := newSegStore(t, dir, SegmentedConfig{})
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
	if v, ok := loaded.Get("alpha"); !ok || v != "2" {
		t.Errorf("alpha = %q,%v, want 2", v, ok)
	}
	if _, ok := loaded.Get("beta"); ok {
		t.Error("beta must be deleted after replay")
	}
	dumpEqual(t, loaded, s)
}

func TestAOFAppendAfterReopen(t *testing.T) {
	dir := t.TempDir()
	s, _, gc := newSegStore(t, dir, SegmentedConfig{})
	must(t, s.Set("k", "v1", at(0)))
	if err := gc.Close(); err != nil {
		t.Fatal(err)
	}

	s2, _, gc2 := newSegStore(t, dir, SegmentedConfig{})
	must(t, s2.Set("k", "v2", at(1)))
	if err := gc2.Close(); err != nil {
		t.Fatal(err)
	}

	final := loadSegments(t, dir)
	if v, _ := final.Get("k"); v != "v2" {
		t.Errorf("after reopen+append, k = %q, want v2", v)
	}
	hist, _ := final.History("k")
	if len(hist) != 2 {
		t.Errorf("history = %d versions, want 2", len(hist))
	}
}

func TestAOFTruncatedTailRecovered(t *testing.T) {
	s := New()
	must(t, s.Set("good", "1", at(0)))
	must(t, s.Set("partial", "2", at(1)))
	var buf bytes.Buffer
	if err := s.WriteSnapshot(&buf); err != nil {
		t.Fatal(err)
	}
	raw := buf.Bytes()
	// Chop mid-way through the final record to simulate a crash mid-append.
	for _, cut := range []int{3, 7, 11} {
		if cut >= len(raw) {
			continue
		}
		chopped := raw[:len(raw)-cut]
		loaded, err := readDump(bytes.NewReader(chopped))
		if err != nil {
			t.Fatalf("cut %d: ReadAOFInto must tolerate a truncated tail, got %v", cut, err)
		}
		if v, ok := loaded.Get("good"); !ok || v != "1" {
			t.Errorf("cut %d: complete record lost: good = %q,%v", cut, v, ok)
		}
	}
}

func TestAOFBadMagic(t *testing.T) {
	if _, err := readDump(bytes.NewReader([]byte("XXXX\x01\x00"))); !errors.Is(err, ErrAOFMagic) {
		t.Errorf("err = %v, want ErrAOFMagic", err)
	}
}

func TestAOFBadVersion(t *testing.T) {
	if _, err := readDump(bytes.NewReader([]byte("OCKV\xFF\x00"))); !errors.Is(err, ErrAOFVersion) {
		t.Errorf("err = %v, want ErrAOFVersion", err)
	}
}

func TestAOFCorruptOp(t *testing.T) {
	var buf bytes.Buffer
	buf.WriteString("OCKV")
	buf.Write([]byte{0x01, 0x00}) // version
	buf.WriteByte(0x77)           // invalid op
	if _, err := readDump(&buf); !errors.Is(err, ErrAOFCorrupt) {
		t.Errorf("err = %v, want ErrAOFCorrupt", err)
	}
}

func TestAOFOversizedString(t *testing.T) {
	var buf bytes.Buffer
	buf.WriteString("OCKV")
	buf.Write([]byte{0x01, 0x00})
	buf.WriteByte(opSet)
	buf.Write(make([]byte, 8))                // timestamp
	buf.Write([]byte{0xFF, 0xFF, 0xFF, 0xFF}) // 4 GiB key
	if _, err := readDump(&buf); !errors.Is(err, ErrAOFCorrupt) {
		t.Errorf("err = %v, want ErrAOFCorrupt", err)
	}
}

func TestSnapshotRoundTrip(t *testing.T) {
	s := New()
	must(t, s.Set("k", "v1", at(0)))
	must(t, s.Set("k", "v2", at(5)))
	must(t, s.Set("other", "x", at(3)))
	must(t, s.Delete("other", at(8)))
	// Out-of-order injected write, to prove the snapshot preserves
	// chronological histories even with odd sequence/time interleavings.
	must(t, s.Set("k", "injected", at(2)))

	var buf bytes.Buffer
	if err := s.WriteSnapshot(&buf); err != nil {
		t.Fatal(err)
	}
	loaded, err := readDump(&buf)
	if err != nil {
		t.Fatal(err)
	}
	for _, key := range s.Keys() {
		want, _ := s.History(key)
		got, err := loaded.History(key)
		if err != nil {
			t.Fatalf("History(%s): %v", key, err)
		}
		if len(want) != len(got) {
			t.Fatalf("%s: %d versions, want %d", key, len(got), len(want))
		}
		for i := range want {
			if want[i].Value != got[i].Value || !want[i].Time.Equal(got[i].Time) ||
				want[i].Deleted != got[i].Deleted {
				t.Errorf("%s version %d: got %+v, want %+v", key, i, got[i], want[i])
			}
		}
	}
	if !reflect.DeepEqual(s.Keys(), loaded.Keys()) {
		t.Errorf("key sets differ: %v vs %v", loaded.Keys(), s.Keys())
	}
}

func TestSyncAOFWithoutAttachment(t *testing.T) {
	if err := New().SyncAOF(); err != nil {
		t.Errorf("SyncAOF with no AOF attached = %v, want nil", err)
	}
}

// A non-EOF read error mid-record must surface as an error, not be
// misdiagnosed as a clean truncated tail — segment tail repair, which
// shares the record scanner, turns a truncation verdict into a
// destructive Truncate.
func TestReadAOFSurfacesIOErrors(t *testing.T) {
	s := New()
	must(t, s.Set("first", "1", at(0)))
	must(t, s.Set("second", "2", at(1)))
	var buf bytes.Buffer
	if err := s.WriteSnapshot(&buf); err != nil {
		t.Fatal(err)
	}
	raw := buf.Bytes()
	rec1End := aofHeaderLen + len(appendRecord(nil, "first", "1", at(0), false))
	errDisk := errors.New("simulated disk error")
	// The stream fails partway into the second record's timestamp: not a
	// truncation, so the error must propagate.
	r := io.MultiReader(bytes.NewReader(raw[:rec1End+3]), iotest.ErrReader(errDisk))
	if err := ReadAOFInto(r, New()); !errors.Is(err, errDisk) {
		t.Fatalf("ReadAOFInto with mid-record I/O error = %v, want %v", err, errDisk)
	}
	// A genuine truncation at the same offset stays tolerated.
	if _, err := readDump(bytes.NewReader(raw[:rec1End+3])); err != nil {
		t.Fatalf("genuine truncation must stay tolerated, got %v", err)
	}
}
