package main

// End-to-end coverage for -aof-dir: the daemon persists into sealed,
// checksummed segments, reproduces the exact history on restart via
// parallel segment replay, serves replica catch-up from a segmented
// primary, compacts by retiring whole segments at startup, and serves a
// flat append-only file migrated with import-aof.

import (
	"bytes"
	"errors"
	"fmt"
	"os"
	"os/exec"
	"path/filepath"
	"strings"
	"testing"
	"time"

	"ocasta/internal/ttkv"
	"ocasta/internal/ttkvwire"
)

const segKeys = 32

func segKeyName(i int) string { return fmt.Sprintf("/seg/app%d/key%d", i%4, i) }

func TestDaemonSegmentedE2E(t *testing.T) {
	if testing.Short() {
		t.Skip("builds and runs the real daemon")
	}
	bin := buildDaemon(t)
	dir := filepath.Join(t.TempDir(), "segments")
	flags := []string{"-aof-dir", dir, "-segment-bytes", "4096", "-fsync", "always"}

	addr, stop := startDaemon(t, bin, flags...)
	cl, err := ttkvwire.Dial(addr)
	if err != nil {
		t.Fatal(err)
	}

	// Sequential Sets so every write is its own group-commit batch:
	// batches never split across a roll, so small batches are what lets
	// the 4KiB segment cap actually produce rolls.
	base := time.Unix(1_750_000_000, 0).UTC()
	for v := 0; v < 8; v++ {
		for i := 0; i < segKeys; i++ {
			if err := cl.Set(segKeyName(i), fmt.Sprintf("v%d-%d", i, v), base.Add(time.Duration(v)*time.Minute)); err != nil {
				t.Fatal(err)
			}
		}
	}
	if err := cl.Delete(segKeyName(7), base.Add(time.Hour)); err != nil {
		t.Fatal(err)
	}

	want := make(map[string][]ttkv.Version, segKeys)
	for i := 0; i < segKeys; i++ {
		h, err := cl.History(segKeyName(i))
		if err != nil {
			t.Fatal(err)
		}
		want[segKeyName(i)] = h
	}
	if err := cl.Close(); err != nil {
		t.Fatal(err)
	}
	stop()

	// The directory holds rolled segment files plus the manifest.
	entries, err := os.ReadDir(dir)
	if err != nil {
		t.Fatal(err)
	}
	segs, manifest := 0, false
	for _, e := range entries {
		switch {
		case strings.HasPrefix(e.Name(), "seg-") && strings.HasSuffix(e.Name(), ".ock"):
			segs++
		case e.Name() == "segments.idx":
			manifest = true
		}
	}
	if segs < 2 || !manifest {
		t.Fatalf("segment dir after shutdown: %d segment files, manifest=%v (want >=2, true)", segs, manifest)
	}

	// Restart on the same directory: parallel replay must reproduce the
	// history exactly, and the segmented primary must stream it to a
	// replica (catch-up is served straight from the segment files).
	addr, stop = startDaemon(t, bin, flags...)
	cl, err = ttkvwire.Dial(addr)
	if err != nil {
		t.Fatal(err)
	}
	defer cl.Close()
	for key, wh := range want {
		h, err := cl.History(key)
		if err != nil {
			t.Fatal(err)
		}
		if len(h) != len(wh) {
			t.Fatalf("History(%s) after restart: %d versions, want %d", key, len(h), len(wh))
		}
		for i := range h {
			if h[i].Value != wh[i].Value || h[i].Deleted != wh[i].Deleted || !h[i].Time.Equal(wh[i].Time) {
				t.Fatalf("History(%s)[%d] after restart: %+v, want %+v", key, i, h[i], wh[i])
			}
		}
	}

	raddr, _, stopReplica := startDaemonKillable(t, bin, "-replica-of", addr)
	rcl, err := ttkvwire.Dial(raddr)
	if err != nil {
		t.Fatal(err)
	}
	defer rcl.Close()
	deadline := time.Now().Add(30 * time.Second)
	for {
		pst, err := cl.ReplStatus()
		if err != nil {
			t.Fatal(err)
		}
		rst, err := rcl.ReplStatus()
		if err != nil {
			t.Fatal(err)
		}
		if rst.AppliedSeq == pst.DurableSeq && pst.DurableSeq > 0 && rst.State == "streaming" {
			break
		}
		if time.Now().After(deadline) {
			t.Fatalf("replica never drained from segmented primary: primary %+v, replica %+v", pst, rst)
		}
		time.Sleep(10 * time.Millisecond)
	}
	for _, key := range []string{segKeyName(0), segKeyName(7), segKeyName(31)} {
		ph, err := cl.History(key)
		if err != nil {
			t.Fatal(err)
		}
		rh, err := rcl.History(key)
		if err != nil || len(rh) != len(ph) {
			t.Fatalf("replica History(%s): %d vs %d versions (%v)", key, len(rh), len(ph), err)
		}
	}
	stopReplica()
	stop()

	// Startup compaction retires whole segments: only the newest version
	// of each key survives a -retain 1 restart.
	addr, stop = startDaemon(t, bin, append(flags, "-compact", "-retain", "1")...)
	ccl, err := ttkvwire.Dial(addr)
	if err != nil {
		t.Fatal(err)
	}
	defer ccl.Close()
	for i := 0; i < segKeys; i++ {
		key := segKeyName(i)
		h, err := ccl.History(key)
		if err != nil {
			t.Fatal(err)
		}
		if len(h) != 1 {
			t.Fatalf("History(%s) after compaction: %d versions, want 1", key, len(h))
		}
		last := want[key][len(want[key])-1]
		if h[0].Value != last.Value || h[0].Deleted != last.Deleted || !h[0].Time.Equal(last.Time) {
			t.Fatalf("History(%s) after compaction: %+v, want %+v", key, h[0], last)
		}
	}
	stop()
}

// TestDaemonImportAOF: a flat append-only file (written here as a
// WriteSnapshot dump, the same OCKV record stream) imported with
// "ttkvd import-aof" and served by a fresh daemon carries exactly the
// histories and sequence numbers the file replays to.
func TestDaemonImportAOF(t *testing.T) {
	if testing.Short() {
		t.Skip("builds and runs the real daemon")
	}
	bin := buildDaemon(t)
	dir := t.TempDir()

	src := ttkv.New()
	base := time.Unix(1_750_000_000, 0).UTC()
	for i := 0; i < 200; i++ {
		key, at := segKeyName(i%segKeys), base.Add(time.Duration(i)*time.Second)
		var err error
		if i%9 == 8 {
			err = src.Delete(key, at)
		} else {
			err = src.Set(key, fmt.Sprintf("v%d", i), at)
		}
		if err != nil {
			t.Fatal(err)
		}
	}
	// A backdated write: sequence order and time order differ.
	if err := src.Set(segKeyName(3), "backdated", base.Add(-time.Hour)); err != nil {
		t.Fatal(err)
	}
	flat := filepath.Join(dir, "store.aof")
	if err := os.WriteFile(flat, dumpStore(t, src), 0o644); err != nil {
		t.Fatal(err)
	}

	segs := filepath.Join(dir, "segments")
	if out, err := exec.Command(bin, "import-aof", "-in", flat, "-out", segs).CombinedOutput(); err != nil {
		t.Fatalf("ttkvd import-aof: %v\n%s", err, out)
	}
	// Importing again must refuse to replace the log just written.
	var ee *exec.ExitError
	if out, err := exec.Command(bin, "import-aof", "-in", flat, "-out", segs).CombinedOutput(); !errors.As(err, &ee) || ee.ExitCode() != 2 {
		t.Fatalf("import-aof into a non-empty -out: err = %v (out %q), want exit 2", err, out)
	}

	addr, stop := startDaemon(t, bin, "-aof-dir", segs, "-recluster-interval", "0")
	cl, err := ttkvwire.Dial(addr)
	if err != nil {
		t.Fatal(err)
	}
	defer cl.Close()
	for _, key := range src.Keys() {
		want, _ := src.History(key)
		got, err := cl.History(key)
		if err != nil || len(got) != len(want) {
			t.Fatalf("History(%s): %d versions (%v), want %d", key, len(got), err, len(want))
		}
		for i := range want {
			if got[i].Value != want[i].Value || got[i].Deleted != want[i].Deleted || !got[i].Time.Equal(want[i].Time) {
				t.Fatalf("History(%s)[%d] = %+v, want %+v", key, i, got[i], want[i])
			}
		}
	}
	if st, err := cl.ReplStatus(); err != nil || st.DurableSeq != src.CurrentSeq() {
		t.Fatalf("served DurableSeq = %d (%v), want %d", st.DurableSeq, err, src.CurrentSeq())
	}
	stop()

	// Offline, the served log is byte-identical to the flat file's store,
	// sequence numbers included.
	served := loadSegDir(t, segs)
	if !bytes.Equal(dumpStore(t, served), dumpStore(t, src)) {
		t.Fatal("served dump differs from the imported flat file")
	}
	got, want := served.ReplSnapshot(0, served.CurrentSeq()), src.ReplSnapshot(0, src.CurrentSeq())
	if len(got) != len(want) {
		t.Fatalf("served log holds %d records, want %d", len(got), len(want))
	}
	for i := range want {
		if got[i].Seq != want[i].Seq || got[i].Key != want[i].Key || !got[i].Time.Equal(want[i].Time) {
			t.Fatalf("record %d: served %+v, want %+v", i, got[i], want[i])
		}
	}
}
