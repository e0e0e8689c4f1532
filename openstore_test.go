package ocasta

import (
	"fmt"
	"testing"
	"time"
)

// TestOpenStoreSegmented: OpenStore with AOFDir assembles the segmented
// pipeline — writes persist across a close/reopen cycle, and the handle
// exposes the segment directory for replication catch-up.
func TestOpenStoreSegmented(t *testing.T) {
	dir := t.TempDir()
	open := func(compact bool) *StoreHandle {
		t.Helper()
		h, err := OpenStore(StoreOptions{
			AOFDir:       dir,
			SegmentBytes: 256, // tiny segments so a handful of writes rolls
			Compact:      compact,
			Fsync:        FsyncAlways,
		})
		if err != nil {
			t.Fatal(err)
		}
		return h
	}

	h := open(false)
	if h.Segments == nil {
		t.Fatal("StoreHandle.Segments is nil with AOFDir set")
	}
	for i := 0; i < 40; i++ {
		ts := t0.Add(time.Duration(i) * time.Second)
		if err := h.Store.Set("/seg/key", fmt.Sprintf("v%d", i), ts); err != nil {
			t.Fatal(err)
		}
		// Sync to bound the group-commit batch: a batch lands in one
		// segment whole, so rolling needs batch boundaries to act on.
		if i%5 == 4 {
			if err := h.Store.SyncAOF(); err != nil {
				t.Fatal(err)
			}
		}
	}
	if err := h.Store.SyncAOF(); err != nil {
		t.Fatal(err)
	}
	if err := h.Close(); err != nil {
		t.Fatal(err)
	}
	if st := h.Segments.Stats(); st.Sealed == 0 {
		t.Fatalf("stats = %+v, want at least one sealed segment", st)
	}

	h2 := open(false)
	defer h2.Close() //nolint:errcheck
	if got, ok := h2.Store.Get("/seg/key"); !ok || got != "v39" {
		t.Fatalf("after reopen Get = %q, %v", got, ok)
	}
	if hist, err := h2.Store.History("/seg/key"); err != nil || len(hist) != 40 {
		t.Fatalf("history = %d versions, %v, want 40", len(hist), err)
	}
	if err := h2.Close(); err != nil {
		t.Fatal(err)
	}

	// Compacting on open keeps only the retained history.
	h3, err := OpenStore(StoreOptions{AOFDir: dir, SegmentBytes: 256, Compact: true, Retain: 1})
	if err != nil {
		t.Fatal(err)
	}
	defer h3.Close() //nolint:errcheck
	if got, ok := h3.Store.Get("/seg/key"); !ok || got != "v39" {
		t.Fatalf("after compaction Get = %q, %v", got, ok)
	}
	if hist, err := h3.Store.History("/seg/key"); err != nil || len(hist) != 1 {
		t.Fatalf("history after Retain:1 = %d versions, %v, want 1", len(hist), err)
	}

	// The dependency and retention guards reject bad combinations.
	if _, err := OpenStore(StoreOptions{Compact: true}); err == nil {
		t.Fatal("Compact without a backing directory accepted")
	}
	if _, err := OpenStore(StoreOptions{AOFDir: t.TempDir(), Compact: true, Retain: -1}); err == nil {
		t.Fatal("negative Retain accepted")
	}
}
