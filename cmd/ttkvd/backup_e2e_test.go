package main

// End-to-end disaster-recovery drill: run the real ttkvd on a segmented
// log with a backup directory, take a full and an incremental backup over
// the wire while writing, SIGKILL the daemon, corrupt the live log (a
// sealed segment and the active tail), and prove "ttkvd restore" rebuilds
// a byte-identical store in a fresh segment directory — at latest, at a
// sequence number, and at a wall-clock instant — then serves reads from
// it.

import (
	"bytes"
	"errors"
	"fmt"
	"os"
	"os/exec"
	"path/filepath"
	"testing"
	"time"

	"ocasta/internal/ttkv"
	"ocasta/internal/ttkvwire"
)

// dumpStore snapshots a store to bytes for equivalence checks.
func dumpStore(t *testing.T, s *ttkv.Store) []byte {
	t.Helper()
	var buf bytes.Buffer
	if err := s.WriteSnapshot(&buf); err != nil {
		t.Fatal(err)
	}
	return buf.Bytes()
}

// loadSegDir replays a segment directory into a fresh store offline.
func loadSegDir(t *testing.T, dir string) *ttkv.Store {
	t.Helper()
	s := ttkv.New()
	sa, err := ttkv.OpenSegmentedInto(dir, s, ttkv.SegmentedConfig{})
	if err != nil {
		t.Fatalf("replaying %s: %v", dir, err)
	}
	if err := sa.Close(); err != nil {
		t.Fatal(err)
	}
	return s
}

// runRestoreCmd invokes the ttkvd restore subcommand and returns its
// combined output, failing the test on a non-zero exit.
func runRestoreCmd(t *testing.T, bin string, args ...string) string {
	t.Helper()
	cmd := exec.Command(bin, append([]string{"restore"}, args...)...)
	out, err := cmd.CombinedOutput()
	if err != nil {
		t.Fatalf("ttkvd restore %v: %v\n%s", args, err, out)
	}
	return string(out)
}

func TestDaemonBackupRestoreDrill(t *testing.T) {
	if testing.Short() {
		t.Skip("builds and runs the real daemon")
	}
	bin := buildDaemon(t)
	dir := t.TempDir()
	segs := filepath.Join(dir, "segments")
	bdir := filepath.Join(dir, "backups")

	// -fsync always so every acked write is on disk: the SIGKILL below
	// loses nothing, making the post-corruption ground truth exact. Small
	// segments so the log holds sealed segments as well as a tail.
	addr, proc, reap := startDaemonKillable(t, bin,
		"-aof-dir", segs,
		"-segment-bytes", "2048",
		"-fsync", "always",
		"-backup-dir", bdir,
		"-recluster-interval", "0",
	)
	client, err := ttkvwire.Dial(addr)
	if err != nil {
		t.Fatal(err)
	}
	defer client.Close()

	// Phase 1: a versioned config workload, stamped in the past.
	base := time.Now().Add(-time.Hour).Truncate(time.Second).UTC()
	ts := func(i int) time.Time { return base.Add(time.Duration(i) * time.Millisecond) }
	n := 0
	write := func(key, val string) {
		t.Helper()
		n++
		if err := client.Set(key, val, ts(n)); err != nil {
			t.Fatal(err)
		}
	}
	for i := 0; i < 120; i++ {
		write(fmt.Sprintf("/etc/app/%02d.conf", i%15), fmt.Sprintf("phase1-rev%d", i))
	}
	if err := client.Delete("/etc/app/03.conf", ts(n+1)); err != nil {
		t.Fatal(err)
	}
	n++

	full, err := client.Backup("full")
	if err != nil {
		t.Fatalf("BACKUP FULL: %v", err)
	}
	if full.Kind != "full" || full.UpTo == 0 {
		t.Fatalf("full = %+v", full)
	}

	// Phase 2: more churn, then the point-in-time cut we will restore to.
	for i := 0; i < 60; i++ {
		write(fmt.Sprintf("/etc/app/%02d.conf", i%15), fmt.Sprintf("phase2-rev%d", i))
	}
	cut := ts(n) // everything at or before here survives an -at restore
	for i := 0; i < 40; i++ {
		write(fmt.Sprintf("/etc/app/%02d.conf", i%15), fmt.Sprintf("phase3-rev%d", i))
	}

	incr, err := client.Backup("incr")
	if err != nil {
		t.Fatalf("BACKUP INCR: %v", err)
	}
	if incr.Parent != full.ID || incr.Base != full.UpTo {
		t.Fatalf("incr = %+v (full %+v)", incr, full)
	}
	list, err := client.Backups()
	if err != nil || len(list) != 2 {
		t.Fatalf("BSTAT = %+v, %v", list, err)
	}

	// Ground truth for the time-target restore, recorded over the wire
	// from the live daemon before the disaster.
	keys, err := client.Keys()
	if err != nil {
		t.Fatal(err)
	}
	atCut := make(map[string]ttkv.Version, len(keys))
	for _, k := range keys {
		v, err := client.GetAt(k, cut)
		if err != nil {
			t.Fatalf("GetAt(%s): %v", k, err)
		}
		atCut[k] = v
	}

	// Disaster: SIGKILL the daemon, then corrupt the live log the way a
	// bad disk would — flip bytes in a sealed segment and tear off the
	// active segment's tail.
	if err := proc.Kill(); err != nil {
		t.Fatal(err)
	}
	reap() // wait for the killed process to exit

	reference := loadSegDir(t, segs) // pre-corruption ground truth
	files, err := filepath.Glob(filepath.Join(segs, "seg-*.ock"))
	if err != nil {
		t.Fatal(err)
	}
	if len(files) < 2 {
		t.Fatalf("%d segment files, want sealed segments plus the active tail", len(files))
	}
	sealed, active := files[0], files[len(files)-1] // names sort by base seq
	raw, err := os.ReadFile(sealed)
	if err != nil {
		t.Fatal(err)
	}
	for i := len(raw) / 3; i < len(raw)/3+64 && i < len(raw); i++ {
		raw[i] ^= 0xA5
	}
	if err := os.WriteFile(sealed, raw, 0o644); err != nil {
		t.Fatal(err)
	}
	st, err := os.Stat(active)
	if err != nil {
		t.Fatal(err)
	}
	if err := os.Truncate(active, st.Size()*4/5); err != nil {
		t.Fatal(err)
	}
	if _, err := ttkv.OpenSegmentedInto(segs, ttkv.New(), ttkv.SegmentedConfig{}); !errors.Is(err, ttkv.ErrSegCorrupt) {
		t.Fatalf("opening the corrupted log = %v, want ErrSegCorrupt", err)
	}

	// The drill proper: verify the backup set, restore it, compare dumps.
	out := runRestoreCmd(t, bin, "-backup-dir", bdir, "-verify-only")
	t.Logf("verify-only: %s", out)

	restoredDir := filepath.Join(dir, "restored")
	runRestoreCmd(t, bin, "-backup-dir", bdir, "-out", restoredDir)
	restored := loadSegDir(t, restoredDir)
	if !bytes.Equal(dumpStore(t, restored), dumpStore(t, reference)) {
		t.Fatal("restored dump differs from the pre-corruption log state")
	}
	if restored.CurrentSeq() != reference.CurrentSeq() {
		t.Fatalf("restored seq %d, want %d", restored.CurrentSeq(), reference.CurrentSeq())
	}

	// Sequence-target restore: the full backup's boundary must equal the
	// reference store's pinned view at that seq.
	seqDir := filepath.Join(dir, "at-seq")
	runRestoreCmd(t, bin, "-backup-dir", bdir, "-out", seqDir, "-at", fmt.Sprint(full.UpTo))
	atSeq := loadSegDir(t, seqDir)
	view := reference.ViewAt(full.UpTo)
	if got, want := atSeq.Keys(), view.Keys(); len(got) != len(want) {
		t.Fatalf("at-seq restore has %d keys, want %d", len(got), len(want))
	}
	for _, k := range view.Keys() {
		want, _ := view.History(k)
		got, err := atSeq.History(k)
		if err != nil || len(got) != len(want) {
			t.Fatalf("at-seq key %s: %d versions (%v), want %d", k, len(got), err, len(want))
		}
		for i := range want {
			if want[i] != got[i] {
				t.Fatalf("at-seq key %s version %d: %+v != %+v", k, i, got[i], want[i])
			}
		}
	}

	// Time-target restore: checked against the GetAt answers the live
	// daemon gave before it died.
	timeDir := filepath.Join(dir, "at-time")
	runRestoreCmd(t, bin, "-backup-dir", bdir, "-out", timeDir, "-at", cut.Format(time.RFC3339Nano))
	atTime := loadSegDir(t, timeDir)
	for k, want := range atCut {
		got, err := atTime.GetAt(k, cut)
		if err != nil {
			t.Fatalf("restored GetAt(%s): %v", k, err)
		}
		// The wire GETAT reply carries value/time/deleted but not seq, so
		// the recorded ground truth compares those three fields.
		if got.Value != want.Value || got.Deleted != want.Deleted || !got.Time.Equal(want.Time) {
			t.Fatalf("key %s at cut: %+v, want %+v", k, got, want)
		}
	}

	// Restoring over an existing log needs -force.
	cmd := exec.Command(bin, "restore", "-backup-dir", bdir, "-out", restoredDir)
	var ee *exec.ExitError
	if out, err := cmd.CombinedOutput(); !errors.As(err, &ee) || ee.ExitCode() != 2 {
		t.Fatalf("restore over a non-empty -out: err = %v (out %q), want exit 2", err, out)
	}

	// Back in business: a fresh daemon serves reads from the restored log.
	addr2, stop2 := startDaemon(t, bin, "-aof-dir", restoredDir, "-recluster-interval", "0")
	client2, err := ttkvwire.Dial(addr2)
	if err != nil {
		t.Fatal(err)
	}
	defer client2.Close()
	v, err := client2.Get("/etc/app/00.conf")
	if err != nil {
		t.Fatal(err)
	}
	ref, ok := reference.Get("/etc/app/00.conf")
	if !ok || v != ref {
		t.Fatalf("restored daemon Get = %q, want %q", v, ref)
	}
	stop2()
}
