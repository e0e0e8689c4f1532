package main

// End-to-end daemon test: build the real ttkvd binary, run it as a child
// process, replay a Table-I style generated workload through the wire
// client, inject a Table-III style configuration error, and drive the
// paper's full recovery loop — REPAIR (submit the trial and oracle
// markers), RSTAT (poll progress and screenshots), RFIX (apply the
// confirmed rollback) — asserting the store's post-fix point-in-time
// reads return the known-good values. Finally SIGTERM must shut the
// daemon down cleanly.

import (
	"bufio"
	"os"
	"os/exec"
	"path/filepath"
	"strings"
	"testing"
	"time"

	"ocasta/internal/apps"
	"ocasta/internal/trace"
	"ocasta/internal/ttkv"
	"ocasta/internal/ttkvwire"
	"ocasta/internal/workload"
)

const (
	evoOffline = "/apps/evolution/shell/start_offline"
	evoSync    = "/apps/evolution/shell/offline_sync"
)

// buildDaemon compiles ttkvd into a temp dir once per test run.
func buildDaemon(t *testing.T) string {
	t.Helper()
	bin := filepath.Join(t.TempDir(), "ttkvd")
	cmd := exec.Command("go", "build", "-o", bin, ".")
	out, err := cmd.CombinedOutput()
	if err != nil {
		t.Fatalf("building ttkvd: %v\n%s", err, out)
	}
	return bin
}

// startDaemon launches ttkvd with the given extra flags on an ephemeral
// port and returns its address and a stop function that SIGTERMs the
// process and asserts a clean exit.
func startDaemon(t *testing.T, bin string, extra ...string) (addr string, stop func()) {
	t.Helper()
	args := append([]string{"-addr", "127.0.0.1:0"}, extra...)
	cmd := exec.Command(bin, args...)
	cmd.Stderr = os.Stderr
	stdout, err := cmd.StdoutPipe()
	if err != nil {
		t.Fatal(err)
	}
	if err := cmd.Start(); err != nil {
		t.Fatal(err)
	}
	// The daemon prints the resolved listener address on startup.
	lines := bufio.NewScanner(stdout)
	addrCh := make(chan string, 1)
	go func() {
		for lines.Scan() {
			line := lines.Text()
			if _, rest, ok := strings.Cut(line, "serving on "); ok {
				addrCh <- strings.Fields(rest)[0]
			}
		}
	}()
	select {
	case addr = <-addrCh:
	case <-time.After(30 * time.Second):
		cmd.Process.Kill()
		t.Fatal("daemon did not report its listen address")
	}
	stopped := false
	stop = func() {
		if stopped {
			return
		}
		stopped = true
		if err := cmd.Process.Signal(os.Interrupt); err != nil {
			t.Fatalf("signalling daemon: %v", err)
		}
		done := make(chan error, 1)
		go func() { done <- cmd.Wait() }()
		select {
		case err := <-done:
			if err != nil {
				t.Errorf("daemon exit: %v", err)
			}
		case <-time.After(30 * time.Second):
			cmd.Process.Kill()
			t.Error("daemon did not shut down on SIGTERM")
		}
	}
	t.Cleanup(stop)
	return addr, stop
}

// replayWorkload generates a small Table-I style deployment for the
// evolution mail client and replays its write trace into the daemon over
// the wire, pipelined. Returns the generated deployment and the newest
// event time.
func replayWorkload(t *testing.T, client *ttkvwire.Client) (*workload.Result, time.Time) {
	t.Helper()
	res := workload.Generate(workload.MachineProfile{
		Name: "e2e-linux", User: "e2e", Days: 20, Seed: 4242,
		Apps: []workload.AppUsage{{
			Model:             apps.ModelByName("evolution"),
			SessionsPerDay:    2,
			ScansPerSession:   1,
			NoiseWritesPerDay: 10,
		}},
	})
	pipe := client.Pipeline()
	var last time.Time
	for _, ev := range res.Trace.Events {
		switch ev.Op {
		case trace.OpWrite:
			pipe.Set(ev.Key, ev.Value, ev.Time)
		case trace.OpDelete:
			pipe.Delete(ev.Key, ev.Time)
		default:
			continue
		}
		if ev.Time.After(last) {
			last = ev.Time
		}
	}
	if err := pipe.Flush(); err != nil {
		t.Fatalf("replaying workload: %v", err)
	}
	return res, last
}

func TestDaemonRepairE2E(t *testing.T) {
	if testing.Short() {
		t.Skip("builds and runs the real daemon")
	}
	bin := buildDaemon(t)
	addr, stop := startDaemon(t, bin,
		"-recluster-interval", "50ms",
		"-repair-workers", "8",
	)
	client, err := ttkvwire.Dial(addr)
	if err != nil {
		t.Fatal(err)
	}
	defer client.Close()
	if err := client.Ping(); err != nil {
		t.Fatal(err)
	}

	_, traceEnd := replayWorkload(t, client)

	// Known-good values before the fault, straight from the daemon.
	goodOffline, err := client.Get(evoOffline)
	if err != nil {
		t.Fatalf("pre-fault %s: %v", evoOffline, err)
	}
	if goodOffline != "b:false" {
		t.Fatalf("workload left %s = %q, want b:false", evoOffline, goodOffline)
	}
	goodSync, err := client.Get(evoSync)
	if err != nil {
		t.Fatal(err)
	}

	// The fault, two weeks after the trace: offline mode flipped on, with
	// its dialog partner co-written, as the application persists groups.
	errAt := traceEnd.Add(14 * 24 * time.Hour)
	if err := client.Set(evoOffline, "b:true", errAt); err != nil {
		t.Fatal(err)
	}
	if err := client.Set(evoSync, goodSync, errAt); err != nil {
		t.Fatal(err)
	}

	// Wait for the live clustering to publish the offline pair.
	deadline := time.Now().Add(30 * time.Second)
	for {
		snap, err := client.Clusters(2)
		if err != nil {
			t.Fatal(err)
		}
		found := false
		for _, cl := range snap.Clusters {
			if cl.Contains(evoOffline) && cl.Contains(evoSync) {
				found = true
			}
		}
		if found {
			break
		}
		if time.Now().After(deadline) {
			t.Fatalf("live clustering never published the offline pair: %+v", snap.Clusters)
		}
		time.Sleep(20 * time.Millisecond)
	}

	// REPAIR: submit the recovery search against the live clustering.
	id, err := client.RepairSubmit(ttkvwire.RepairRequest{
		App:          "evolution",
		Trial:        []string{"launch"},
		FixedMarker:  "[x] online-mode",
		BrokenMarker: "[ ] online-mode",
		Live:         true,
	})
	if err != nil {
		t.Fatal(err)
	}

	// RSTAT: poll until done; the paper's user then picks the screenshot
	// showing the fixed application.
	st, err := client.RepairWait(id, 10*time.Millisecond, 60*time.Second)
	if err != nil {
		t.Fatalf("repair job: %v (status %+v)", err, st)
	}
	if st.State != ttkvwire.JobDone || !st.Found {
		t.Fatalf("repair job = %+v, want done+found", st)
	}
	if !st.FixAt.Before(errAt) {
		t.Errorf("FixAt = %v, want before the error at %v", st.FixAt, errAt)
	}
	hasOffline := false
	for _, k := range st.Offending {
		if k == evoOffline {
			hasOffline = true
		}
	}
	if !hasOffline {
		t.Fatalf("offending cluster %v does not contain %s", st.Offending, evoOffline)
	}
	if len(st.Screenshots) == 0 {
		t.Fatal("no screenshots to confirm")
	}
	finalShot := st.Screenshots[len(st.Screenshots)-1]
	if !strings.Contains(finalShot.Rendered, "[x] online-mode") {
		t.Errorf("final screenshot does not show the fix:\n%s", finalShot.Rendered)
	}

	// The values the rollback will restore, read at the fix point.
	wantOffline, err := client.GetAt(evoOffline, st.FixAt)
	if err != nil {
		t.Fatal(err)
	}
	wantSync, err := client.GetAt(evoSync, st.FixAt)
	if err != nil {
		t.Fatal(err)
	}

	// RFIX: the user confirmed; apply the rollback.
	applyAt := errAt.Add(time.Hour)
	n, err := client.RepairFix(id, applyAt)
	if err != nil {
		t.Fatal(err)
	}
	if n != len(st.Offending) {
		t.Errorf("RFIX reverted %d keys, want %d", n, len(st.Offending))
	}

	// Post-fix: current and point-in-time reads match the known-good
	// values everywhere.
	for _, check := range []struct {
		key  string
		want ttkv.Version
	}{{evoOffline, wantOffline}, {evoSync, wantSync}} {
		got, err := client.GetAt(check.key, applyAt)
		if err != nil {
			t.Fatalf("GetAt(%s, applyAt): %v", check.key, err)
		}
		if got.Value != check.want.Value || got.Deleted != check.want.Deleted {
			t.Errorf("GetAt(%s, applyAt) = %+v, want the fix-point value %+v", check.key, got, check.want)
		}
	}
	if v, err := client.Get(evoOffline); err != nil || v != "b:false" {
		t.Errorf("post-fix Get(%s) = %q, %v; want b:false", evoOffline, v, err)
	}
	// The error remains in history (time travel is never rewritten).
	atErr, err := client.GetAt(evoOffline, errAt)
	if err != nil || atErr.Value != "b:true" {
		t.Errorf("GetAt(errAt) = %+v, %v; history must keep the fault", atErr, err)
	}

	// Clean SIGTERM shutdown.
	stop()
}

// TestDaemonFlagValidation covers the flag validation paths: repair
// limits, retention, and the removed flat-file -aof flag (now unknown).
func TestDaemonFlagValidation(t *testing.T) {
	if testing.Short() {
		t.Skip("builds and runs the real daemon")
	}
	bin := buildDaemon(t)
	segs := filepath.Join(t.TempDir(), "segments")
	for _, args := range [][]string{
		{"-repair-workers", "0"},
		{"-repair-max-active", "0"},
		{"-repair-max-jobs", "-1"},
		{"-retain", "-1"},
		{"-aof-dir", segs, "-compact", "-retain", "-1"},
		{"-compact"},
		{"-aof", "x"},
		{"import-aof", "-in", "x"},
	} {
		cmd := exec.Command(bin, args...)
		out, err := cmd.CombinedOutput()
		ee, ok := err.(*exec.ExitError)
		if !ok || ee.ExitCode() != 2 {
			t.Errorf("%v: err = %v (out %q), want exit 2", args, err, out)
		}
	}
}
