package main

// End-to-end replicated-pair test: build the real ttkvd, run a primary
// and a -replica-of read replica as child processes, replay a workload
// over the wire, and assert the replica serves identical reads, history,
// and locally-computed clusters; that it rejects writes; and — after
// SIGKILLing the primary — that it keeps answering GET/GetAt/CLUSTERS.

import (
	"bufio"
	"errors"
	"fmt"
	"os"
	"os/exec"
	"strings"
	"testing"
	"time"

	"ocasta/internal/ttkvwire"
)

// startDaemonKillable launches ttkvd like startDaemon but also returns
// the process handle so tests can SIGKILL it; its stop function tolerates
// an already-dead process.
func startDaemonKillable(t *testing.T, bin string, extra ...string) (addr string, proc *os.Process, stop func()) {
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
	lines := bufio.NewScanner(stdout)
	addrCh := make(chan string, 1)
	go func() {
		for lines.Scan() {
			if _, rest, ok := strings.Cut(lines.Text(), "serving on "); ok {
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
	done := make(chan error, 1)
	go func() { done <- cmd.Wait() }()
	stopped := false
	stop = func() {
		if stopped {
			return
		}
		stopped = true
		cmd.Process.Signal(os.Interrupt) //nolint:errcheck — may already be dead
		select {
		case <-done:
		case <-time.After(30 * time.Second):
			cmd.Process.Kill()
			t.Error("daemon did not exit")
		}
	}
	t.Cleanup(stop)
	return addr, cmd.Process, stop
}

func TestDaemonReplicationE2E(t *testing.T) {
	if testing.Short() {
		t.Skip("builds and runs the real daemon")
	}
	bin := buildDaemon(t)
	paddr, pproc, _ := startDaemonKillable(t, bin, "-recluster-interval", "50ms")
	raddr, _, stopReplica := startDaemonKillable(t, bin,
		"-replica-of", paddr,
		"-recluster-interval", "50ms",
	)

	pcl, err := ttkvwire.Dial(paddr)
	if err != nil {
		t.Fatal(err)
	}
	defer pcl.Close()
	rcl, err := ttkvwire.Dial(raddr)
	if err != nil {
		t.Fatal(err)
	}
	defer rcl.Close()

	// A co-modified pair plus background noise, stamped in the past so
	// the analytics watermark (advanced to the wall clock each tick)
	// closes every group.
	base := time.Now().Add(-24 * time.Hour).Truncate(time.Second)
	pipe := pcl.Pipeline()
	const pairA, pairB = "/apps/demo/pair_a", "/apps/demo/pair_b"
	for i := 0; i < 8; i++ {
		ts := base.Add(time.Duration(i) * 10 * time.Second)
		pipe.Set(pairA, fmt.Sprintf("a%d", i), ts)
		pipe.Set(pairB, fmt.Sprintf("b%d", i), ts)
		pipe.Set(fmt.Sprintf("/noise/k%d", i), "n", ts.Add(3*time.Second))
	}
	if err := pipe.Flush(); err != nil {
		t.Fatal(err)
	}
	if err := pcl.Delete("/noise/k0", base.Add(time.Hour)); err != nil {
		t.Fatal(err)
	}

	// Wait until the replica has applied everything the primary holds.
	deadline := time.Now().Add(30 * time.Second)
	for {
		pst, err := pcl.ReplStatus()
		if err != nil {
			t.Fatal(err)
		}
		rst, err := rcl.ReplStatus()
		if err != nil {
			t.Fatal(err)
		}
		if pst.Role != "primary" {
			t.Fatalf("primary REPLSTAT role = %q", pst.Role)
		}
		if rst.Role != "replica" {
			t.Fatalf("replica REPLSTAT role = %q", rst.Role)
		}
		if rst.AppliedSeq == pst.DurableSeq && pst.DurableSeq > 0 && rst.State == "streaming" {
			break
		}
		if time.Now().After(deadline) {
			t.Fatalf("replica never drained: primary %+v, replica %+v", pst, rst)
		}
		time.Sleep(10 * time.Millisecond)
	}

	// Replica reads match the primary exactly.
	for _, key := range []string{pairA, pairB, "/noise/k3"} {
		pv, perr := pcl.Get(key)
		rv, rerr := rcl.Get(key)
		if pv != rv || !errors.Is(rerr, perr) && (perr != nil || rerr != nil) {
			t.Fatalf("Get(%s): primary (%q,%v) replica (%q,%v)", key, pv, perr, rv, rerr)
		}
		ph, err := pcl.History(key)
		if err != nil {
			t.Fatal(err)
		}
		rh, err := rcl.History(key)
		if err != nil || len(ph) != len(rh) {
			t.Fatalf("History(%s): %d vs %d versions (%v)", key, len(ph), len(rh), err)
		}
	}
	midpoint := base.Add(35 * time.Second)
	pver, err := pcl.GetAt(pairA, midpoint)
	if err != nil {
		t.Fatal(err)
	}
	rver, err := rcl.GetAt(pairA, midpoint)
	if err != nil || rver.Value != pver.Value || !rver.Time.Equal(pver.Time) {
		t.Fatalf("GetAt: primary %+v, replica %+v (%v)", pver, rver, err)
	}

	// Writes are rejected on the replica with a typed redirect carrying
	// the primary's address.
	err = rcl.Set("/nope", "x", time.Now())
	if !errors.Is(err, ttkvwire.ErrReadOnly) {
		t.Fatalf("replica SET err = %v, want errors.Is(err, ErrReadOnly)", err)
	}
	var moved *ttkvwire.ErrNotLeader
	if !errors.As(err, &moved) || moved.Leader != paddr {
		t.Fatalf("replica SET err = %v, want MOVED redirect to %s", err, paddr)
	}

	// The replica's own engine clusters the replicated stream.
	for {
		snap, err := rcl.Clusters(2)
		if err != nil {
			t.Fatal(err)
		}
		found := false
		for _, cl := range snap.Clusters {
			if cl.Contains(pairA) && cl.Contains(pairB) {
				found = true
			}
		}
		if found {
			break
		}
		if time.Now().After(deadline) {
			t.Fatalf("replica never clustered the pair: %+v", snap.Clusters)
		}
		time.Sleep(20 * time.Millisecond)
	}

	// Kill the primary outright. The replica must keep serving reads,
	// history, and clusters from its local store and engine.
	if err := pproc.Kill(); err != nil {
		t.Fatal(err)
	}
	pproc.Wait() //nolint:errcheck — reap
	if v, err := rcl.Get(pairA); err != nil || v != "a7" {
		t.Fatalf("replica Get after primary death = %q, %v", v, err)
	}
	if ver, err := rcl.GetAt(pairA, midpoint); err != nil || ver.Value != pver.Value {
		t.Fatalf("replica GetAt after primary death = %+v, %v", ver, err)
	}
	if snap, err := rcl.Clusters(2); err != nil || len(snap.Clusters) == 0 {
		t.Fatalf("replica Clusters after primary death = %+v, %v", snap, err)
	}
	// And report a non-streaming state once the dead feed is noticed.
	stateDeadline := time.Now().Add(30 * time.Second)
	for {
		st, err := rcl.ReplStatus()
		if err != nil {
			t.Fatal(err)
		}
		if st.State != "streaming" {
			break
		}
		if time.Now().After(stateDeadline) {
			t.Fatalf("replica still claims streaming from a dead primary: %+v", st)
		}
		time.Sleep(20 * time.Millisecond)
	}

	// Clean SIGTERM shutdown of the replica (its reconnect loop must not
	// wedge shutdown while the primary is gone).
	stopReplica()
}

// TestDaemonReplFlagValidation covers the new replication flag rejects.
func TestDaemonReplFlagValidation(t *testing.T) {
	if testing.Short() {
		t.Skip("builds and runs the real daemon")
	}
	bin := buildDaemon(t)
	for _, args := range [][]string{
		{"-replica-of", "127.0.0.1:1", "-aof-dir", "segments"},
		{"-repl-outbox", "0"},
	} {
		cmd := exec.Command(bin, args...)
		out, err := cmd.CombinedOutput()
		var ee *exec.ExitError
		if !errors.As(err, &ee) || ee.ExitCode() != 2 {
			t.Errorf("%v: err = %v (out %q), want exit 2", args, err, out)
		}
	}
}
