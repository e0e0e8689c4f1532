package ttkvwire

import (
	"bytes"
	"context"
	"errors"
	"fmt"
	"net"
	"sync/atomic"
	"testing"
	"time"

	"ocasta/internal/core"
	"ocasta/internal/ttkv"
)

// storeDump returns the snapshot serialization of s: the byte-identity
// oracle for primary/replica equivalence (global sequence order included).
func storeDump(t testing.TB, s *ttkv.Store) []byte {
	t.Helper()
	var buf bytes.Buffer
	if err := s.WriteSnapshot(&buf); err != nil {
		t.Fatal(err)
	}
	return buf.Bytes()
}

// startReplPrimary serves store as a replication primary on an ephemeral
// port. rl must already be attached to store.
func startReplPrimary(t testing.TB, store *ttkv.Store, rl *ttkv.ReplLog, engine *core.Engine) (*Server, string) {
	t.Helper()
	srv := NewServer(store)
	srv.EnableReplication(rl, ReplicationConfig{HeartbeatInterval: 50 * time.Millisecond})
	if engine != nil {
		srv.SetAnalytics(engine)
	}
	ln, err := net.Listen("tcp", "127.0.0.1:0")
	if err != nil {
		t.Fatal(err)
	}
	go srv.Serve(ln) //nolint:errcheck
	t.Cleanup(func() { srv.Close() })
	return srv, ln.Addr().String()
}

// startReplicaNode builds a replica store, its sync client against
// primaryAddr, and a read-only server in front of it.
func startReplicaNode(t testing.TB, primaryAddr string, engine *core.Engine) (*ttkv.Store, *ReplicaClient, string) {
	t.Helper()
	store := ttkv.NewSharded(4)
	if engine != nil {
		store.SetStatsObserver(engine)
	}
	cfg := ReplicaConfig{
		Primary:    primaryAddr,
		Store:      store,
		MinBackoff: 10 * time.Millisecond,
		MaxBackoff: 200 * time.Millisecond,
	}
	if engine != nil {
		cfg.OnReset = engine.Reset
	}
	rc, err := NewReplicaClient(cfg)
	if err != nil {
		t.Fatal(err)
	}
	t.Cleanup(rc.Stop)
	srv := NewServer(store)
	srv.SetReadOnly(true)
	srv.SetReplicaStatus(rc)
	if engine != nil {
		srv.SetAnalytics(engine)
	}
	ln, err := net.Listen("tcp", "127.0.0.1:0")
	if err != nil {
		t.Fatal(err)
	}
	go srv.Serve(ln) //nolint:errcheck
	t.Cleanup(func() { srv.Close() })
	return store, rc, ln.Addr().String()
}

// drainReplicas flushes the primary's log and waits until every replica
// has applied the durable watermark.
func drainReplicas(t testing.TB, primary *ttkv.Store, rl *ttkv.ReplLog, rcs ...*ReplicaClient) {
	t.Helper()
	if err := primary.SyncAOF(); err != nil {
		t.Fatal(err)
	}
	target := rl.DurableSeq()
	deadline := time.Now().Add(15 * time.Second)
	for _, rc := range rcs {
		for rc.AppliedSeq() < target {
			if time.Now().After(deadline) {
				t.Fatalf("replica stuck at seq %d, want %d (status %+v)",
					rc.AppliedSeq(), target, rc.ReplicaStatus())
			}
			time.Sleep(time.Millisecond)
		}
	}
}

func TestReplicationPairServesReads(t *testing.T) {
	primary := ttkv.NewSharded(8)
	rl := ttkv.NewReplLog(nil)
	if err := primary.AttachReplLog(rl); err != nil {
		t.Fatal(err)
	}
	_, addr := startReplPrimary(t, primary, rl, nil)

	// Pre-sync history exercises the snapshot phase; post-sync writes the
	// live tail.
	for i := 0; i < 50; i++ {
		if err := primary.Set(fmt.Sprintf("snap/k%d", i%7), fmt.Sprintf("v%d", i), at(i)); err != nil {
			t.Fatal(err)
		}
	}
	if err := primary.Delete("snap/k0", at(60)); err != nil {
		t.Fatal(err)
	}

	replica, rc, raddr := startReplicaNode(t, addr, nil)
	for i := 0; i < 50; i++ {
		if err := primary.Set(fmt.Sprintf("live/k%d", i%5), fmt.Sprintf("w%d", i), at(100+i)); err != nil {
			t.Fatal(err)
		}
	}
	drainReplicas(t, primary, rl, rc)

	if got, want := storeDump(t, replica), storeDump(t, primary); !bytes.Equal(got, want) {
		t.Fatal("replica dump differs from primary after drain")
	}

	// Reads served by the replica's own server match the primary.
	rcl, err := Dial(raddr)
	if err != nil {
		t.Fatal(err)
	}
	defer rcl.Close()
	if v, err := rcl.Get("live/k3"); err != nil || v != primaryGet(t, primary, "live/k3") {
		t.Fatalf("replica Get = %q, %v", v, err)
	}
	if _, err := rcl.Get("snap/k0"); !errors.Is(err, ErrNotFound) {
		t.Fatalf("deleted key on replica: err = %v, want ErrNotFound", err)
	}
	ver, err := rcl.GetAt("snap/k0", at(50))
	if err != nil || ver.Deleted {
		t.Fatalf("replica GetAt before delete = %+v, %v", ver, err)
	}
	hist, err := rcl.History("snap/k1")
	if err != nil {
		t.Fatal(err)
	}
	want, err := primary.History("snap/k1")
	if err != nil || len(hist) != len(want) {
		t.Fatalf("replica history %d versions, want %d (%v)", len(hist), len(want), err)
	}
}

func primaryGet(t testing.TB, s *ttkv.Store, key string) string {
	t.Helper()
	v, ok := s.Get(key)
	if !ok {
		t.Fatalf("primary missing %q", key)
	}
	return v
}

func TestReplicaRejectsWrites(t *testing.T) {
	primary := ttkv.New()
	rl := ttkv.NewReplLog(nil)
	if err := primary.AttachReplLog(rl); err != nil {
		t.Fatal(err)
	}
	_, addr := startReplPrimary(t, primary, rl, nil)
	_, rc, raddr := startReplicaNode(t, addr, nil)
	if err := primary.Set("k", "v", at(1)); err != nil {
		t.Fatal(err)
	}
	drainReplicas(t, primary, rl, rc)

	cl, err := Dial(raddr)
	if err != nil {
		t.Fatal(err)
	}
	defer cl.Close()

	assertReadonly := func(name string, err error) {
		t.Helper()
		if !errors.Is(err, ErrReadOnly) {
			t.Errorf("%s on replica: err = %v, want errors.Is(err, ErrReadOnly)", name, err)
		}
	}
	assertReadonly("SET", cl.Set("k", "x", at(2)))
	assertReadonly("DEL", cl.Delete("k", at(2)))
	assertReadonly("MSET", cl.MSet([]ttkv.Mutation{{Key: "k", Value: "x", Time: at(2)}}))
	_, err = cl.RepairFix("job-1", at(2))
	assertReadonly("RFIX", err)

	// Reads still work, and the primary's value is untouched.
	if v, err := cl.Get("k"); err != nil || v != "v" {
		t.Fatalf("replica Get after rejected writes = %q, %v", v, err)
	}
}

func TestReplStatRoles(t *testing.T) {
	// Standalone server: role none.
	standalone := NewServer(ttkv.New())
	ln, err := net.Listen("tcp", "127.0.0.1:0")
	if err != nil {
		t.Fatal(err)
	}
	go standalone.Serve(ln) //nolint:errcheck
	t.Cleanup(func() { standalone.Close() })
	scl, err := Dial(ln.Addr().String())
	if err != nil {
		t.Fatal(err)
	}
	defer scl.Close()
	if st, err := scl.ReplStatus(); err != nil || st.Role != "none" {
		t.Fatalf("standalone REPLSTAT = %+v, %v; want role none", st, err)
	}
	// A standalone server also refuses SYNC without killing the conn.
	if _, err := scl.roundTrip(context.Background(), "SYNC", "0", "?"); err == nil {
		t.Fatal("SYNC on a non-replicating server must error")
	}
	if err := scl.Ping(); err != nil {
		t.Fatalf("connection unusable after refused SYNC: %v", err)
	}

	primary := ttkv.New()
	rl := ttkv.NewReplLog(nil)
	if err := primary.AttachReplLog(rl); err != nil {
		t.Fatal(err)
	}
	_, addr := startReplPrimary(t, primary, rl, nil)
	_, rc, raddr := startReplicaNode(t, addr, nil)
	for i := 0; i < 10; i++ {
		if err := primary.Set("k", fmt.Sprintf("v%d", i), at(i)); err != nil {
			t.Fatal(err)
		}
	}
	drainReplicas(t, primary, rl, rc)

	pcl, err := Dial(addr)
	if err != nil {
		t.Fatal(err)
	}
	defer pcl.Close()
	deadline := time.Now().Add(5 * time.Second)
	for {
		st, err := pcl.ReplStatus()
		if err != nil {
			t.Fatal(err)
		}
		if st.Role != "primary" || st.RunID == "" || st.DurableSeq != 10 {
			t.Fatalf("primary REPLSTAT = %+v", st)
		}
		// The ack races the drain check; poll briefly for it.
		if len(st.Replicas) == 1 && st.Replicas[0].AckedSeq == 10 &&
			st.Replicas[0].State == "streaming" && st.Replicas[0].LagRecords == 0 {
			break
		}
		if time.Now().After(deadline) {
			t.Fatalf("primary never saw the replica fully acked: %+v", st)
		}
		time.Sleep(5 * time.Millisecond)
	}

	rcl, err := Dial(raddr)
	if err != nil {
		t.Fatal(err)
	}
	defer rcl.Close()
	st, err := rcl.ReplStatus()
	if err != nil {
		t.Fatal(err)
	}
	if st.Role != "replica" || st.State != ReplicaStreaming || st.AppliedSeq != 10 {
		t.Fatalf("replica REPLSTAT = %+v", st)
	}
}

// TestRepairFixConvergesOnReplica is the satellite regression test: a
// repair RFIX on the primary flows through the replication tap in commit
// order and lands on the replica as one atomic cluster revert.
func TestRepairFixConvergesOnReplica(t *testing.T) {
	primary := ttkv.NewSharded(8)
	rl := ttkv.NewReplLog(nil)
	if err := primary.AttachReplLog(rl); err != nil {
		t.Fatal(err)
	}
	_, errAt := seedEvolutionFault(t, primary)
	srv, addr := startReplPrimary(t, primary, rl, nil)
	srv.SetRepair(RepairConfig{Workers: 4})
	replica, rc, _ := startReplicaNode(t, addr, nil)
	drainReplicas(t, primary, rl, rc)

	cl, err := Dial(addr)
	if err != nil {
		t.Fatal(err)
	}
	defer cl.Close()
	id, err := cl.RepairSubmit(RepairRequest{
		App:          "evolution",
		Trial:        []string{"launch"},
		FixedMarker:  "[x] online-mode",
		BrokenMarker: "[ ] online-mode",
	})
	if err != nil {
		t.Fatal(err)
	}
	st, err := cl.RepairWait(id, time.Millisecond, 10*time.Second)
	if err != nil || !st.Found {
		t.Fatalf("repair = %+v, %v; want found", st, err)
	}
	applyAt := errAt.Add(time.Hour)
	n, err := cl.RepairFix(id, applyAt)
	if err != nil || n == 0 {
		t.Fatalf("RFIX = (%d, %v)", n, err)
	}

	drainReplicas(t, primary, rl, rc)
	if got, want := storeDump(t, replica), storeDump(t, primary); !bytes.Equal(got, want) {
		t.Fatal("replica dump differs from primary after RFIX")
	}
	if v, _ := replica.Get(evoOffline); v != "b:false" {
		t.Fatalf("replica %s = %q after revert, want b:false", evoOffline, v)
	}
	// The fault stays in replicated history too (time travel preserved).
	ver, err := replica.GetAt(evoOffline, errAt)
	if err != nil || ver.Value != "b:true" {
		t.Fatalf("replica GetAt(errAt) = %+v, %v; history must keep the fault", ver, err)
	}
}

// TestReplicaClustersComputedLocally: the replica's own engine consumes
// the replicated stream and serves CLUSTERS without touching the primary.
func TestReplicaClustersComputedLocally(t *testing.T) {
	primary := ttkv.New()
	rl := ttkv.NewReplLog(nil)
	if err := primary.AttachReplLog(rl); err != nil {
		t.Fatal(err)
	}
	pEngine := core.NewEngine(core.EngineConfig{})
	primary.SetStatsObserver(pEngine)
	_, addr := startReplPrimary(t, primary, rl, pEngine)

	rEngine := core.NewEngine(core.EngineConfig{})
	replica, rc, raddr := startReplicaNode(t, addr, rEngine)

	// Co-modification episodes: the pair flushes together, far apart in
	// time so every episode closes its own window.
	for i := 0; i < 6; i++ {
		ts := at(i * 10)
		if err := primary.Set("app/a", fmt.Sprintf("v%d", i), ts); err != nil {
			t.Fatal(err)
		}
		if err := primary.Set("app/b", fmt.Sprintf("v%d", i), ts); err != nil {
			t.Fatal(err)
		}
	}
	drainReplicas(t, primary, rl, rc)

	for _, e := range []*core.Engine{pEngine, rEngine} {
		e.Flush()
		e.Recluster()
	}
	pSnap, _ := pEngine.Snapshot()
	rSnap, _ := rEngine.Snapshot()
	if len(rSnap) != len(pSnap) {
		t.Fatalf("replica published %d clusters, primary %d", len(rSnap), len(pSnap))
	}
	for i := range pSnap {
		if !clustersEqual(&pSnap[i], &rSnap[i]) {
			t.Fatalf("cluster %d differs: primary %+v, replica %+v", i, pSnap[i], rSnap[i])
		}
	}

	// And the replica's server answers CLUSTERS from that local engine.
	rcl, err := Dial(raddr)
	if err != nil {
		t.Fatal(err)
	}
	defer rcl.Close()
	snap, err := rcl.Clusters(2)
	if err != nil {
		t.Fatal(err)
	}
	found := false
	for _, c := range snap.Clusters {
		if c.Contains("app/a") && c.Contains("app/b") {
			found = true
		}
	}
	if !found {
		t.Fatalf("replica CLUSTERS does not contain the pair: %+v", snap.Clusters)
	}
	_ = replica
}

func clustersEqual(a, b *core.Cluster) bool {
	if len(a.Keys) != len(b.Keys) || a.ModCount != b.ModCount || !a.LastModified.Equal(b.LastModified) {
		return false
	}
	for i := range a.Keys {
		if a.Keys[i] != b.Keys[i] {
			return false
		}
	}
	return true
}

// TestReplicaFullResyncOnNewPrimary: a replica pointed at a different
// primary incarnation (new run ID) must reset its local store — and its
// engine, via OnReset — and converge on the new history.
func TestReplicaFullResyncOnNewPrimary(t *testing.T) {
	primaryA := ttkv.New()
	rlA := ttkv.NewReplLog(nil)
	if err := primaryA.AttachReplLog(rlA); err != nil {
		t.Fatal(err)
	}
	srvA := NewServer(primaryA)
	srvA.EnableReplication(rlA, ReplicationConfig{HeartbeatInterval: 20 * time.Millisecond})
	ln, err := net.Listen("tcp", "127.0.0.1:0")
	if err != nil {
		t.Fatal(err)
	}
	addr := ln.Addr().String()
	go srvA.Serve(ln) //nolint:errcheck

	for i := 0; i < 20; i++ {
		if err := primaryA.Set("a/key", fmt.Sprintf("a%d", i), at(i)); err != nil {
			t.Fatal(err)
		}
	}

	var resets atomic.Int32
	replica := ttkv.New()
	rc, err := NewReplicaClient(ReplicaConfig{
		Primary:    addr,
		Store:      replica,
		MinBackoff: 10 * time.Millisecond,
		MaxBackoff: 100 * time.Millisecond,
		OnReset:    func() { resets.Add(1) },
	})
	if err != nil {
		t.Fatal(err)
	}
	defer rc.Stop()
	drainReplicas(t, primaryA, rlA, rc)
	if got, want := storeDump(t, replica), storeDump(t, primaryA); !bytes.Equal(got, want) {
		t.Fatal("replica did not converge on primary A")
	}

	// Primary A dies; a different incarnation takes over the address with
	// divergent history.
	srvA.Close()
	primaryB := ttkv.New()
	rlB := ttkv.NewReplLog(nil)
	if err := primaryB.AttachReplLog(rlB); err != nil {
		t.Fatal(err)
	}
	for i := 0; i < 5; i++ {
		if err := primaryB.Set("b/key", fmt.Sprintf("b%d", i), at(100+i)); err != nil {
			t.Fatal(err)
		}
	}
	srvB := NewServer(primaryB)
	srvB.EnableReplication(rlB, ReplicationConfig{HeartbeatInterval: 20 * time.Millisecond})
	lnB, err := net.Listen("tcp", addr)
	if err != nil {
		t.Fatalf("rebinding %s: %v", addr, err)
	}
	go srvB.Serve(lnB) //nolint:errcheck
	t.Cleanup(func() { srvB.Close() })

	// The applied watermark moves backwards through the reset; wait for
	// the reset itself before waiting for the drain.
	deadline := time.Now().Add(15 * time.Second)
	for resets.Load() == 0 {
		if time.Now().After(deadline) {
			t.Fatalf("replica never reset for the new primary (status %+v)", rc.ReplicaStatus())
		}
		time.Sleep(time.Millisecond)
	}
	drainReplicas(t, primaryB, rlB, rc)
	if got, want := storeDump(t, replica), storeDump(t, primaryB); !bytes.Equal(got, want) {
		t.Fatal("replica did not converge on primary B after full resync")
	}
	if _, ok := replica.Get("a/key"); ok {
		t.Fatal("stale primary-A history survived the full resync")
	}
	if resets.Load() == 0 {
		t.Fatal("OnReset hook never ran")
	}
}
