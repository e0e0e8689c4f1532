package ttkvwire

import (
	"bytes"
	"context"
	"errors"
	"fmt"
	"math/rand"
	"net"
	"sync"
	"testing"
	"time"

	"ocasta/internal/ttkv"
)

// fnode is one in-process failover-cluster member.
type fnode struct {
	addr  string
	store *ttkv.Store
	srv   *Server
	node  *Node
	alive bool
}

// fcluster drives a cluster of failover Nodes with kill/revive at the
// same addresses, the in-process stand-in for SIGKILL + restart.
type fcluster struct {
	t     *testing.T
	lease time.Duration
	semi  SemiSyncConfig
	addrs []string
	nodes []*fnode
}

// startFCluster starts n members: node 0 as the primary, the rest as its
// replicas. Listeners are bound up front so every member knows the full
// peer set.
func startFCluster(t *testing.T, n int, lease time.Duration, semi SemiSyncConfig) *fcluster {
	t.Helper()
	c := &fcluster{t: t, lease: lease, semi: semi}
	lns := make([]net.Listener, n)
	for i := range lns {
		ln, err := net.Listen("tcp", "127.0.0.1:0")
		if err != nil {
			t.Fatal(err)
		}
		lns[i] = ln
		c.addrs = append(c.addrs, ln.Addr().String())
	}
	for i := range lns {
		primaryAddr := ""
		if i > 0 {
			primaryAddr = c.addrs[0]
		}
		c.nodes = append(c.nodes, c.startMember(lns[i], i, i == 0, primaryAddr))
	}
	t.Cleanup(c.stopAll)
	return c
}

func (c *fcluster) peersOf(i int) []string {
	var peers []string
	for j, a := range c.addrs {
		if j != i {
			peers = append(peers, a)
		}
	}
	return peers
}

func (c *fcluster) startMember(ln net.Listener, i int, primary bool, primaryAddr string) *fnode {
	c.t.Helper()
	store := ttkv.NewSharded(4)
	srv := NewServer(store)
	cfg := NodeConfig{
		Store:         store,
		Server:        srv,
		Self:          c.addrs[i],
		Peers:         c.peersOf(i),
		LeaseInterval: c.lease,
		SemiSync:      c.semi,
	}
	if primary {
		rl := ttkv.NewReplLog(nil)
		if err := store.AttachReplLog(rl); err != nil {
			c.t.Fatal(err)
		}
		cfg.Primary = true
		cfg.ReplLog = rl
	} else {
		cfg.PrimaryAddr = primaryAddr
	}
	node, err := StartNode(cfg)
	if err != nil {
		c.t.Fatal(err)
	}
	go srv.Serve(ln) //nolint:errcheck
	return &fnode{addr: c.addrs[i], store: store, srv: srv, node: node, alive: true}
}

// kill tears a member down abruptly: the failover loop stops and every
// connection (client and replica feed alike) is severed mid-stream.
func (c *fcluster) kill(i int) {
	fn := c.nodes[i]
	fn.alive = false
	fn.node.Stop()
	fn.srv.Close()
}

// revive restarts a killed member at its old address with an empty store
// — a rebooted process. asPrimary restarts it believing it still leads
// (the stale-primary case); otherwise it rejoins with no configured
// primary and discovers the leader by probing peers.
func (c *fcluster) revive(i int, asPrimary bool) *fnode {
	c.t.Helper()
	var ln net.Listener
	var err error
	for attempt := 0; attempt < 100; attempt++ {
		if ln, err = net.Listen("tcp", c.nodes[i].addr); err == nil {
			break
		}
		time.Sleep(10 * time.Millisecond)
	}
	if err != nil {
		c.t.Fatalf("rebinding %s: %v", c.nodes[i].addr, err)
	}
	fn := c.startMember(ln, i, asPrimary, "")
	c.nodes[i] = fn
	return fn
}

func (c *fcluster) stopAll() {
	for i, fn := range c.nodes {
		if fn.alive {
			c.kill(i)
		}
	}
}

// waitPrimaryIndex polls until some live member holds the primary role.
func (c *fcluster) waitPrimaryIndex(timeout time.Duration) int {
	c.t.Helper()
	deadline := time.Now().Add(timeout)
	for time.Now().Before(deadline) {
		for i, fn := range c.nodes {
			if !fn.alive {
				continue
			}
			if role, _ := fn.node.Role(); role == RolePrimary {
				return i
			}
		}
		time.Sleep(2 * time.Millisecond)
	}
	c.t.Fatalf("no primary elected within %v", timeout)
	return -1
}

// livePrimaryCount counts live members claiming the primary role.
func (c *fcluster) livePrimaryCount() int {
	count := 0
	for _, fn := range c.nodes {
		if !fn.alive {
			continue
		}
		if role, _ := fn.node.Role(); role == RolePrimary {
			count++
		}
	}
	return count
}

// waitRedundant blocks until some live replica's applied sequence has
// caught up to the primary's (sampled per poll). Snapshot resyncs stream
// in ascending sequence order, so a replica at seq S holds every record
// up to S — catching up means it holds a complete second copy.
func (c *fcluster) waitRedundant(pidx int, timeout time.Duration) {
	c.t.Helper()
	deadline := time.Now().Add(timeout)
	for time.Now().Before(deadline) {
		p := c.nodes[pidx]
		if !p.alive {
			return // leadership moved; next round re-resolves
		}
		if role, _ := p.node.Role(); role != RolePrimary {
			return
		}
		pseq := p.store.CurrentSeq()
		for i, fn := range c.nodes {
			if i != pidx && fn.alive && fn.store.CurrentSeq() >= pseq {
				return
			}
		}
		time.Sleep(2 * time.Millisecond)
	}
	c.t.Fatalf("redundancy not restored within %v", timeout)
}

func waitFor(t *testing.T, timeout time.Duration, msg string, cond func() bool) {
	t.Helper()
	deadline := time.Now().Add(timeout)
	for time.Now().Before(deadline) {
		if cond() {
			return
		}
		time.Sleep(2 * time.Millisecond)
	}
	t.Fatalf("timed out after %v waiting for %s", timeout, msg)
}

// TestFailoverPromotionAndFencing is the core failover scenario: the
// primary dies, the highest-applied replica self-promotes at a bumped
// epoch within a bounded delay, the other replica re-follows the winner,
// and the revived stale primary is fenced — it demotes itself, redirects
// writes to the new leader, and resyncs to a byte-identical store.
func TestFailoverPromotionAndFencing(t *testing.T) {
	lease := 50 * time.Millisecond
	c := startFCluster(t, 3, lease, SemiSyncConfig{})

	cl, err := Dial(c.addrs[0])
	if err != nil {
		t.Fatal(err)
	}
	defer cl.Close()
	base := time.Now()
	for i := 0; i < 40; i++ {
		if err := cl.Set(fmt.Sprintf("/app/k%02d", i), fmt.Sprintf("v%d", i), base.Add(time.Duration(i)*time.Millisecond)); err != nil {
			t.Fatal(err)
		}
	}
	seq := c.nodes[0].store.CurrentSeq()
	waitFor(t, 5*time.Second, "replicas caught up", func() bool {
		return c.nodes[1].store.CurrentSeq() == seq && c.nodes[2].store.CurrentSeq() == seq
	})

	c.kill(0)
	killedAt := time.Now()
	winIdx := c.waitPrimaryIndex(5 * time.Second)
	elapsed := time.Since(killedAt)
	// Detection needs 2 lease intervals of silence; promotion follows on
	// the next half-lease tick. Leave slack for CI scheduling noise.
	if elapsed > 20*lease {
		t.Fatalf("promotion took %v, want within a few lease intervals (lease %v)", elapsed, lease)
	}
	t.Logf("promotion after %v (lease %v)", elapsed, lease)

	// Both replicas were equally applied, so the smaller address must
	// have won the tiebreak.
	wantIdx := 1
	if c.addrs[2] < c.addrs[1] {
		wantIdx = 2
	}
	if winIdx != wantIdx {
		t.Fatalf("winner %s, want %s (equal appliedSeq: smaller address)", c.addrs[winIdx], c.addrs[wantIdx])
	}
	winner := c.nodes[winIdx]
	if _, epoch := winner.node.Role(); epoch != 2 {
		t.Fatalf("winner epoch = %d, want 2", epoch)
	}

	// The losing replica re-follows the winner.
	otherIdx := 3 - winIdx
	other := c.nodes[otherIdx]
	waitFor(t, 5*time.Second, "loser follows winner", func() bool {
		role, _ := other.node.Role()
		return role == RoleReplica && other.node.Leader() == winner.addr
	})

	// The new primary serves writes, and they replicate.
	wcl, err := Dial(winner.addr)
	if err != nil {
		t.Fatal(err)
	}
	defer wcl.Close()
	if err := wcl.Set("/app/after-failover", "yes", base.Add(time.Second)); err != nil {
		t.Fatalf("write to new primary: %v", err)
	}
	waitFor(t, 5*time.Second, "post-failover write replicated", func() bool {
		return other.store.CurrentSeq() == winner.store.CurrentSeq()
	})
	if got := primaryGet(t, other.store, "/app/after-failover"); got != "yes" {
		t.Fatalf("replica sees %q after failover write", got)
	}
	if n := c.livePrimaryCount(); n != 1 {
		t.Fatalf("%d live primaries, want exactly 1", n)
	}

	// Revive the dead primary still believing it leads (stale epoch 1):
	// fencing must demote it to the winner's replica.
	revived := c.revive(0, true)
	waitFor(t, 5*time.Second, "stale primary fenced and demoted", func() bool {
		role, _ := revived.node.Role()
		return role == RoleReplica && revived.node.Leader() == winner.addr
	})
	if n := c.livePrimaryCount(); n != 1 {
		t.Fatalf("%d live primaries after fencing, want exactly 1", n)
	}

	// Its writes now redirect — typed, with the current leader's address.
	rcl, err := Dial(revived.addr)
	if err != nil {
		t.Fatal(err)
	}
	defer rcl.Close()
	werr := rcl.Set("/app/fenced", "no", base.Add(2*time.Second))
	if !errors.Is(werr, ErrReadOnly) {
		t.Fatalf("write to fenced primary: %v, want errors.Is ErrReadOnly", werr)
	}
	var moved *ErrNotLeader
	if !errors.As(werr, &moved) || moved.Leader != winner.addr {
		t.Fatalf("write to fenced primary: %v, want MOVED %s", werr, winner.addr)
	}

	// And it resyncs byte-identically to the new leader's history.
	waitFor(t, 5*time.Second, "revived node resynced", func() bool {
		return revived.store.CurrentSeq() == winner.store.CurrentSeq()
	})
	if !bytes.Equal(storeDump(t, revived.store), storeDump(t, winner.store)) {
		t.Fatal("revived node's store differs from the new primary's after resync")
	}
}

// TestFailoverSemiSyncNoAckedWriteLost kills the current primary at 20
// randomized points under a concurrent writer running semi-sync K=1
// through a FailoverClient. Every write the client saw acknowledged must
// survive every failover: the acking replica holds it, and election
// prefers the highest applied sequence.
func TestFailoverSemiSyncNoAckedWriteLost(t *testing.T) {
	if testing.Short() {
		t.Skip("20 randomized kill/revive rounds")
	}
	lease := 50 * time.Millisecond
	c := startFCluster(t, 3, lease, SemiSyncConfig{Acks: 1, Timeout: 500 * time.Millisecond})

	ctx := context.Background()
	fc, err := DialCluster(ctx,
		WithPeers(c.addrs...),
		WithSemiSync(1),
		WithCallTimeout(3*time.Second),
		WithMaxRedirects(40),
		WithRetryBackoff(10*time.Millisecond),
	)
	if err != nil {
		t.Fatal(err)
	}
	defer fc.Close()

	var mu sync.Mutex
	acked := make(map[string]string)
	stop := make(chan struct{})
	var wg sync.WaitGroup
	wg.Add(1)
	go func() {
		defer wg.Done()
		base := time.Now()
		for i := 0; ; i++ {
			select {
			case <-stop:
				return
			default:
			}
			key := fmt.Sprintf("/sem/k%05d", i)
			val := fmt.Sprintf("v%d", i)
			if err := fc.Set(ctx, key, val, base.Add(time.Duration(i)*time.Millisecond)); err == nil {
				mu.Lock()
				acked[key] = val
				mu.Unlock()
			}
			time.Sleep(2 * time.Millisecond)
		}
	}()

	rng := rand.New(rand.NewSource(7))
	for round := 0; round < 20; round++ {
		time.Sleep(time.Duration(rng.Intn(100)) * time.Millisecond)
		victim := c.waitPrimaryIndex(10 * time.Second)
		c.kill(victim)
		successor := c.waitPrimaryIndex(10 * time.Second)
		c.revive(victim, false)
		// Semi-sync K=1 keeps every acked write on 2 nodes, so it
		// tolerates one failure at a time: after a failover the acked
		// history transiently has a single complete copy (the new
		// primary) until a follower finishes its resync. Restore that
		// redundancy before scheduling the next kill — the guarantee
		// under test is "no acked write lost across single-failure
		// kills", not survival of overlapping double failures.
		c.waitRedundant(successor, 10*time.Second)
	}
	close(stop)
	wg.Wait()

	pidx := c.waitPrimaryIndex(10 * time.Second)
	primary := c.nodes[pidx]
	waitFor(t, 10*time.Second, "cluster settles on one primary", func() bool {
		return c.livePrimaryCount() == 1
	})
	mu.Lock()
	defer mu.Unlock()
	t.Logf("%d acked writes across 20 failovers; final primary %s", len(acked), primary.addr)
	if len(acked) == 0 {
		t.Fatal("no writes were acknowledged at all")
	}
	for key, val := range acked {
		if got := primaryGet(t, primary.store, key); got != val {
			t.Fatalf("acked write %s=%s lost (primary has %q)", key, val, got)
		}
	}
}

// TestDialClusterDiscoversPrimary seeds the cluster client with only a
// replica's address: discovery must follow the replica's leader hint to
// the primary, and direct replica writes must carry the typed redirect.
func TestDialClusterDiscoversPrimary(t *testing.T) {
	lease := 50 * time.Millisecond
	c := startFCluster(t, 2, lease, SemiSyncConfig{})
	ctx := context.Background()

	fc, err := DialCluster(ctx, WithPeers(c.addrs[1]))
	if err != nil {
		t.Fatal(err)
	}
	defer fc.Close()
	if fc.Leader() != c.addrs[0] {
		t.Fatalf("discovered leader %s, want %s", fc.Leader(), c.addrs[0])
	}
	if err := fc.Set(ctx, "/d/k", "v", time.Now()); err != nil {
		t.Fatal(err)
	}
	if got, err := fc.Get(ctx, "/d/k"); err != nil || got != "v" {
		t.Fatalf("Get = %q, %v", got, err)
	}

	rcl, err := Dial(c.addrs[1])
	if err != nil {
		t.Fatal(err)
	}
	defer rcl.Close()
	werr := rcl.Set("/d/denied", "x", time.Now())
	var moved *ErrNotLeader
	if !errors.Is(werr, ErrReadOnly) || !errors.As(werr, &moved) || moved.Leader != c.addrs[0] {
		t.Fatalf("replica write: %v, want MOVED %s", werr, c.addrs[0])
	}

	// TOPO on the replica reports its role, the leader, and the epoch it
	// learned from the primary's handshake.
	waitFor(t, 5*time.Second, "replica TOPO settles", func() bool {
		topo, err := rcl.Topology()
		return err == nil && topo.Role == RoleReplica && topo.Leader == c.addrs[0] &&
			topo.Self == c.addrs[1] && topo.Epoch == 1
	})
	ptopo, err := fc.Topology(ctx)
	if err != nil {
		t.Fatal(err)
	}
	if ptopo.Role != RolePrimary || ptopo.Epoch != 1 || ptopo.Self != c.addrs[0] {
		t.Fatalf("primary TOPO = %+v", ptopo)
	}
}

// TestSemiSyncGate checks the RETRY contract: a semi-sync primary with no
// attached replica refuses to ack (typed ErrRetryable, write still
// applied locally); once a replica attaches and acks, writes succeed.
func TestSemiSyncGate(t *testing.T) {
	store := ttkv.NewSharded(4)
	rl := ttkv.NewReplLog(nil)
	if err := store.AttachReplLog(rl); err != nil {
		t.Fatal(err)
	}
	srv := NewServer(store)
	srv.EnableReplication(rl, ReplicationConfig{HeartbeatInterval: 20 * time.Millisecond})
	srv.SetSemiSync(SemiSyncConfig{Acks: 1, Timeout: 100 * time.Millisecond})
	ln, err := net.Listen("tcp", "127.0.0.1:0")
	if err != nil {
		t.Fatal(err)
	}
	go srv.Serve(ln) //nolint:errcheck
	t.Cleanup(func() { srv.Close() })
	addr := ln.Addr().String()

	cl, err := Dial(addr)
	if err != nil {
		t.Fatal(err)
	}
	defer cl.Close()
	werr := cl.Set("/s/unacked", "v", time.Now())
	if !errors.Is(werr, ErrRetryable) {
		t.Fatalf("semi-sync write with no replicas: %v, want errors.Is ErrRetryable", werr)
	}
	if got := primaryGet(t, store, "/s/unacked"); got != "v" {
		t.Fatalf("RETRY write not applied locally: %q", got)
	}

	_, rc, _ := startReplicaNode(t, addr, nil)
	defer rc.Stop()
	waitFor(t, 5*time.Second, "semi-sync write acked once a replica attached", func() bool {
		return cl.Set("/s/acked", "v", time.Now()) == nil
	})
}

// TestSemiSyncConnOverrideStrengthens: a connection-level SEMISYNC k can
// only tighten the server default, never weaken it.
func TestSemiSyncConnOverrideStrengthens(t *testing.T) {
	store := ttkv.NewSharded(4)
	rl := ttkv.NewReplLog(nil)
	if err := store.AttachReplLog(rl); err != nil {
		t.Fatal(err)
	}
	srv := NewServer(store)
	srv.EnableReplication(rl, ReplicationConfig{})
	// Server default: fully asynchronous.
	srv.SetSemiSync(SemiSyncConfig{Acks: 0, Timeout: 50 * time.Millisecond})
	ln, err := net.Listen("tcp", "127.0.0.1:0")
	if err != nil {
		t.Fatal(err)
	}
	go srv.Serve(ln) //nolint:errcheck
	t.Cleanup(func() { srv.Close() })

	cl, err := Dial(ln.Addr().String())
	if err != nil {
		t.Fatal(err)
	}
	defer cl.Close()
	if err := cl.Set("/o/async", "v", time.Now()); err != nil {
		t.Fatalf("async write: %v", err)
	}
	// Opting in on this connection makes the same write wait for an ack
	// that no replica will ever send.
	if err := cl.SemiSync(1); err != nil {
		t.Fatal(err)
	}
	werr := cl.Set("/o/sync", "v", time.Now())
	if !errors.Is(werr, ErrRetryable) {
		t.Fatalf("overridden write: %v, want errors.Is ErrRetryable", werr)
	}
}

// TestSemiSyncAckIndependentOfFlushInterval: a semi-sync write's ack costs
// one commit (per fsync policy) plus one replica round trip, not what is
// left of the flush interval — here 10 s, far beyond the test's patience —
// while a write nobody waits on still leaves the commit to the timer.
func TestSemiSyncAckIndependentOfFlushInterval(t *testing.T) {
	store := ttkv.NewSharded(4)
	aof, err := ttkv.OpenSegmented(t.TempDir(), ttkv.SegmentedConfig{})
	if err != nil {
		t.Fatal(err)
	}
	gc := ttkv.NewGroupCommit(aof, ttkv.GroupCommitConfig{
		FlushInterval: 10 * time.Second,
		Fsync:         ttkv.FsyncInterval,
	})
	t.Cleanup(func() {
		store.AttachReplLog(nil)
		gc.Close()
	})
	rl := ttkv.NewReplLog(gc)
	if err := store.AttachReplLog(rl); err != nil {
		t.Fatal(err)
	}
	srv, addr := startReplPrimary(t, store, rl, nil)
	srv.SetSemiSync(SemiSyncConfig{Timeout: 5 * time.Second}) // async by default
	_, rc, _ := startReplicaNode(t, addr, nil)
	defer rc.Stop()

	async, err := Dial(addr)
	if err != nil {
		t.Fatal(err)
	}
	defer async.Close()
	waitFor(t, 5*time.Second, "replica feed streaming", func() bool {
		st, err := async.ReplStatus()
		return err == nil && len(st.Replicas) == 1 && st.Replicas[0].State == "streaming"
	})
	semi, err := Dial(addr)
	if err != nil {
		t.Fatal(err)
	}
	defer semi.Close()
	if err := semi.SemiSync(1); err != nil {
		t.Fatal(err)
	}

	// Nobody waits on the async write: it stays uncommitted and unshipped.
	if err := async.Set("/d/async", "v", time.Now()); err != nil {
		t.Fatal(err)
	}
	time.Sleep(50 * time.Millisecond)
	if durable, appended := rl.DurableSeq(), rl.AppendedSeq(); durable >= appended {
		t.Fatalf("async write committed off the timer: durable %d, appended %d", durable, appended)
	}

	start := time.Now()
	if err := semi.Set("/d/set", "v", time.Now()); err != nil {
		t.Fatalf("semi-sync SET: %v", err)
	}
	if elapsed := time.Since(start); elapsed > time.Second {
		t.Fatalf("semi-sync SET acked after %v; the ack waited for the flush timer", elapsed)
	}
	start = time.Now()
	now := time.Now()
	if err := semi.MSet([]ttkv.Mutation{
		{Key: "/d/m1", Value: "a", Time: now},
		{Key: "/d/m2", Value: "b", Time: now},
		{Key: "/d/m3", Value: "c", Time: now},
	}); err != nil {
		t.Fatalf("semi-sync MSET: %v", err)
	}
	if elapsed := time.Since(start); elapsed > time.Second {
		t.Fatalf("semi-sync MSET acked after %v; the ack waited for the flush timer", elapsed)
	}
	if got, want := rc.AppliedSeq(), rl.AppendedSeq(); got != want {
		t.Fatalf("replica applied seq %d after the acked MSET, want %d", got, want)
	}
	// Commit per policy: the demanded flushes wrote and flushed, no fsync.
	if got := gc.SyncCount(); got != 0 {
		t.Fatalf("demanded commits fsynced under FsyncInterval: SyncCount = %d", got)
	}
	if got := gc.FlushCount(); got != 2 {
		t.Fatalf("FlushCount = %d after two semi-sync writes, want 2", got)
	}
}
