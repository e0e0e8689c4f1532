package ttkvwire

import (
	"context"
	"errors"
	"sync"
	"syscall"
	"time"

	"ocasta/internal/ttkv"
)

// NodeConfig configures one failover-managed cluster member: a Server
// plus the state machine that promotes, demotes, and fences it.
type NodeConfig struct {
	// Store is the node's local store; Server the wire server in front of
	// it. Both required. The Node takes over the server's replication
	// role management (EnableReplication / SetReadOnly / topology).
	Store  *ttkv.Store
	Server *Server

	// Self is this node's address as peers and clients reach it
	// (advertised in TOPO and MOVED redirects). Required.
	Self string
	// Peers are the other cluster members' addresses (not including
	// Self). Failure detection, election, and fencing all run against
	// this static member set.
	Peers []string

	// Primary starts the node as the leader; ReplLog must then be the
	// log already attached to Store (epoch is seeded to 1 if unset).
	// Otherwise the node starts as a replica of PrimaryAddr — or, when
	// PrimaryAddr is empty, discovers the leader by probing Peers.
	Primary     bool
	ReplLog     *ttkv.ReplLog
	PrimaryAddr string

	// GroupCommit is the initial primary's AOF appender, if any. On
	// demotion it is closed permanently: a demoted node takes a full
	// resync from the new leader and must not reuse an appender whose
	// generation counter has outrun a fresh ReplLog's (records would fan
	// out before they were durable). Re-promotions therefore run with an
	// in-memory log.
	GroupCommit *ttkv.GroupCommit

	// LeaseInterval is the failure-detection lease: a replica that has
	// not heard from its primary (handshake, data, or heartbeat frame)
	// for 2 lease intervals starts an election. The node ticks at half
	// the lease. Default 500ms.
	LeaseInterval time.Duration

	// Replication tunes the primary role; its HeartbeatInterval defaults
	// to LeaseInterval/2 so an idle primary refreshes leases twice per
	// interval. SemiSync is applied to the server whenever this node is
	// primary.
	Replication ReplicationConfig
	SemiSync    SemiSyncConfig

	// OnReset is forwarded to the replica client: it runs after a full
	// resync has reset the local store (e.g. to reset an analytics
	// engine).
	OnReset func()
	// Logf, when set, receives role-transition and election messages.
	Logf func(format string, args ...any)
}

// Node runs the failover state machine for one cluster member. Construct
// with StartNode; Stop tears it down (the Server is left in its current
// role and is closed separately).
type Node struct {
	cfg  NodeConfig
	tick time.Duration

	mu      sync.Mutex
	role    string // RolePrimary or RoleReplica
	epoch   uint64 // highest epoch this node has observed
	rl      *ttkv.ReplLog
	rc      *ReplicaClient
	leader  string            // current leader address ("" unknown)
	gc      *ttkv.GroupCommit // initial AOF appender; nil once closed
	rundown bool              // Stop has begun; refuse new transitions

	// electDefer counts consecutive elections held open because a peer's
	// fate was unknown; see electPatience. Touched only by the run
	// goroutine, so it needs no lock.
	electDefer int

	stop chan struct{}
	done chan struct{}
}

// StartNode validates cfg, puts the server in its starting role, and
// starts the failover loop.
func StartNode(cfg NodeConfig) (*Node, error) {
	if cfg.Store == nil || cfg.Server == nil {
		return nil, errors.New("ttkvwire: node config needs a store and a server")
	}
	if cfg.Self == "" {
		return nil, errors.New("ttkvwire: node config needs a self address")
	}
	if cfg.Primary && cfg.ReplLog == nil {
		return nil, errors.New("ttkvwire: a primary node needs its attached ReplLog")
	}
	if cfg.LeaseInterval <= 0 {
		cfg.LeaseInterval = 500 * time.Millisecond
	}
	if cfg.Replication.HeartbeatInterval <= 0 {
		cfg.Replication.HeartbeatInterval = cfg.LeaseInterval / 2
	}
	n := &Node{
		cfg:  cfg,
		tick: cfg.LeaseInterval / 2,
		gc:   cfg.GroupCommit,
		stop: make(chan struct{}),
		done: make(chan struct{}),
	}
	srv := cfg.Server
	srv.SetAdvertise(cfg.Self)
	srv.SetTopologySource(n.topology)
	if cfg.Primary {
		if cfg.ReplLog.Epoch() == 0 {
			cfg.ReplLog.SetEpoch(1)
		}
		n.role = RolePrimary
		n.epoch = cfg.ReplLog.Epoch()
		n.rl = cfg.ReplLog
		n.leader = cfg.Self
		srv.EnableReplication(cfg.ReplLog, cfg.Replication)
		srv.SetSemiSync(cfg.SemiSync)
		srv.SetReadOnly(false)
	} else {
		n.role = RoleReplica
		n.leader = cfg.PrimaryAddr
		srv.SetReadOnly(true)
		srv.SetLeaderHint(cfg.PrimaryAddr)
		if cfg.PrimaryAddr != "" {
			rc, err := n.startReplica(cfg.PrimaryAddr)
			if err != nil {
				return nil, err
			}
			n.rc = rc
		}
	}
	go n.run()
	return n, nil
}

// Stop ends the failover loop and any replica client it runs. The node's
// server keeps serving in whatever role it last held.
func (n *Node) Stop() {
	n.mu.Lock()
	if n.rundown {
		n.mu.Unlock()
		<-n.done
		return
	}
	n.rundown = true
	rc := n.rc
	n.mu.Unlock()
	close(n.stop)
	<-n.done
	if rc != nil {
		rc.Stop()
	}
}

// Role returns the node's current role and epoch.
func (n *Node) Role() (role string, epoch uint64) {
	n.mu.Lock()
	defer n.mu.Unlock()
	return n.role, n.epoch
}

// Leader returns the address the node currently believes is the leader
// (its own when primary, "" when unknown).
func (n *Node) Leader() string {
	n.mu.Lock()
	defer n.mu.Unlock()
	return n.leader
}

// ReplicaStatus reports the stream status of the node's current replica
// feed; ok is false while the node is primary (or has no feed yet).
func (n *Node) ReplicaStatus() (st ReplicaStatus, ok bool) {
	n.mu.Lock()
	rc := n.rc
	n.mu.Unlock()
	if rc == nil {
		return ReplicaStatus{}, false
	}
	return rc.ReplicaStatus(), true
}

func (n *Node) logf(format string, args ...any) {
	if n.cfg.Logf != nil {
		n.cfg.Logf(format, args...)
	}
}

// topology serves TOPO for this node.
func (n *Node) topology() Topology {
	n.mu.Lock()
	role := n.role
	epoch := n.epoch
	rl := n.rl
	rc := n.rc
	leader := n.leader
	n.mu.Unlock()
	// A healthy replica has never stood for election, so its own epoch
	// may still be 0; the one learned from the primary's SYNC handshake
	// is the current term.
	if role == RoleReplica && rc != nil {
		if e := rc.PrimaryEpoch(); e > epoch {
			epoch = e
		}
	}
	_, _, runID := n.cfg.Server.replState()
	t := Topology{
		Role:   role,
		Epoch:  epoch,
		RunID:  runID,
		Self:   n.cfg.Self,
		Leader: leader,
		Peers:  append([]string(nil), n.cfg.Peers...),
	}
	t.AppliedSeq = n.cfg.Store.CurrentSeq()
	t.DurableSeq = t.AppliedSeq
	if role == RolePrimary && rl != nil {
		t.DurableSeq = rl.DurableSeq()
	}
	return t
}

// run is the failover loop: every tick (half a lease) the node checks its
// role's health condition and transitions when the evidence demands it.
func (n *Node) run() {
	defer close(n.done)
	ticker := time.NewTicker(n.tick)
	defer ticker.Stop()
	for {
		select {
		case <-n.stop:
			return
		case <-ticker.C:
		}
		n.mu.Lock()
		role := n.role
		rc := n.rc
		n.mu.Unlock()
		if role == RolePrimary {
			n.checkFenced()
			continue
		}
		// Replica: a live lease means a healthy primary; nothing to do.
		if rc != nil && time.Since(rc.LastContact()) <= 2*n.cfg.LeaseInterval {
			n.electDefer = 0
			continue
		}
		n.elect(rc)
	}
}

// peerView is one probe result.
type peerView struct {
	addr string
	topo Topology
	err  error
	// down means the peer is confirmed dead (connection refused: the
	// host answered, nothing listens there). A timeout is NOT down —
	// the peer may be alive but slow, which elections must treat as
	// unknown rather than absent.
	down bool
}

// probePeers asks every peer for its topology, in parallel, bounded by
// one lease interval per probe. A dead local peer refuses instantly, so
// the generous timeout only costs time against hung or partitioned
// hosts.
func (n *Node) probePeers() []peerView {
	views := make([]peerView, len(n.cfg.Peers))
	var wg sync.WaitGroup
	for i, addr := range n.cfg.Peers {
		wg.Add(1)
		go func(i int, addr string) {
			defer wg.Done()
			ctx, cancel := context.WithTimeout(context.Background(), n.cfg.LeaseInterval)
			defer cancel()
			views[i] = peerView{addr: addr}
			cl, err := DialContext(ctx, addr)
			if err != nil {
				views[i].err = err
				views[i].down = errors.Is(err, syscall.ECONNREFUSED)
				return
			}
			defer cl.Close()
			views[i].topo, views[i].err = cl.TopologyContext(ctx)
			if views[i].err == nil && views[i].topo.Self == "" {
				// A peer that does not advertise (legacy configuration) is
				// identified by the address we reached it at.
				views[i].topo.Self = addr
			}
		}(i, addr)
	}
	wg.Wait()
	return views
}

// checkFenced is the primary's self-check: if any peer claims the
// primary role at a higher epoch — or at the same epoch with a
// lower-sorting address, the symmetric tiebreak for simultaneous
// promotions — this node has been superseded and demotes itself. This is
// the fencing rule: a revived stale primary discovers the newer leader
// here and rejoins as its replica.
func (n *Node) checkFenced() {
	n.mu.Lock()
	myEpoch := n.epoch
	n.mu.Unlock()
	for _, v := range n.probePeers() {
		if v.err != nil || v.topo.Role != RolePrimary {
			continue
		}
		if v.topo.Epoch > myEpoch || (v.topo.Epoch == myEpoch && v.topo.Self < n.cfg.Self) {
			n.logf("failover: fenced by %s (epoch %d >= ours %d); demoting", v.topo.Self, v.topo.Epoch, myEpoch)
			n.demote(v.topo.Self, v.topo.Epoch)
			return
		}
	}
}

// electPatience is how many consecutive election attempts tolerate an
// unknown-state peer (unreachable but not confirmed down) before the
// node promotes anyway. A peer that merely missed one probe — load
// spike, GC pause — answers the retry; promoting past a live peer that
// holds more acked writes would discard them on its forced resync.
const electPatience = 3

// elect runs when the lease to the primary has expired (or the node has
// no primary at all): probe the peer set, adopt any reachable primary at
// a current-or-newer epoch, otherwise self-promote if and only if this
// node beats every reachable replica on (applied sequence, address) —
// deferring up to electPatience ticks while any peer's fate is unknown.
func (n *Node) elect(rc *ReplicaClient) {
	n.mu.Lock()
	maxEpoch := n.epoch
	leader := n.leader
	n.mu.Unlock()
	if rc != nil {
		if e := rc.PrimaryEpoch(); e > maxEpoch {
			maxEpoch = e
		}
	}

	views := n.probePeers()
	unknown := 0
	var bestPrimary *peerView
	for i := range views {
		v := &views[i]
		if v.err != nil {
			if !v.down {
				unknown++
			}
			continue
		}
		if v.topo.Epoch > maxEpoch {
			maxEpoch = v.topo.Epoch
		}
		if v.topo.Role != RolePrimary {
			continue
		}
		if bestPrimary == nil || v.topo.Epoch > bestPrimary.topo.Epoch ||
			(v.topo.Epoch == bestPrimary.topo.Epoch && v.topo.Self < bestPrimary.topo.Self) {
			bestPrimary = v
		}
	}
	if bestPrimary != nil {
		// A reachable primary exists; (re-)follow it. The lease expiring
		// against a primary that is still reachable means our feed died,
		// not the leader — the replica client's own reconnect handles
		// that, so only switch when the leader moved.
		n.electDefer = 0
		if bestPrimary.topo.Self != leader || rc == nil {
			n.logf("failover: following primary %s (epoch %d)", bestPrimary.topo.Self, bestPrimary.topo.Epoch)
			n.follow(bestPrimary.topo.Self, bestPrimary.topo.Epoch)
		}
		return
	}
	if unknown > 0 && n.electDefer < electPatience {
		// Some peer may be alive (and may hold acked writes we lack);
		// hold the election open and re-probe next tick rather than risk
		// promoting past it.
		n.electDefer++
		n.logf("failover: %d peer(s) unreachable but not confirmed down; deferring election (%d/%d)",
			unknown, n.electDefer, electPatience)
		return
	}

	// No reachable primary: stand for election against the reachable
	// replicas. Highest applied sequence wins — it holds every write any
	// semi-sync ack ever covered — with the smaller address breaking
	// ties deterministically.
	myApplied := n.cfg.Store.CurrentSeq()
	for i := range views {
		v := &views[i]
		if v.err != nil || v.topo.Role != RoleReplica {
			continue
		}
		peerApplied := v.topo.AppliedSeq
		peerAddr := v.topo.Self
		if peerAddr == "" {
			peerAddr = v.addr
		}
		if peerApplied > myApplied || (peerApplied == myApplied && peerAddr < n.cfg.Self) {
			n.logf("failover: deferring to %s (applied %d vs ours %d)", peerAddr, peerApplied, myApplied)
			n.electDefer = 0
			return
		}
	}
	n.electDefer = 0
	n.promote(maxEpoch + 1)
}

// startReplica builds this node's replica client against primary.
func (n *Node) startReplica(primary string) (*ReplicaClient, error) {
	lease := n.cfg.LeaseInterval
	rc, err := NewReplicaClient(ReplicaConfig{
		Primary:    primary,
		Store:      n.cfg.Store,
		MinBackoff: lease / 8,
		MaxBackoff: lease,
		// A read timeout past the election threshold would leave a dead
		// connection pinning a stale LastContact; 2 leases lines the two
		// detectors up.
		ReadTimeout: 2 * lease,
		OnReset:     n.cfg.OnReset,
		Logf:        n.cfg.Logf,
	})
	if err != nil {
		return nil, err
	}
	n.cfg.Server.SetReplicaStatus(rc)
	return rc, nil
}

// follow (re)points the node at a leader as its replica.
func (n *Node) follow(leader string, epoch uint64) {
	n.mu.Lock()
	if n.rundown {
		n.mu.Unlock()
		return
	}
	old := n.rc
	n.rc = nil
	n.leader = leader
	if epoch > n.epoch {
		n.epoch = epoch
	}
	n.mu.Unlock()
	if old != nil {
		old.Stop()
	}
	n.cfg.Server.SetLeaderHint(leader)
	rc, err := n.startReplica(leader)
	if err != nil {
		n.logf("failover: cannot follow %s: %v", leader, err)
		return
	}
	n.mu.Lock()
	if n.rundown {
		n.mu.Unlock()
		rc.Stop()
		return
	}
	n.rc = rc
	n.mu.Unlock()
}

// promote makes this node the primary at epoch. The fresh in-memory
// ReplLog re-mints nothing: the store's sequence counter continues from
// the applied watermark, and the fresh run ID forces every follower
// through a full resync against this incarnation.
func (n *Node) promote(epoch uint64) {
	n.mu.Lock()
	if n.rundown || n.role == RolePrimary {
		n.mu.Unlock()
		return
	}
	old := n.rc
	n.rc = nil
	n.mu.Unlock()
	if old != nil {
		old.Stop()
	}

	n.logf("failover: promoting self (%s) to primary at epoch %d", n.cfg.Self, epoch)
	rl := ttkv.NewReplLog(nil)
	rl.SetEpoch(epoch)
	if err := n.cfg.Store.AttachReplLog(rl); err != nil {
		n.logf("failover: promotion failed attaching log: %v", err)
		return
	}
	srv := n.cfg.Server
	srv.EnableReplication(rl, n.cfg.Replication)
	srv.SetSemiSync(n.cfg.SemiSync)
	srv.SetLeaderHint("")
	srv.SetReadOnly(false)

	n.mu.Lock()
	n.role = RolePrimary
	n.epoch = epoch
	n.rl = rl
	n.leader = n.cfg.Self
	n.mu.Unlock()
}

// demote fences this node out of the primary role and rejoins as leader's
// replica: writes are rejected (with a redirect) before the feeds are
// torn down, the persistence sink is detached so the incoming full
// resync may reset the store, and the AOF appender — if this was the
// original durable primary — is retired for good (see
// NodeConfig.GroupCommit).
func (n *Node) demote(leader string, epoch uint64) {
	n.mu.Lock()
	if n.rundown || n.role == RoleReplica {
		n.mu.Unlock()
		return
	}
	n.role = RoleReplica
	n.rl = nil
	n.leader = leader
	if epoch > n.epoch {
		n.epoch = epoch
	}
	gc := n.gc
	n.gc = nil
	n.mu.Unlock()

	srv := n.cfg.Server
	srv.SetReadOnly(true)
	srv.SetLeaderHint(leader)
	srv.DisableReplication()
	if err := n.cfg.Store.AttachReplLog(nil); err != nil {
		n.logf("failover: demotion failed detaching log: %v", err)
	}
	if gc != nil {
		if err := gc.Close(); err != nil {
			n.logf("failover: closing AOF appender on demotion: %v", err)
		}
	}
	rc, err := n.startReplica(leader)
	if err != nil {
		n.logf("failover: demoted but cannot follow %s: %v", leader, err)
		return
	}
	n.mu.Lock()
	if n.rundown {
		n.mu.Unlock()
		rc.Stop()
		return
	}
	n.rc = rc
	n.mu.Unlock()
}
