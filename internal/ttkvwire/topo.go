package ttkvwire

import (
	"context"
	"fmt"
	"strconv"
)

// Topology roles reported by the TOPO command.
const (
	RolePrimary = "primary"
	RoleReplica = "replica"
	RoleNone    = "none"
)

// Topology is a node's view of the cluster, served by the TOPO command.
// Clients use it to find the leader after a redirect and to detect
// promotions (a higher Epoch on any node supersedes everything a client
// learned at a lower epoch).
type Topology struct {
	// Role is RolePrimary, RoleReplica, or RoleNone.
	Role string
	// Epoch is the fencing term of the primary incarnation this node
	// belongs to (0 when failover is not in use). Strictly increases
	// across promotions.
	Epoch uint64
	// RunID is the primary incarnation's run ID (empty on non-primaries
	// that have never synced).
	RunID string
	// Self is this node's client-reachable address, as configured.
	Self string
	// Leader is where writes go: the node itself for a primary, its
	// last-known primary for a replica, empty when unknown.
	Leader string
	// AppliedSeq is the newest sequence applied to the node's store;
	// DurableSeq the newest durable (shippable) one. On a replica both
	// report the applied watermark.
	AppliedSeq uint64
	DurableSeq uint64
	// Peers lists the other cluster members' addresses, when the node was
	// started with a peer set (failover mode).
	Peers []string
	// SlotCount is the hash-slot space size when the node runs in cluster
	// (multi-primary) mode, 0 otherwise. See KeySlot.
	SlotCount int
	// SlotRanges is the node's slot map: its own ranges (Addr = where its
	// writes go, i.e. Leader) plus every peer range it knows an owner for.
	SlotRanges []SlotRange
}

// SetAdvertise records the address this node tells clients and peers to
// reach it at (the TOPO Self field and the basis for MOVED redirects from
// peers). Safe at any time.
func (s *Server) SetAdvertise(addr string) {
	s.mu.Lock()
	s.advertise = addr
	s.mu.Unlock()
}

// Advertise returns the address set by SetAdvertise.
func (s *Server) Advertise() string {
	s.mu.Lock()
	defer s.mu.Unlock()
	return s.advertise
}

// SetLeaderHint records where MOVED redirects point while this node is
// read-only. An empty hint downgrades rejections to bare READONLY. Safe
// at any time; failover updates it on every role change.
func (s *Server) SetLeaderHint(addr string) {
	s.mu.Lock()
	s.leaderHint = addr
	s.mu.Unlock()
}

// LeaderHint returns the current MOVED redirect target.
func (s *Server) LeaderHint() string {
	s.mu.Lock()
	defer s.mu.Unlock()
	return s.leaderHint
}

// SetTopologySource installs fn as the authoritative answer to TOPO. A
// failover Node installs itself here so TOPO reflects its epoch and peer
// set; without a source the server synthesizes a best-effort topology
// from its replication role. Pass nil to revert to synthesis.
func (s *Server) SetTopologySource(fn func() Topology) {
	s.mu.Lock()
	s.topoSource = fn
	s.mu.Unlock()
}

// currentTopology resolves the node's topology: the installed source if
// any, else a synthesis from the replication role state.
func (s *Server) currentTopology() Topology {
	s.mu.Lock()
	topoFn := s.topoSource
	rl := s.replLog
	runID := s.runID
	stat := s.replicaStat
	leader := s.leaderHint
	self := s.advertise
	s.mu.Unlock()
	if topoFn != nil {
		return topoFn()
	}
	t := Topology{Role: RoleNone, Self: self, Leader: leader}
	t.AppliedSeq = s.store.CurrentSeq()
	t.DurableSeq = t.AppliedSeq
	switch {
	case stat != nil:
		st := stat.ReplicaStatus()
		t.Role = RoleReplica
		t.Epoch = st.Epoch
		t.RunID = st.RunID
		if t.Leader == "" {
			t.Leader = st.Primary
		}
	case rl != nil:
		t.Role = RolePrimary
		t.Epoch = rl.Epoch()
		t.RunID = runID
		t.DurableSeq = rl.DurableSeq()
		if t.Leader == "" {
			t.Leader = self
		}
	}
	return t
}

// cmdTopo serves TOPO: the node's cluster view.
//
//	*8  $role, $epoch, $runid, $self, $leader, $appliedSeq, $durableSeq,
//	    *N peer addresses
//
// In hash-slot cluster mode two elements are appended (clients accept
// either form):
//
//	*10 ..., $slotCount, *M "lo-hi=addr" slot ranges
func (s *Server) cmdTopo(_ *connState, _ []string) Value {
	t := s.currentTopology()
	peers := make([]Value, len(t.Peers))
	for i, p := range t.Peers {
		peers[i] = bulk(p)
	}
	els := []Value{
		bulk(t.Role), bulkInt(int64(t.Epoch)), bulk(t.RunID), bulk(t.Self),
		bulk(t.Leader), bulkInt(int64(t.AppliedSeq)), bulkInt(int64(t.DurableSeq)),
		array(peers...),
	}
	if cl := s.cluster.Load(); cl != nil {
		ranges := cl.ranges(t.Leader)
		rv := make([]Value, len(ranges))
		for i, r := range ranges {
			rv[i] = bulk(r.String())
		}
		els = append(els, bulkInt(int64(cl.slots)), array(rv...))
	}
	return array(els...)
}

// Topology fetches the server's cluster view.
func (c *Client) Topology() (Topology, error) {
	return c.TopologyContext(context.Background())
}

// TopologyContext fetches the server's cluster view.
func (c *Client) TopologyContext(ctx context.Context) (Topology, error) {
	v, err := c.roundTrip(ctx, "TOPO")
	if err != nil {
		return Topology{}, err
	}
	bad := func() (Topology, error) {
		return Topology{}, fmt.Errorf("%w: unexpected TOPO reply %+v", ErrProtocol, v)
	}
	if v.Kind != KindArray || (len(v.Array) != 8 && len(v.Array) != 10) {
		return bad()
	}
	for _, i := range []int{0, 2, 3, 4} {
		if v.Array[i].Kind != KindBulk {
			return bad()
		}
	}
	var nums [3]uint64
	for i, idx := range []int{1, 5, 6} {
		el := v.Array[idx]
		n, err := strconv.ParseUint(el.Str, 10, 64)
		if el.Kind != KindBulk || err != nil {
			return bad()
		}
		nums[i] = n
	}
	if v.Array[7].Kind != KindArray {
		return bad()
	}
	t := Topology{
		Role:       v.Array[0].Str,
		Epoch:      nums[0],
		RunID:      v.Array[2].Str,
		Self:       v.Array[3].Str,
		Leader:     v.Array[4].Str,
		AppliedSeq: nums[1],
		DurableSeq: nums[2],
	}
	for _, el := range v.Array[7].Array {
		if el.Kind != KindBulk {
			return bad()
		}
		t.Peers = append(t.Peers, el.Str)
	}
	if len(v.Array) == 10 {
		slots, err := strconv.Atoi(v.Array[8].Str)
		if v.Array[8].Kind != KindBulk || err != nil || slots <= 0 {
			return bad()
		}
		if v.Array[9].Kind != KindArray {
			return bad()
		}
		t.SlotCount = slots
		for _, el := range v.Array[9].Array {
			if el.Kind != KindBulk {
				return bad()
			}
			r, err := parseSlotRangeToken(el.Str, slots)
			if err != nil {
				return Topology{}, fmt.Errorf("%w: TOPO slot range %q: %v", ErrProtocol, el.Str, err)
			}
			t.SlotRanges = append(t.SlotRanges, r)
		}
	}
	return t, nil
}
