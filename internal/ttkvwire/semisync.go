package ttkvwire

import (
	"context"
	"fmt"
	"strconv"
	"time"
)

// SemiSyncConfig tunes the primary's semi-synchronous replication gate:
// with Acks = K > 0, a mutating command's success reply is withheld until
// K connected replicas have acknowledged applying a sequence at or past
// the write. The write is always applied locally first; semi-sync bounds
// acknowledged-write loss on failover (a promotion picks the highest
// applied replica, which necessarily holds every K>=1-acked write), it
// does not
// make writes transactional across the cluster.
type SemiSyncConfig struct {
	// Acks is the number of replica acknowledgements required before a
	// write is acknowledged to the client. 0 disables the gate
	// (asynchronous replication, the default).
	Acks int
	// Timeout bounds the wait; on expiry the client receives a RETRY
	// error (ErrRetryable) meaning "applied locally, replication
	// unconfirmed" — the caller may retry (writes are idempotent per
	// (key, timestamp)) or treat the write as at-risk. Default 2s.
	Timeout time.Duration
}

// SetSemiSync sets the server-wide semi-sync default. Individual
// connections may raise (never lower) the ack requirement with the
// SEMISYNC command. Safe at any time.
func (s *Server) SetSemiSync(cfg SemiSyncConfig) {
	s.mu.Lock()
	s.semiSync = cfg
	s.mu.Unlock()
}

// cmdSemiSync serves SEMISYNC <acks>: a per-connection ack requirement
// for subsequent writes on this connection. The effective requirement is
// max(server default, connection value), so a connection can strengthen
// but never weaken the operator's configured floor.
func (s *Server) cmdSemiSync(cs *connState, args []string) Value {
	k, err := strconv.Atoi(args[0])
	if err != nil || k < 0 {
		return errValue("ERR bad acks count: " + args[0])
	}
	cs.semiAcks = k
	return simple("OK")
}

// semiSyncGate enforces the effective ack requirement after a successful
// mutating command. ok=true passes the write's success reply through;
// ok=false replaces it with the returned RETRY error value.
func (s *Server) semiSyncGate(cs *connState) (retry Value, ok bool) {
	s.mu.Lock()
	cfg := s.semiSync
	rl := s.replLog
	s.mu.Unlock()
	k := cfg.Acks
	if cs.semiAcks > k {
		k = cs.semiAcks
	}
	if k <= 0 {
		return Value{}, true
	}
	if rl == nil {
		// The write already applied; failing it as retryable tells the
		// client this node cannot currently guarantee replication (e.g.
		// mid-failover) without lying about durability.
		return retryReply("semi-sync unavailable: node is not a replicating primary"), false
	}
	timeout := cfg.Timeout
	if timeout <= 0 {
		timeout = 2 * time.Second
	}
	// Wait on the write's own minted sequence, threaded through the apply
	// path — not the store-wide watermark, which concurrent writers
	// inflate: gating on CurrentSeq makes one slow replica fail every
	// in-flight write on a busy primary with spurious RETRYs. Writes that
	// don't mint (RFIX) fall back to the watermark, which is conservative
	// but never premature.
	seq := cs.lastWriteSeq
	if seq == 0 {
		seq = s.store.CurrentSeq()
	}
	// A replica can only ack what the feed has shipped, and the feed ships
	// only committed records: have the log commit this write now (per fsync
	// policy) instead of leaving it to the flush timer.
	rl.Demand(seq)
	if s.waitForAcks(seq, k, timeout) {
		return Value{}, true
	}
	return retryReply(fmt.Sprintf(
		"semi-sync: %d replica ack(s) for seq %d not received within %v; write applied locally but unacknowledged",
		k, seq, timeout)), false
}

// waitForAcks blocks until k replica sessions have acknowledged applying
// seq or beyond, or timeout elapses.
func (s *Server) waitForAcks(seq uint64, k int, timeout time.Duration) bool {
	deadline := time.NewTimer(timeout)
	defer deadline.Stop()
	for {
		// Capture the wake channel before counting: an ack that lands after
		// the count closes this channel, so it cannot be missed, and each
		// wake-up costs one count.
		s.ackMu.Lock()
		if s.ackWake == nil {
			s.ackWake = make(chan struct{})
		}
		wake := s.ackWake
		s.ackMu.Unlock()
		if s.ackedReplicas(seq) >= k {
			return true
		}
		select {
		case <-wake:
		case <-deadline.C:
			return false
		}
	}
}

// ackedReplicas counts distinct physical replicas whose acknowledged
// watermark has reached seq. Sessions are deduplicated by the replica
// run ID sent in the SYNC handshake: a replica reconnecting before its
// stale feed is reaped would otherwise count twice and satisfy K=2
// alone. Sessions without an ID (legacy handshake) count individually;
// observer sessions (analytics drainers) never count as replicas.
func (s *Server) ackedReplicas(seq uint64) int {
	n := 0
	var seen map[string]struct{}
	s.mu.Lock()
	for sess := range s.replSessions {
		if sess.replicaID == replObserverID {
			continue
		}
		if sess.ackedSeq.Load() < seq {
			continue
		}
		if sess.replicaID == "" {
			n++
			continue
		}
		if seen == nil {
			seen = make(map[string]struct{}, len(s.replSessions))
		}
		if _, dup := seen[sess.replicaID]; dup {
			continue
		}
		seen[sess.replicaID] = struct{}{}
		n++
	}
	s.mu.Unlock()
	return n
}

// noteReplicaAck wakes every waitForAcks waiter to re-count; called by
// each feed's ack reader after storing a new watermark.
func (s *Server) noteReplicaAck() {
	s.ackMu.Lock()
	if s.ackWake != nil {
		close(s.ackWake)
		s.ackWake = nil
	}
	s.ackMu.Unlock()
}

// SemiSync sets this connection's semi-sync ack requirement: subsequent
// writes on the connection wait for k replica acknowledgements (see
// SemiSyncConfig). k can only strengthen the server's configured default.
func (c *Client) SemiSync(k int) error {
	return c.SemiSyncContext(context.Background(), k)
}

// SemiSyncContext sets this connection's semi-sync ack requirement.
func (c *Client) SemiSyncContext(ctx context.Context, k int) error {
	if k < 0 {
		return fmt.Errorf("ttkvwire: semi-sync acks must be >= 0, got %d", k)
	}
	v, err := c.roundTrip(ctx, "SEMISYNC", strconv.Itoa(k))
	if err != nil {
		return err
	}
	if v.Kind != KindSimple || v.Str != "OK" {
		return fmt.Errorf("%w: unexpected SEMISYNC reply %+v", ErrProtocol, v)
	}
	return nil
}
