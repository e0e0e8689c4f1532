package ttkvwire

import (
	"bufio"
	"crypto/rand"
	"encoding/hex"
	"fmt"
	"net"
	"strconv"
	"sync/atomic"
	"time"

	"ocasta/internal/ttkv"
)

// ReplicationConfig tunes the primary side of replication. Zero values
// select the defaults noted per field.
type ReplicationConfig struct {
	// OutboxBytes bounds each replica's outbox backlog; a replica that
	// falls further behind is disconnected and must reconnect (it resumes
	// from its last applied sequence). Default ttkv.DefaultOutboxBytes.
	OutboxBytes int
	// HeartbeatInterval is how often an idle feed sends its durable
	// watermark, letting replicas measure lag and detect a dead primary.
	// Default 500ms.
	HeartbeatInterval time.Duration
	// WriteTimeout bounds each frame write so a wedged replica socket
	// cannot hang the feed goroutine forever. Default 30s.
	WriteTimeout time.Duration
	// Segments, when the store's history is kept in a segmented log fed
	// by the same ReplLog, lets SYNC's snapshot phase read catch-up
	// ranges from the covering segment files (O(covering segments))
	// instead of scanning the whole keyspace per window. Ranges the
	// files cannot serve fall back to Store.ReplSnapshot transparently.
	Segments *ttkv.SegmentedAOF
}

func (c ReplicationConfig) withDefaults() ReplicationConfig {
	if c.OutboxBytes <= 0 {
		c.OutboxBytes = ttkv.DefaultOutboxBytes
	}
	if c.HeartbeatInterval <= 0 {
		c.HeartbeatInterval = 500 * time.Millisecond
	}
	if c.WriteTimeout <= 0 {
		c.WriteTimeout = 30 * time.Second
	}
	return c
}

// snapshotRange reads one snapshot window for SYNC: from the segment
// files when configured and they cover the range, otherwise from the
// store's lock-free keyspace scan. The two sources are equivalent
// record-for-record (the segmented log is fed by the same ReplLog that
// minted the sequence numbers); the segment read just avoids rescanning
// the entire store for every window of a large resync.
func (s *Server) snapshotRange(cfg ReplicationConfig, lo, hi uint64) []ttkv.ReplRecord {
	if cfg.Segments != nil {
		if recs, err := cfg.Segments.RangeRecords(lo, hi); err == nil {
			return recs
		}
	}
	return s.store.ReplSnapshot(lo, hi)
}

// EnableReplication makes the server a replication primary: SYNC streams
// a snapshot plus a live committed-record tail to each replica, and
// REPLSTAT reports per-replica progress. rl must be attached to the
// served store (Store.AttachReplLog). Safe at any time — failover
// promotes live servers — and also clears any replica status source from
// a previous replica role.
//
// The run ID identifies this primary incarnation: a replica that last
// synced with a different incarnation cannot trust its local prefix (a
// restarted primary may have re-minted sequence numbers differently) and
// is told to full-resync from scratch.
func (s *Server) EnableReplication(rl *ttkv.ReplLog, cfg ReplicationConfig) {
	s.mu.Lock()
	s.replLog = rl
	s.replCfg = cfg.withDefaults()
	s.runID = newRunID()
	s.replicaStat = nil
	s.mu.Unlock()
}

// DisableReplication ends the primary role: SYNC is refused and every
// connected replica feed is torn down (the replicas reconnect elsewhere
// per their own configuration). Used on demotion, before the node starts
// replicating from the new leader.
func (s *Server) DisableReplication() {
	s.mu.Lock()
	s.replLog = nil
	s.runID = ""
	sessions := make([]*replSession, 0, len(s.replSessions))
	for sess := range s.replSessions {
		sessions = append(sessions, sess)
	}
	s.mu.Unlock()
	for _, sess := range sessions {
		// Closing the outbox wakes the feed's writer loop, which closes
		// the connection and unregisters the session.
		sess.sub.Close()
	}
}

// replState snapshots the primary-role state for one handshake or status
// reply; rl is nil when replication is not (or no longer) enabled.
func (s *Server) replState() (rl *ttkv.ReplLog, cfg ReplicationConfig, runID string) {
	s.mu.Lock()
	defer s.mu.Unlock()
	return s.replLog, s.replCfg, s.runID
}

// SetReadOnly makes the server reject the commands marked write in
// commandTable with a typed READONLY/MOVED error: the replica role. Reads,
// history, analytics (CLUSTERS/CORR), and repair diagnosis stay local;
// only the fix must be applied on the primary. Safe at any time —
// failover flips it on promotion and demotion.
func (s *Server) SetReadOnly(ro bool) { s.readOnly.Store(ro) }

// ReadOnly reports whether mutating commands are currently rejected.
func (s *Server) ReadOnly() bool { return s.readOnly.Load() }

// ReplicaStatusSource is how the serving layer asks the replication
// client for its live state; *ReplicaClient implements it.
type ReplicaStatusSource interface{ ReplicaStatus() ReplicaStatus }

// SetReplicaStatus wires a replica's sync client into REPLSTAT. Safe at
// any time; pass nil to clear (promotion does, via EnableReplication).
func (s *Server) SetReplicaStatus(src ReplicaStatusSource) {
	s.mu.Lock()
	s.replicaStat = src
	s.mu.Unlock()
}

// newRunID returns a random 16-hex-digit primary incarnation ID.
func newRunID() string {
	var b [8]byte
	if _, err := rand.Read(b[:]); err != nil {
		// Fall back to the clock; uniqueness across restarts is what
		// matters, not unpredictability.
		return strconv.FormatInt(time.Now().UnixNano(), 16)
	}
	return hex.EncodeToString(b[:])
}

// replObserverID is the replica ID sentinel an observer session (e.g. an
// analytics drainer) sends in its SYNC handshake: it receives the stream
// but is never counted as a replica by the semi-sync gate.
const replObserverID = "-"

// replSession is one live replica feed, tracked for REPLSTAT.
type replSession struct {
	addr string
	sub  *ttkv.ReplSub
	// replicaID is the physical replica's persistent run ID from the SYNC
	// handshake ("" on the legacy 2-arg handshake, replObserverID for
	// observers). The semi-sync gate dedupes sessions by it.
	replicaID string
	// snapshotting flips to 0 once the handshake snapshot has streamed.
	snapshotting atomic.Bool
	sentSeq      atomic.Uint64
	ackedSeq     atomic.Uint64
}

func (s *Server) addReplSession(sess *replSession) {
	s.mu.Lock()
	if s.replSessions == nil {
		s.replSessions = make(map[*replSession]struct{})
	}
	s.replSessions[sess] = struct{}{}
	s.mu.Unlock()
}

func (s *Server) removeReplSession(sess *replSession) {
	s.mu.Lock()
	delete(s.replSessions, sess)
	s.mu.Unlock()
}

// cmdSync serves SYNC afterSeq runid [replicaid]. A successful handshake
// takes the connection over as a push stream and only returns when the
// feed ends (replica gone, outbox overflow, or server shutdown), marking
// the connection detached: it has left the request/response protocol and
// must be closed. A refused handshake is an ordinary error reply and the
// connection goes on serving requests.
func (s *Server) cmdSync(cs *connState, args []string) Value {
	rl, cfg, runID := s.replState()
	if rl == nil {
		return errValue(needReplication.refuse) // demoted since the gate ran
	}
	afterSeq, err := strconv.ParseUint(args[0], 10, 64)
	if err != nil {
		return errValue("ERR bad afterSeq: " + args[0])
	}
	replicaID := ""
	if len(args) == 3 {
		replicaID = args[2]
	}
	resume := args[1] == runID
	if !resume {
		// Unknown or stale incarnation: the replica's local prefix cannot
		// be trusted; it must reset and take everything from scratch.
		afterSeq = 0
	}

	// Registering the outbox fixes the snapshot/tail boundary: everything
	// at or below `from` is committed and visible in the store (shipped as
	// a snapshot below); everything above arrives through the outbox.
	sub, from := rl.Subscribe(cfg.OutboxBytes)
	if afterSeq > from {
		sub.Close()
		return errValue(fmt.Sprintf("ERR replica ahead of primary (afterSeq %d > durable %d)", afterSeq, from))
	}
	cs.detached = true
	conn, br, bw := cs.conn, cs.br, cs.bw
	status := "CONTINUE"
	if !resume {
		status = "FULLRESYNC"
	}
	// The trailing epoch is the failover fencing term; pre-failover
	// replicas ignore unknown trailing fields.
	if err := WriteValue(bw, simple(fmt.Sprintf("%s %s %d %d", status, runID, from, rl.Epoch()))); err != nil {
		sub.Close()
		return Value{}
	}
	if err := bw.Flush(); err != nil {
		sub.Close()
		return Value{}
	}

	sess := &replSession{addr: conn.RemoteAddr().String(), sub: sub, replicaID: replicaID}
	sess.snapshotting.Store(true)
	sess.ackedSeq.Store(afterSeq)
	sess.sentSeq.Store(afterSeq)
	s.addReplSession(sess)

	// The ack reader owns the inbound half: replicas push 'A' frames with
	// their applied watermark. Any read error (replica died, server
	// closing the conn) tears the feed down by closing the outbox, which
	// wakes the writer loop below.
	ackDone := make(chan struct{})
	go func() {
		defer close(ackDone)
		defer sub.Close()
		for {
			kind, _, seq, err := readReplFrame(br)
			if err != nil || kind != replFrameAck {
				return
			}
			sess.ackedSeq.Store(seq)
			s.noteReplicaAck() // wake semi-sync waiters to re-count
		}
	}()

	s.streamFeed(conn, bw, rl, cfg, sub, sess, afterSeq, from)

	s.removeReplSession(sess)
	sub.Close()
	conn.Close() // unblocks the ack reader if it has not errored yet
	<-ackDone
	return Value{}
}

// streamFeed ships the snapshot range (afterSeq, from] and then the live
// outbox tail until the feed dies.
func (s *Server) streamFeed(conn net.Conn, bw *bufio.Writer, rl *ttkv.ReplLog, cfg ReplicationConfig, sub *ttkv.ReplSub, sess *replSession, afterSeq, from uint64) {
	// buf is the feed's one frame-assembly buffer, reused by every snapshot
	// and live-tail frame (it grows to replFrameChunk, or to the largest
	// single record, and stays there).
	var buf []byte
	writeFrames := func(payloads [][]byte) error {
		conn.SetWriteDeadline(time.Now().Add(cfg.WriteTimeout))
		buf = buf[:0]
		for _, p := range payloads {
			if len(buf) > 0 && len(buf)+len(p) > replFrameChunk {
				if err := writeReplData(bw, buf); err != nil {
					return err
				}
				buf = buf[:0]
			}
			buf = append(buf, p...)
		}
		if len(buf) > 0 {
			if err := writeReplData(bw, buf); err != nil {
				return err
			}
		}
		return bw.Flush()
	}

	// Snapshot phase: the committed range the outbox will not deliver,
	// streamed in bounded sequence windows so a full-history resync never
	// materializes the whole store at once per syncing replica (each
	// window holds at most snapSeqWindow record headers — values are
	// string references, not copies; ranges are disjoint and ascending,
	// so global sequence order is preserved). Each window costs one
	// store scan, so resync is O(versions x windows); the window is
	// sized large enough that even a multi-gigabyte history needs only a
	// handful of scans. A heartbeat precedes each scan so a replica's
	// read deadline survives scan-induced gaps between frames. Snapshot
	// records carry no atomic-batch flags: catch-up replays history in
	// record order, exactly as a primary AOF replay does — the live-tail
	// boundary itself is batch-aligned (see ReplLog.appendSeqBatch), so a
	// revert in flight at resume time is never split across it.
	const snapSeqWindow = 1 << 20
	for lo := afterSeq; lo < from; {
		hi := lo + snapSeqWindow
		if hi > from || hi < lo { // second test: uint64 wrap safety
			hi = from
		}
		conn.SetWriteDeadline(time.Now().Add(cfg.WriteTimeout))
		if err := writeReplSeq(bw, replFrameHeartbeat, from); err != nil {
			return
		}
		if err := bw.Flush(); err != nil {
			return
		}
		snap := s.snapshotRange(cfg, lo, hi)
		lo = hi
		for i := range snap {
			buf = ttkv.AppendReplRecord(buf, snap[i])
			if len(buf) >= replFrameChunk || i == len(snap)-1 {
				conn.SetWriteDeadline(time.Now().Add(cfg.WriteTimeout))
				if err := writeReplData(bw, buf); err != nil {
					return
				}
				if err := bw.Flush(); err != nil {
					return
				}
				buf = buf[:0]
			}
		}
	}
	sess.sentSeq.Store(from)
	sess.snapshotting.Store(false)

	// Live tail: committed records as the outbox delivers them, a
	// heartbeat with the durable watermark when idle.
	for {
		data, lastSeq, err := sub.Next(cfg.HeartbeatInterval)
		if err != nil {
			return
		}
		if data == nil {
			conn.SetWriteDeadline(time.Now().Add(cfg.WriteTimeout))
			if err := writeReplSeq(bw, replFrameHeartbeat, rl.DurableSeq()); err != nil {
				return
			}
			if err := bw.Flush(); err != nil {
				return
			}
			continue
		}
		if err := writeFrames(data); err != nil {
			return
		}
		sess.sentSeq.Store(lastSeq)
	}
}

// cmdReplStat serves REPLSTAT: the node's replication role and progress.
//
//	role "none":    *2  $none, :currentSeq
//	role "primary": *5+N $primary, $runid, :appendedSeq, :durableSeq,
//	                per replica *6: $addr, $state, :acked, :sent, :lagRecords, :lagBytes
//	role "replica": *7  $replica, $primaryAddr, $state, :appliedSeq,
//	                :primaryDurableSeq, :lagRecords, :reconnects
func (s *Server) cmdReplStat(_ *connState, args []string) Value {
	s.mu.Lock()
	stat := s.replicaStat
	s.mu.Unlock()
	if stat != nil {
		st := stat.ReplicaStatus()
		lag := int64(0)
		if st.PrimarySeq > st.AppliedSeq {
			lag = int64(st.PrimarySeq - st.AppliedSeq)
		}
		return array(
			bulk("replica"), bulk(st.Primary), bulk(st.State),
			bulkInt(int64(st.AppliedSeq)), bulkInt(int64(st.PrimarySeq)),
			bulkInt(lag), bulkInt(int64(st.Reconnects)),
		)
	}
	rl, _, runID := s.replState()
	if rl == nil {
		return array(bulk("none"), bulkInt(int64(s.store.CurrentSeq())))
	}
	durable := rl.DurableSeq()
	out := []Value{
		bulk("primary"), bulk(runID),
		bulkInt(int64(rl.AppendedSeq())), bulkInt(int64(durable)),
	}
	s.mu.Lock()
	sessions := make([]*replSession, 0, len(s.replSessions))
	for sess := range s.replSessions {
		sessions = append(sessions, sess)
	}
	s.mu.Unlock()
	for _, sess := range sessions {
		state := "streaming"
		if sess.snapshotting.Load() {
			state = "snapshot"
		}
		acked := sess.ackedSeq.Load()
		lag := int64(0)
		if durable > acked {
			lag = int64(durable - acked)
		}
		out = append(out, array(
			bulk(sess.addr), bulk(state),
			bulkInt(int64(acked)), bulkInt(int64(sess.sentSeq.Load())),
			bulkInt(lag), bulkInt(int64(sess.sub.QueuedBytes())),
		))
	}
	return array(out...)
}
