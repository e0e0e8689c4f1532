package ttkvwire

import (
	"bufio"
	"context"
	"errors"
	"fmt"
	"net"
	"strconv"
	"strings"
	"sync"
	"time"

	"ocasta/internal/ttkv"
)

// ErrReplicaStopped is returned by NewReplicaClient config validation and is
// the terminal state reason after Stop.
var ErrReplicaStopped = errors.New("ttkvwire: replica client stopped")

// ReplicaConfig configures a replica's sync client.
type ReplicaConfig struct {
	// Primary is the primary's host:port.
	Primary string
	// Store is the local store the stream applies to. It must not have a
	// persistence sink attached: the replica replays the primary's records
	// verbatim (same sequence numbers) and never re-logs them.
	Store *ttkv.Store
	// MinBackoff/MaxBackoff bound the reconnect backoff (defaults
	// 100ms / 5s). Backoff doubles per consecutive failure and resets
	// once a connection syncs successfully.
	MinBackoff, MaxBackoff time.Duration
	// ReadTimeout bounds each frame read; the primary heartbeats every
	// ReplicationConfig.HeartbeatInterval, so a silent connection longer
	// than this is declared dead. Default 15s.
	ReadTimeout time.Duration
	// OnReset, when set, is called after the local store has been reset
	// for a full resync (the primary is a new incarnation). A replica
	// serving live analytics resets its engine here, so the replayed
	// snapshot is not double-counted.
	OnReset func()
	// Logf, when set, receives connection lifecycle messages.
	Logf func(format string, args ...any)
}

func (c ReplicaConfig) withDefaults() ReplicaConfig {
	if c.MinBackoff <= 0 {
		c.MinBackoff = 100 * time.Millisecond
	}
	if c.MaxBackoff <= 0 {
		c.MaxBackoff = 5 * time.Second
	}
	if c.MaxBackoff < c.MinBackoff {
		c.MaxBackoff = c.MinBackoff
	}
	if c.ReadTimeout <= 0 {
		c.ReadTimeout = 15 * time.Second
	}
	return c
}

// Replica states reported by ReplicaStatus.
const (
	ReplicaConnecting = "connecting"
	ReplicaSyncing    = "syncing"
	ReplicaStreaming  = "streaming"
	ReplicaBackoff    = "backoff"
	ReplicaStopped    = "stopped"
)

// ReplicaStatus is a snapshot of a replica client's progress.
type ReplicaStatus struct {
	Primary    string
	State      string
	AppliedSeq uint64 // newest sequence applied to the local store
	PrimarySeq uint64 // newest durable sequence heard from the primary
	Reconnects int    // completed handshakes beyond the first attempt
	LastError  string
	RunID      string // primary incarnation last synced with
	Epoch      uint64 // primary's fencing epoch from the last handshake
}

// ReplicaClient maintains asynchronous replication from a primary into a
// local read-only store: it dials, SYNCs from its last applied sequence,
// applies the record stream (atomic batches applied atomically), acks
// progress, and reconnects with exponential backoff when the connection
// dies — resuming exactly where it stopped. Construct with NewReplicaClient;
// Stop tears it down.
type ReplicaClient struct {
	cfg ReplicaConfig
	// replicaID identifies this physical replica process across
	// reconnects; the primary's semi-sync gate dedupes sessions by it, so
	// a reconnect racing its stale feed never double-counts as two
	// replicas.
	replicaID string

	mu          sync.Mutex
	conn        net.Conn // live connection, for Stop to sever
	state       string
	applied     uint64
	primarySeq  uint64
	reconnects  int
	synced      int // successful handshakes, for backoff reset
	lastErr     string
	runID       string    // primary incarnation last synced with
	epoch       uint64    // primary's fencing epoch from the last handshake
	lastContact time.Time // last successful handshake or frame read

	stop chan struct{}
	done chan struct{}
}

// NewReplicaClient validates cfg and starts the replication loop.
func NewReplicaClient(cfg ReplicaConfig) (*ReplicaClient, error) {
	if cfg.Primary == "" {
		return nil, errors.New("ttkvwire: replica config needs a primary address")
	}
	if cfg.Store == nil {
		return nil, errors.New("ttkvwire: replica config needs a store")
	}
	rc := &ReplicaClient{
		cfg:       cfg.withDefaults(),
		replicaID: newRunID(),
		state:     ReplicaConnecting,
		applied:   cfg.Store.CurrentSeq(),
		// Seeding lastContact at start gives failure detection a full
		// lease interval of grace before a never-reached primary counts
		// as dead.
		lastContact: time.Now(),
		stop:        make(chan struct{}),
		done:        make(chan struct{}),
	}
	go rc.run()
	return rc, nil
}

// Stop severs the connection and stops reconnecting. It returns once the
// replication loop has fully exited; buffered but incomplete batches are
// discarded (they re-arrive on the next sync, the stream resumes from the
// last applied sequence).
func (rc *ReplicaClient) Stop() {
	rc.mu.Lock()
	select {
	case <-rc.stop:
	default:
		close(rc.stop)
	}
	if rc.conn != nil {
		rc.conn.Close()
	}
	rc.mu.Unlock()
	<-rc.done
	rc.mu.Lock()
	rc.state = ReplicaStopped
	rc.mu.Unlock()
}

// ReplicaStatus implements ReplicaStatusSource for REPLSTAT.
func (rc *ReplicaClient) ReplicaStatus() ReplicaStatus {
	rc.mu.Lock()
	defer rc.mu.Unlock()
	return ReplicaStatus{
		Primary:    rc.cfg.Primary,
		State:      rc.state,
		AppliedSeq: rc.applied,
		PrimarySeq: rc.primarySeq,
		Reconnects: rc.reconnects,
		LastError:  rc.lastErr,
		RunID:      rc.runID,
		Epoch:      rc.epoch,
	}
}

// AppliedSeq returns the newest sequence applied to the local store.
func (rc *ReplicaClient) AppliedSeq() uint64 {
	rc.mu.Lock()
	defer rc.mu.Unlock()
	return rc.applied
}

// PrimaryEpoch returns the primary's fencing epoch from the last
// completed handshake (zero before any, or against a pre-failover
// primary).
func (rc *ReplicaClient) PrimaryEpoch() uint64 {
	rc.mu.Lock()
	defer rc.mu.Unlock()
	return rc.epoch
}

// LastContact returns when the replica last heard from its primary: a
// completed handshake or any received frame (data or heartbeat). The
// failover lease check compares this against the lease interval; a
// primary silent past the lease is presumed dead.
func (rc *ReplicaClient) LastContact() time.Time {
	rc.mu.Lock()
	defer rc.mu.Unlock()
	return rc.lastContact
}

func (rc *ReplicaClient) logf(format string, args ...any) {
	if rc.cfg.Logf != nil {
		rc.cfg.Logf(format, args...)
	}
}

// run is the reconnect loop.
func (rc *ReplicaClient) run() {
	defer close(rc.done)
	backoff := rc.cfg.MinBackoff
	for {
		syncedBefore := rc.syncedCount()
		err := rc.syncOnce()
		select {
		case <-rc.stop:
			return
		default:
		}
		rc.mu.Lock()
		if err != nil {
			rc.lastErr = err.Error()
		}
		rc.state = ReplicaBackoff
		rc.mu.Unlock()
		rc.logf("replica: sync to %s ended: %v (retrying in %v)", rc.cfg.Primary, err, backoff)
		if rc.syncedCount() > syncedBefore {
			backoff = rc.cfg.MinBackoff // the last attempt reached streaming
		}
		select {
		case <-rc.stop:
			return
		case <-time.After(backoff):
		}
		backoff *= 2
		if backoff > rc.cfg.MaxBackoff {
			backoff = rc.cfg.MaxBackoff
		}
	}
}

func (rc *ReplicaClient) syncedCount() int {
	rc.mu.Lock()
	defer rc.mu.Unlock()
	return rc.synced
}

// syncOnce runs one connection lifetime: dial, handshake, apply frames
// until the stream dies.
func (rc *ReplicaClient) syncOnce() error {
	rc.mu.Lock()
	rc.state = ReplicaConnecting
	afterSeq := rc.applied
	runID := rc.runID
	rc.mu.Unlock()
	if runID == "" {
		runID = "?"
	}

	conn, err := net.DialTimeout("tcp", rc.cfg.Primary, 10*time.Second)
	if err != nil {
		return err
	}
	rc.mu.Lock()
	select {
	case <-rc.stop:
		rc.mu.Unlock()
		conn.Close()
		return ErrReplicaStopped
	default:
	}
	rc.conn = conn
	rc.mu.Unlock()
	defer func() {
		conn.Close()
		rc.mu.Lock()
		if rc.conn == conn {
			rc.conn = nil
		}
		rc.mu.Unlock()
	}()

	br := bufio.NewReader(conn)
	bw := bufio.NewWriter(conn)
	if err := writeCommand(bw, "SYNC", strconv.FormatUint(afterSeq, 10), runID, rc.replicaID); err != nil {
		return err
	}
	conn.SetReadDeadline(time.Now().Add(rc.cfg.ReadTimeout))
	reply, err := ReadValue(br)
	if err != nil {
		return err
	}
	if reply.Kind == KindError {
		return &RemoteError{Msg: reply.Str}
	}
	newRunID, from, epoch, full, err := parseSyncReply(reply)
	if err != nil {
		return err
	}
	if full {
		// New primary incarnation: the local prefix cannot be trusted.
		if rc.cfg.Store.CurrentSeq() > 0 {
			rc.logf("replica: full resync from %s (run %s): resetting local store", rc.cfg.Primary, newRunID)
			if err := rc.cfg.Store.Reset(); err != nil {
				return err
			}
			if rc.cfg.OnReset != nil {
				rc.cfg.OnReset()
			}
		}
		rc.mu.Lock()
		rc.applied = 0
		rc.mu.Unlock()
	}
	rc.mu.Lock()
	rc.runID = newRunID
	rc.epoch = epoch
	rc.primarySeq = from
	rc.lastContact = time.Now()
	// A resume that is already at the watermark has no snapshot phase to
	// apply; it is streaming from the first frame.
	if rc.applied >= from {
		rc.state = ReplicaStreaming
	} else {
		rc.state = ReplicaSyncing
	}
	rc.synced++
	if rc.synced > 1 {
		rc.reconnects++
	}
	rc.mu.Unlock()

	// Apply loop: each data frame's complete batches are applied as one
	// atomic chunk; a batch left open at the frame boundary waits for the
	// rest. Acks carry the applied watermark back after every frame.
	var pending []ttkv.ReplRecord
	for {
		conn.SetReadDeadline(time.Now().Add(rc.cfg.ReadTimeout))
		kind, payload, seq, err := readReplFrame(br)
		if err != nil {
			return err
		}
		rc.mu.Lock()
		rc.lastContact = time.Now()
		rc.mu.Unlock()
		switch kind {
		case replFrameHeartbeat:
			rc.mu.Lock()
			if seq > rc.primarySeq {
				rc.primarySeq = seq
			}
			rc.mu.Unlock()
		case replFrameData:
			for len(payload) > 0 {
				rec, n, err := ttkv.DecodeReplRecord(payload)
				if err != nil {
					return err
				}
				pending = append(pending, rec)
				payload = payload[n:]
			}
			// Complete batches = everything up to the last record not
			// flagged batch-open.
			cut := len(pending)
			for cut > 0 && pending[cut-1].BatchOpen {
				cut--
			}
			if cut == 0 {
				continue
			}
			chunk := pending[:cut]
			if err := rc.cfg.Store.ApplyReplicated(chunk); err != nil {
				return fmt.Errorf("applying replicated records: %w", err)
			}
			applied := chunk[len(chunk)-1].Seq
			pending = append(pending[:0], pending[cut:]...)
			rc.mu.Lock()
			rc.applied = applied
			if applied > rc.primarySeq {
				rc.primarySeq = applied
			}
			if applied >= from {
				rc.state = ReplicaStreaming
			}
			rc.mu.Unlock()
		default:
			return fmt.Errorf("%w: unexpected frame %q from primary", ErrProtocol, kind)
		}
		rc.mu.Lock()
		ackSeq := rc.applied
		rc.mu.Unlock()
		conn.SetWriteDeadline(time.Now().Add(rc.cfg.ReadTimeout))
		if err := writeReplSeq(bw, replFrameAck, ackSeq); err != nil {
			return err
		}
		if err := bw.Flush(); err != nil {
			return err
		}
	}
}

// parseSyncReply parses "FULLRESYNC <runid> <fromSeq> [epoch]" or
// "CONTINUE <runid> <fromSeq> [epoch]". The epoch field was added with
// failover; replies from pre-failover primaries omit it (epoch 0).
func parseSyncReply(v Value) (runID string, from, epoch uint64, full bool, err error) {
	if v.Kind != KindSimple {
		return "", 0, 0, false, fmt.Errorf("%w: unexpected SYNC reply %+v", ErrProtocol, v)
	}
	fields := strings.Fields(v.Str)
	if len(fields) < 3 || len(fields) > 4 || (fields[0] != "FULLRESYNC" && fields[0] != "CONTINUE") {
		return "", 0, 0, false, fmt.Errorf("%w: bad SYNC reply %q", ErrProtocol, v.Str)
	}
	from, err = strconv.ParseUint(fields[2], 10, 64)
	if err != nil {
		return "", 0, 0, false, fmt.Errorf("%w: bad SYNC watermark %q", ErrProtocol, fields[2])
	}
	if len(fields) == 4 {
		epoch, err = strconv.ParseUint(fields[3], 10, 64)
		if err != nil {
			return "", 0, 0, false, fmt.Errorf("%w: bad SYNC epoch %q", ErrProtocol, fields[3])
		}
	}
	return fields[1], from, epoch, fields[0] == "FULLRESYNC", nil
}

// ReplStatus is a parsed REPLSTAT reply.
type ReplStatus struct {
	// Role is "none", "primary", or "replica".
	Role string

	// Primary-role fields.
	RunID       string
	AppendedSeq uint64
	DurableSeq  uint64
	Replicas    []ReplicaLink

	// Replica-role fields.
	Primary    string
	State      string
	AppliedSeq uint64
	PrimarySeq uint64
	LagRecords uint64
	Reconnects int

	// CurrentSeq is set for role "none".
	CurrentSeq uint64
}

// ReplicaLink is one connected replica as the primary sees it.
type ReplicaLink struct {
	Addr       string
	State      string // "snapshot" or "streaming"
	AckedSeq   uint64
	SentSeq    uint64
	LagRecords uint64
	LagBytes   int64
}

// ReplStatus fetches the server's replication role and progress.
func (c *Client) ReplStatus() (ReplStatus, error) {
	return c.ReplStatusContext(context.Background())
}

// ReplStatusContext fetches the server's replication role and progress.
func (c *Client) ReplStatusContext(ctx context.Context) (ReplStatus, error) {
	v, err := c.roundTrip(ctx, "REPLSTAT")
	if err != nil {
		return ReplStatus{}, err
	}
	bad := func() (ReplStatus, error) {
		return ReplStatus{}, fmt.Errorf("%w: unexpected REPLSTAT reply %+v", ErrProtocol, v)
	}
	if v.Kind != KindArray || len(v.Array) < 2 || v.Array[0].Kind != KindBulk {
		return bad()
	}
	ints := func(els []Value) ([]uint64, bool) {
		out := make([]uint64, len(els))
		for i, el := range els {
			n, err := strconv.ParseUint(el.Str, 10, 64)
			if el.Kind != KindBulk || err != nil {
				return nil, false
			}
			out[i] = n
		}
		return out, true
	}
	st := ReplStatus{Role: v.Array[0].Str}
	switch st.Role {
	case "none":
		ns, ok := ints(v.Array[1:2])
		if !ok || len(v.Array) != 2 {
			return bad()
		}
		st.CurrentSeq = ns[0]
		return st, nil
	case "replica":
		if len(v.Array) != 7 || v.Array[1].Kind != KindBulk || v.Array[2].Kind != KindBulk {
			return bad()
		}
		ns, ok := ints(v.Array[3:7])
		if !ok {
			return bad()
		}
		st.Primary, st.State = v.Array[1].Str, v.Array[2].Str
		st.AppliedSeq, st.PrimarySeq, st.LagRecords, st.Reconnects = ns[0], ns[1], ns[2], int(ns[3])
		return st, nil
	case "primary":
		if len(v.Array) < 4 || v.Array[1].Kind != KindBulk {
			return bad()
		}
		ns, ok := ints(v.Array[2:4])
		if !ok {
			return bad()
		}
		st.RunID, st.AppendedSeq, st.DurableSeq = v.Array[1].Str, ns[0], ns[1]
		for _, el := range v.Array[4:] {
			if el.Kind != KindArray || len(el.Array) != 6 ||
				el.Array[0].Kind != KindBulk || el.Array[1].Kind != KindBulk {
				return bad()
			}
			ls, ok := ints(el.Array[2:6])
			if !ok {
				return bad()
			}
			st.Replicas = append(st.Replicas, ReplicaLink{
				Addr: el.Array[0].Str, State: el.Array[1].Str,
				AckedSeq: ls[0], SentSeq: ls[1], LagRecords: ls[2], LagBytes: int64(ls[3]),
			})
		}
		return st, nil
	default:
		return bad()
	}
}
