package ttkvwire

import (
	"context"
	"errors"
	"fmt"
	"strconv"
	"strings"
	"time"

	"ocasta/internal/ttkv"
)

// Hash-slot cluster mode: a set of primaries divides a fixed slot space
// (ttkv.KeySlot) among themselves. Each node owns some slot ranges and
// knows (best-effort) who owns the rest; writes and single-key reads for
// a slot the node does not own are refused with a MOVED redirect naming
// the owner, exactly like the failover MOVED clients already handle.
//
// Live slot migration moves one slot between two primaries while both
// keep serving:
//
//	MIGSTART slot srcRunID      target: open/resume a migration session,
//	                            reply = source-seq watermark already applied
//	MIGDUMP slot afterSeq limit source: batch of the slot's records with
//	                            source seq in (afterSeq, CurrentSeq]
//	MIGAPPLY slot records...    target: apply a batch; source seqs must
//	                            ascend past the watermark (exactly-once
//	                            under driver restarts — the store has no
//	                            (key,timestamp) dedup, so idempotence is
//	                            by seq watermark, not by value)
//	MIGFENCE slot               source: stop admitting writes to the slot
//	                            (RETRY), then drain in-flight writes so
//	                            the final dump is complete
//	MIGTAKE slot                target: start owning the slot
//	MIGFLIP slot addr           source: record the new owner; MOVED now
//	                            points clients at the target
//	MIGABORT slot               source: lift the fence (failed migration)
//
// The MigrateSlot driver sequences these; killing it at any point and
// rerunning converges without duplicating or losing records.

// SlotRange is a contiguous run of hash slots [Lo, Hi] owned by Addr
// (Addr may be empty in contexts where the owner is implied or unknown).
type SlotRange struct {
	Lo, Hi int
	Addr   string
}

// String renders the range in the wire/flag form "lo-hi=addr".
func (r SlotRange) String() string {
	return fmt.Sprintf("%d-%d=%s", r.Lo, r.Hi, r.Addr)
}

// parseSlotRangeToken parses "lo-hi[=addr]" or "slot[=addr]" against a
// slot-space of the given size.
func parseSlotRangeToken(tok string, slots int) (SlotRange, error) {
	span, addr, _ := strings.Cut(tok, "=")
	loStr, hiStr, dashed := strings.Cut(span, "-")
	if !dashed {
		hiStr = loStr
	}
	lo, err1 := strconv.Atoi(loStr)
	hi, err2 := strconv.Atoi(hiStr)
	if err1 != nil || err2 != nil {
		return SlotRange{}, fmt.Errorf("bad slot range %q", tok)
	}
	if lo < 0 || hi >= slots || lo > hi {
		return SlotRange{}, fmt.Errorf("slot range %d-%d outside [0,%d)", lo, hi, slots)
	}
	return SlotRange{Lo: lo, Hi: hi, Addr: addr}, nil
}

// ParseSlotRanges parses a comma-separated list of "lo-hi[=addr]" tokens
// (single slots may omit "-hi"), as accepted by the daemon's -slot-range
// and -slot-peers flags.
func ParseSlotRanges(s string, slots int) ([]SlotRange, error) {
	if slots <= 0 {
		slots = ttkv.DefaultSlotCount
	}
	var out []SlotRange
	for _, tok := range strings.Split(s, ",") {
		tok = strings.TrimSpace(tok)
		if tok == "" {
			continue
		}
		r, err := parseSlotRangeToken(tok, slots)
		if err != nil {
			return nil, err
		}
		out = append(out, r)
	}
	return out, nil
}

// clusterState is the server's immutable slot-map snapshot. Mutators
// clone-and-swap under s.mu; dispatch does one atomic load.
type clusterState struct {
	slots  int
	owner  []string // per-slot owner address; "" = this node (see owned) or unknown
	owned  []bool   // slots this node (or its failover group) serves
	fenced []bool   // owned slots currently write-fenced for migration
}

func (cl *clusterState) clone() *clusterState {
	return &clusterState{
		slots:  cl.slots,
		owner:  append([]string(nil), cl.owner...),
		owned:  append([]bool(nil), cl.owned...),
		fenced: append([]bool(nil), cl.fenced...),
	}
}

// ranges renders the slot map as contiguous runs, labeling this node's
// own slots with self (the address writes should go to — the group
// leader). Runs with no known owner are omitted.
func (cl *clusterState) ranges(self string) []SlotRange {
	label := func(i int) string {
		if cl.owned[i] {
			return self
		}
		return cl.owner[i]
	}
	var out []SlotRange
	for i := 0; i < cl.slots; {
		l := label(i)
		j := i + 1
		for j < cl.slots && label(j) == l {
			j++
		}
		if l != "" {
			out = append(out, SlotRange{Lo: i, Hi: j - 1, Addr: l})
		}
		i = j
	}
	return out
}

// EnableCluster switches the server into hash-slot cluster mode: it
// serves the owned ranges of a slot space of the given size (<= 0 selects
// ttkv.DefaultSlotCount) and redirects traffic for peer-owned slots with
// MOVED. Peer ranges are advisory — MOVED corrections and migration flips
// update them at runtime. Call before Serve or at any time after; on a
// failover group, call it on every member (the replica's MOVED redirects
// then name real owners instead of falling back to bare READONLY).
func (s *Server) EnableCluster(slots int, owned, peers []SlotRange) error {
	if slots <= 0 {
		slots = ttkv.DefaultSlotCount
	}
	cl := &clusterState{
		slots:  slots,
		owner:  make([]string, slots),
		owned:  make([]bool, slots),
		fenced: make([]bool, slots),
	}
	for _, r := range owned {
		if r.Lo < 0 || r.Hi >= slots || r.Lo > r.Hi {
			return fmt.Errorf("ttkvwire: slot range %d-%d outside [0,%d)", r.Lo, r.Hi, slots)
		}
		for i := r.Lo; i <= r.Hi; i++ {
			cl.owned[i] = true
		}
	}
	for _, r := range peers {
		if r.Lo < 0 || r.Hi >= slots || r.Lo > r.Hi {
			return fmt.Errorf("ttkvwire: slot range %d-%d outside [0,%d)", r.Lo, r.Hi, slots)
		}
		for i := r.Lo; i <= r.Hi; i++ {
			if cl.owned[i] {
				continue // our own claim wins
			}
			cl.owner[i] = r.Addr
		}
	}
	s.mu.Lock()
	s.cluster.Store(cl)
	s.mu.Unlock()
	return nil
}

// ClusterSlots reports the slot-space size, 0 outside cluster mode.
func (s *Server) ClusterSlots() int {
	if cl := s.cluster.Load(); cl != nil {
		return cl.slots
	}
	return 0
}

// updateCluster applies f to a clone of the cluster state and swaps it
// in, all under s.mu so concurrent mutators serialize.
func (s *Server) updateCluster(f func(cl *clusterState) error) error {
	s.mu.Lock()
	defer s.mu.Unlock()
	cl := s.cluster.Load()
	if cl == nil {
		return errors.New("cluster mode not enabled")
	}
	c := cl.clone()
	if err := f(c); err != nil {
		return err
	}
	s.cluster.Store(c)
	return nil
}

// clusterCheck enforces slot ownership on c's key arguments (see
// keyArgs): keys in slots this node does not own are refused with MOVED
// naming the owner; writes to a fenced (migrating) slot get RETRY.
// Returns (reply, true) when the command must be refused. Multi-key
// commands that are not keyed (KEYS, STATS, CLUSTERS, ...) stay
// node-local; clients merge across nodes.
func (s *Server) clusterCheck(c *command, args []string) (Value, bool) {
	cl := s.cluster.Load()
	if cl == nil || c.keys == keyNone {
		return Value{}, false
	}
	check := func(key string) (Value, bool) {
		slot := ttkv.KeySlot(key, cl.slots)
		if cl.owned[slot] {
			if c.write && cl.fenced[slot] {
				return retryReply(fmt.Sprintf("slot %d migrating", slot)), true
			}
			return Value{}, false
		}
		return movedReply(cl.owner[slot], slot), true
	}
	// Multi-key commands are refused whole on the first foreign key,
	// before anything applies, so a cross-node MSET never half-lands
	// here: the slot-aware client re-partitions and resends.
	step, last := 1, len(args)
	switch c.keys {
	case keyFirst:
		last = min(last, 1)
	case keyTriples:
		step, last = 3, len(args)-2
	}
	for i := 0; i < last; i += step {
		if v, refused := check(args[i]); refused {
			return v, true
		}
	}
	return Value{}, false
}

// movedReply builds the MOVED redirect for a foreign slot. With no known
// owner a bare MOVED still tells the client to rediscover the topology.
func movedReply(owner string, slot int) Value {
	if owner == "" {
		return errValue(wireCodeMoved)
	}
	return errValue(fmt.Sprintf("%s %s slot %d", wireCodeMoved, owner, slot))
}

// verKey identifies a version cluster-wide: writes are idempotent per
// (key, timestamp).
type verKey struct {
	key   string
	nanos int64
}

// migSession tracks one inbound slot migration on the target: the source
// incarnation it streams from and the highest source seq applied. The
// watermark is what makes driver restarts exactly-once: MIGSTART returns
// it, the driver resumes dumping past it, MIGAPPLY rejects non-ascending
// source seqs. Sessions survive MIGTAKE (a rerun of a completed
// migration must re-apply nothing) and are dropped when the slot flips
// away again.
//
// present holds the (key, timestamp) versions the target already had
// when the session opened, plus everything applied through it. A node
// that owned the slot before keeps the slot's full history (migration
// copies, it does not purge), so when the slot migrates back the source
// re-dumps records this target already holds; skipping them — rather
// than rejecting, which would wedge the migration, or re-applying, which
// would duplicate versions — is what makes ping-pong migrations
// converge.
type migSession struct {
	sourceRunID string
	watermark   uint64
	present     map[verKey]struct{}
}

func (s *Server) cmdMigStart(_ *connState, args []string) Value {
	cl := s.cluster.Load()
	if cl == nil {
		return errValue("ERR cluster mode not enabled")
	}
	slot, err := strconv.Atoi(args[0])
	if err != nil || slot < 0 || slot >= cl.slots {
		return errValue("ERR bad slot")
	}
	// Index the slot's versions this node already holds, outside s.mu:
	// a former owner keeps the full history, and re-applying it on a
	// migration back would duplicate every version.
	present := make(map[verKey]struct{})
	for _, r := range s.store.SlotSnapshot(slot, cl.slots, 0, s.store.CurrentSeq()) {
		present[verKey{key: r.Key, nanos: r.Time.UnixNano()}] = struct{}{}
	}
	s.mu.Lock()
	defer s.mu.Unlock()
	if s.migSessions == nil {
		s.migSessions = make(map[int]*migSession)
	}
	sess, ok := s.migSessions[slot]
	if !ok {
		sess = &migSession{sourceRunID: args[1], present: present}
		s.migSessions[slot] = sess
	} else if sess.sourceRunID != args[1] {
		// A watermark only means "already applied" against one source seq
		// space; a different source incarnation must not resume past it.
		return errValue(fmt.Sprintf(
			"ERR slot %d migration bound to source run %q; abort it before migrating from %q",
			slot, sess.sourceRunID, args[1]))
	}
	return intValue(int64(sess.watermark))
}

func (s *Server) cmdMigDump(_ *connState, args []string) Value {
	cl := s.cluster.Load()
	if cl == nil {
		return errValue("ERR cluster mode not enabled")
	}
	slot, err := strconv.Atoi(args[0])
	if err != nil || slot < 0 || slot >= cl.slots {
		return errValue("ERR bad slot")
	}
	afterSeq, err := strconv.ParseUint(args[1], 10, 64)
	if err != nil {
		return errValue("ERR bad afterSeq")
	}
	limit, err := strconv.Atoi(args[2])
	if err != nil || limit <= 0 {
		return errValue("ERR bad limit")
	}
	recs := s.store.SlotSnapshot(slot, cl.slots, afterSeq, s.store.CurrentSeq())
	if len(recs) > limit {
		recs = recs[:limit]
	}
	els := make([]Value, 0, len(recs)*5)
	for _, r := range recs {
		deleted := "0"
		if r.Deleted {
			deleted = "1"
		}
		els = append(els,
			bulkInt(int64(r.Seq)), bulk(r.Key), bulk(r.Value),
			bulkInt(r.Time.UnixNano()), bulk(deleted))
	}
	return array(els...)
}

func (s *Server) cmdMigApply(cs *connState, args []string) Value {
	slot, err := strconv.Atoi(args[0])
	if err != nil || slot < 0 {
		return errValue("ERR bad slot")
	}
	s.mu.Lock()
	sess := s.migSessions[slot]
	s.mu.Unlock()
	if sess == nil {
		return errValue(fmt.Sprintf("ERR no migration session for slot %d; MIGSTART first", slot))
	}
	n := (len(args) - 1) / 5
	muts := make([]ttkv.Mutation, 0, n)
	mutSeqs := make([]uint64, 0, n) // source seq per to-apply mutation
	mutKeys := make([]verKey, 0, n)
	var batchLast uint64 // source seq of the batch's last record
	s.mu.Lock()
	prev := sess.watermark
	for i := 1; i < len(args); i += 5 {
		srcSeq, err := strconv.ParseUint(args[i], 10, 64)
		if err != nil {
			s.mu.Unlock()
			return errValue("ERR bad source seq " + args[i])
		}
		if srcSeq <= prev {
			// Duplicate or reordered batch (e.g. a restarted driver that
			// skipped MIGSTART): applying would duplicate versions, since
			// the store has no value-level dedup.
			s.mu.Unlock()
			return errValue(fmt.Sprintf(
				"ERR source seq %d not past watermark %d: duplicate or reordered migration batch", srcSeq, prev))
		}
		prev, batchLast = srcSeq, srcSeq
		t, err := parseNanos(args[i+3])
		if err != nil {
			s.mu.Unlock()
			return errValue("ERR bad timestamp: " + err.Error())
		}
		vk := verKey{key: args[i+1], nanos: t.UnixNano()}
		if _, dup := sess.present[vk]; dup {
			// Already in this node's history (a former owner re-receiving
			// the slot): durable as-is, just advance over it.
			continue
		}
		muts = append(muts, ttkv.Mutation{
			Key: vk.key, Value: args[i+2], Time: t, Delete: args[i+4] == "1",
		})
		mutSeqs = append(mutSeqs, srcSeq)
		mutKeys = append(mutKeys, vk)
	}
	s.mu.Unlock()
	// Records re-mint local seqs here, so the target's AOF, observers and
	// replication stream all see the migrated versions as ordinary writes.
	applied, lastSeq, err := s.store.ApplyWithSeq(muts)
	cs.lastWriteSeq = lastSeq
	// The watermark covers every record up to the last applied mutation —
	// including skipped ones, which are durable already. A fully-applied
	// batch also covers its trailing skipped records.
	durable := uint64(0)
	if applied == len(muts) {
		durable = batchLast
	} else if applied > 0 {
		durable = mutSeqs[applied-1]
	}
	s.mu.Lock()
	if durable > sess.watermark {
		sess.watermark = durable
	}
	for i := 0; i < applied; i++ {
		sess.present[mutKeys[i]] = struct{}{}
	}
	s.mu.Unlock()
	if err != nil {
		if applied > 0 {
			// The watermark advanced only through the applied prefix, so a
			// retry resumes exactly after it.
			return errValue(fmt.Sprintf("%s %d %s", wireCodePartial, applied, err.Error()))
		}
		return errValue("ERR " + err.Error())
	}
	return intValue(int64(applied))
}

func (s *Server) cmdMigFence(_ *connState, args []string) Value {
	slot, err := strconv.Atoi(args[0])
	if err != nil || slot < 0 {
		return errValue("ERR bad slot")
	}
	if err := s.updateCluster(func(cl *clusterState) error {
		if slot >= cl.slots || !cl.owned[slot] {
			return fmt.Errorf("not the owner of slot %d", slot)
		}
		cl.fenced[slot] = true
		return nil
	}); err != nil {
		return errValue("ERR " + err.Error())
	}
	// Barrier: every mutating dispatch holds migMu for read across
	// slot-check + apply, so taking the write lock here waits out every
	// write admitted under the pre-fence state. By the time the fence
	// replies, those writes have minted their seqs and the driver's final
	// MIGDUMP (bounded by a CurrentSeq read after this reply) covers them.
	s.migMu.Lock()
	s.migMu.Unlock()
	return simple("OK")
}

func (s *Server) cmdMigAbort(_ *connState, args []string) Value {
	slot, err := strconv.Atoi(args[0])
	if err != nil || slot < 0 {
		return errValue("ERR bad slot")
	}
	if err := s.updateCluster(func(cl *clusterState) error {
		if slot >= cl.slots {
			return fmt.Errorf("slot %d outside [0,%d)", slot, cl.slots)
		}
		cl.fenced[slot] = false
		return nil
	}); err != nil {
		return errValue("ERR " + err.Error())
	}
	return simple("OK")
}

func (s *Server) cmdMigTake(_ *connState, args []string) Value {
	slot, err := strconv.Atoi(args[0])
	if err != nil || slot < 0 {
		return errValue("ERR bad slot")
	}
	if err := s.updateCluster(func(cl *clusterState) error {
		if slot >= cl.slots {
			return fmt.Errorf("slot %d outside [0,%d)", slot, cl.slots)
		}
		cl.owned[slot] = true
		cl.fenced[slot] = false
		cl.owner[slot] = ""
		return nil
	}); err != nil {
		return errValue("ERR " + err.Error())
	}
	return simple("OK")
}

func (s *Server) cmdMigFlip(_ *connState, args []string) Value {
	if args[1] == "" {
		return errValue(commands["MIGFLIP"].usage)
	}
	slot, err := strconv.Atoi(args[0])
	if err != nil || slot < 0 {
		return errValue("ERR bad slot")
	}
	if err := s.updateCluster(func(cl *clusterState) error {
		if slot >= cl.slots {
			return fmt.Errorf("slot %d outside [0,%d)", slot, cl.slots)
		}
		cl.owned[slot] = false
		cl.fenced[slot] = false
		cl.owner[slot] = args[1]
		return nil
	}); err != nil {
		return errValue("ERR " + err.Error())
	}
	// The slot is no longer served here; if it ever migrates back it is a
	// fresh migration against whatever the new owner accumulates.
	s.mu.Lock()
	delete(s.migSessions, slot)
	s.mu.Unlock()
	return simple("OK")
}

// MigStart opens (or resumes) an inbound migration session for slot on
// the target node and returns the source-seq watermark already applied.
func (c *Client) MigStart(ctx context.Context, slot int, sourceRunID string) (uint64, error) {
	v, err := c.roundTrip(ctx, "MIGSTART", strconv.Itoa(slot), sourceRunID)
	if err != nil {
		return 0, err
	}
	if v.Kind != KindInt || v.Int < 0 {
		return 0, fmt.Errorf("%w: unexpected MIGSTART reply %+v", ErrProtocol, v)
	}
	return uint64(v.Int), nil
}

// MigDump fetches up to limit records of the slot with source seq in
// (afterSeq, CurrentSeq], seq-ascending.
func (c *Client) MigDump(ctx context.Context, slot int, afterSeq uint64, limit int) ([]ttkv.ReplRecord, error) {
	v, err := c.roundTrip(ctx, "MIGDUMP",
		strconv.Itoa(slot), strconv.FormatUint(afterSeq, 10), strconv.Itoa(limit))
	if err != nil {
		return nil, err
	}
	if v.Kind != KindArray || len(v.Array)%5 != 0 {
		return nil, fmt.Errorf("%w: unexpected MIGDUMP reply", ErrProtocol)
	}
	recs := make([]ttkv.ReplRecord, 0, len(v.Array)/5)
	for i := 0; i < len(v.Array); i += 5 {
		for j := 0; j < 5; j++ {
			if v.Array[i+j].Kind != KindBulk {
				return nil, fmt.Errorf("%w: unexpected MIGDUMP record element", ErrProtocol)
			}
		}
		seq, err1 := strconv.ParseUint(v.Array[i].Str, 10, 64)
		nanos, err2 := strconv.ParseInt(v.Array[i+3].Str, 10, 64)
		if err1 != nil || err2 != nil {
			return nil, fmt.Errorf("%w: bad MIGDUMP record numbers", ErrProtocol)
		}
		recs = append(recs, ttkv.ReplRecord{
			Seq: seq, Key: v.Array[i+1].Str, Value: v.Array[i+2].Str,
			Time: time.Unix(0, nanos).UTC(), Deleted: v.Array[i+4].Str == "1",
		})
	}
	return recs, nil
}

// MigApply applies a batch of migrated records on the target; source
// seqs must ascend past the session watermark.
func (c *Client) MigApply(ctx context.Context, slot int, recs []ttkv.ReplRecord) (int, error) {
	args := make([]string, 0, 2+len(recs)*5)
	args = append(args, "MIGAPPLY", strconv.Itoa(slot))
	for _, r := range recs {
		deleted := "0"
		if r.Deleted {
			deleted = "1"
		}
		args = append(args,
			strconv.FormatUint(r.Seq, 10), r.Key, r.Value,
			strconv.FormatInt(r.Time.UnixNano(), 10), deleted)
	}
	v, err := c.roundTrip(ctx, args...)
	if err != nil {
		return 0, err
	}
	if v.Kind != KindInt {
		return 0, fmt.Errorf("%w: unexpected MIGAPPLY reply %+v", ErrProtocol, v)
	}
	return int(v.Int), nil
}

// MigFence write-fences a slot on its current owner.
func (c *Client) MigFence(ctx context.Context, slot int) error {
	_, err := c.roundTrip(ctx, "MIGFENCE", strconv.Itoa(slot))
	return err
}

// MigAbort lifts a slot's migration fence.
func (c *Client) MigAbort(ctx context.Context, slot int) error {
	_, err := c.roundTrip(ctx, "MIGABORT", strconv.Itoa(slot))
	return err
}

// MigTake makes the node start owning a slot (target-side handoff).
func (c *Client) MigTake(ctx context.Context, slot int) error {
	_, err := c.roundTrip(ctx, "MIGTAKE", strconv.Itoa(slot))
	return err
}

// MigFlip records a slot's new owner on the node (source-side handoff).
func (c *Client) MigFlip(ctx context.Context, slot int, newOwner string) error {
	_, err := c.roundTrip(ctx, "MIGFLIP", strconv.Itoa(slot), newOwner)
	return err
}

// MigrateOptions configure MigrateSlot.
type MigrateOptions struct {
	// BatchSize bounds records per dump/apply round (default 4096).
	BatchSize int
	// DialTimeout bounds the dials to source and target (default 5s).
	DialTimeout time.Duration
	// Logf, when set, receives progress lines.
	Logf func(format string, args ...any)
}

// MigrateSlot moves one hash slot from the primary at source to the
// primary at target, live: it streams the slot's record history in
// batches while writes continue, fences the slot on the source once
// caught up, drains the bounded final delta, and flips ownership. The
// write outage is the fence-to-flip window — one final batch.
//
// The driver is crash-safe: killed at any point, a rerun resumes from
// the target's source-seq watermark (MIGSTART) and re-applies nothing;
// after the handoff it only re-executes the idempotent flip. A failed
// run lifts the fence again (unless the target already took ownership)
// so source writes resume.
func MigrateSlot(ctx context.Context, source, target string, slot int, opts MigrateOptions) (retErr error) {
	batch := opts.BatchSize
	if batch <= 0 {
		batch = 4096
	}
	logf := opts.Logf
	if logf == nil {
		logf = func(string, ...any) {}
	}
	dialTimeout := opts.DialTimeout
	if dialTimeout <= 0 {
		dialTimeout = 5 * time.Second
	}
	dial := func(addr string) (*Client, error) {
		dctx, cancel := context.WithTimeout(ctx, dialTimeout)
		defer cancel()
		return DialContext(dctx, addr)
	}
	src, err := dial(source)
	if err != nil {
		return fmt.Errorf("ttkvwire: migrate slot %d: dial source: %w", slot, err)
	}
	defer src.Close()
	dst, err := dial(target)
	if err != nil {
		return fmt.Errorf("ttkvwire: migrate slot %d: dial target: %w", slot, err)
	}
	defer dst.Close()

	srcTopo, err := src.TopologyContext(ctx)
	if err != nil {
		return fmt.Errorf("ttkvwire: migrate slot %d: source topology: %w", slot, err)
	}
	dstTopo, err := dst.TopologyContext(ctx)
	if err != nil {
		return fmt.Errorf("ttkvwire: migrate slot %d: target topology: %w", slot, err)
	}
	targetAddr := dstTopo.Self
	if targetAddr == "" {
		targetAddr = target
	}
	if topoOwnsSlot(dstTopo, slot) {
		// Rerun after a completed handoff: only the source-side flip can
		// be missing, and re-flipping is idempotent.
		if err := src.MigFlip(ctx, slot, targetAddr); err != nil {
			return fmt.Errorf("ttkvwire: migrate slot %d: flip source: %w", slot, err)
		}
		logf("migrate slot %d: target already owns it; source flip ensured", slot)
		return nil
	}

	watermark, err := dst.MigStart(ctx, slot, srcTopo.RunID)
	if err != nil {
		return fmt.Errorf("ttkvwire: migrate slot %d: start on target: %w", slot, err)
	}
	if watermark > 0 {
		logf("migrate slot %d: resuming past source seq %d", slot, watermark)
	}
	fenced, handoff := false, false
	defer func() {
		if retErr == nil || !fenced || handoff {
			return
		}
		// Failed after fencing but before the target took over: lift the
		// fence so source writes resume. A rerun re-dumps whatever lands
		// in the meantime — the watermark keeps it exactly-once.
		abortCtx, cancel := context.WithTimeout(context.Background(), dialTimeout)
		defer cancel()
		if err := src.MigAbort(abortCtx, slot); err != nil {
			logf("migrate slot %d: fence left in place (abort failed: %v); rerun to finish", slot, err)
		}
	}()
	total := 0
	for {
		if err := ctx.Err(); err != nil {
			return err
		}
		recs, err := src.MigDump(ctx, slot, watermark, batch)
		if err != nil {
			return fmt.Errorf("ttkvwire: migrate slot %d: dump: %w", slot, err)
		}
		if len(recs) > 0 {
			if _, err := dst.MigApply(ctx, slot, recs); err != nil {
				return fmt.Errorf("ttkvwire: migrate slot %d: apply: %w", slot, err)
			}
			watermark = recs[len(recs)-1].Seq
			total += len(recs)
		}
		if len(recs) == batch {
			continue // still catching up
		}
		if !fenced {
			// Caught up: fence the slot so the remaining delta is bounded.
			// The fence reply arrives only after in-flight writes minted
			// their seqs, so one more dump round drains everything.
			if err := src.MigFence(ctx, slot); err != nil {
				return fmt.Errorf("ttkvwire: migrate slot %d: fence: %w", slot, err)
			}
			fenced = true
			continue
		}
		break // fenced and drained
	}
	if err := dst.MigTake(ctx, slot); err != nil {
		return fmt.Errorf("ttkvwire: migrate slot %d: take on target: %w", slot, err)
	}
	handoff = true
	if err := src.MigFlip(ctx, slot, targetAddr); err != nil {
		return fmt.Errorf("ttkvwire: migrate slot %d: flip source: %w", slot, err)
	}
	logf("migrate slot %d: done, %d records moved to %s", slot, total, targetAddr)
	return nil
}

// topoOwnsSlot reports whether the topology's node itself serves the
// slot (its own ranges are labeled with its leader/self address).
func topoOwnsSlot(t Topology, slot int) bool {
	for _, r := range t.SlotRanges {
		if slot >= r.Lo && slot <= r.Hi {
			return r.Addr != "" && (r.Addr == t.Self || r.Addr == t.Leader)
		}
	}
	return false
}
