package ttkvwire

import (
	"bufio"
	"errors"
	"fmt"
	"net"
	"strconv"
	"strings"
	"sync"
	"sync/atomic"
	"time"

	"ocasta/internal/backup"
	"ocasta/internal/core"
	"ocasta/internal/ttkv"
)

// ErrServerClosed is returned by Serve after Close is called.
var ErrServerClosed = errors.New("ttkvwire: server closed")

// Server exposes a ttkv.Store over the wire protocol. Construct with
// NewServer; then either Serve an existing listener or ListenAndServe.
type Server struct {
	store     *ttkv.Store
	analytics *core.Engine    // nil when live clustering is disabled
	repairCfg RepairConfig    // bounds for the repair job manager
	backups   *backup.Manager // nil when backups are disabled

	// readOnly gates mutating commands; it flips at runtime on failover
	// (promotion clears it, demotion sets it), so it lives outside mu to
	// keep the dispatch hot path lock-free.
	readOnly atomic.Bool

	// cluster is the hash-slot partitioning state, nil outside cluster
	// mode. Copy-on-write: mutators clone-and-swap under mu, the dispatch
	// hot path does one atomic load. See slots.go.
	cluster atomic.Pointer[clusterState]
	// migMu closes the fence race in slot migration: every mutating
	// dispatch holds it for read across slot-check + apply, and MIGFENCE
	// write-locks it after publishing the fence so that by the time the
	// fence command replies, every write admitted under the pre-fence
	// state has minted its sequence (and is therefore covered by the
	// final MIGDUMP's CurrentSeq bound). Uncontended except during the
	// fence barrier itself.
	migMu sync.RWMutex

	// ackMu guards the semi-sync wake channel; see semisync.go. It is a
	// leaf lock: never acquired while holding mu, and nothing else is
	// acquired while holding it.
	ackMu   sync.Mutex
	ackWake chan struct{}

	mu sync.Mutex
	// Replication role state (see replserver.go). replLog/replCfg/runID
	// are set by EnableReplication on a primary (and cleared by
	// DisableReplication on demotion); replicaStat by SetReplicaStatus on
	// a replica. All may change at runtime under failover.
	replLog     *ttkv.ReplLog
	replCfg     ReplicationConfig
	runID       string
	replicaStat ReplicaStatusSource
	leaderHint  string          // where MOVED redirects point while read-only
	advertise   string          // this node's client-reachable address
	topoSource  func() Topology // authoritative TOPO source (failover Node)
	semiSync    SemiSyncConfig  // server-wide semi-sync default

	ln           net.Listener
	conns        map[net.Conn]struct{}
	closed       bool
	repairs      *jobManager // lazily built on first repair command
	replSessions map[*replSession]struct{}
	migSessions  map[int]*migSession // inbound slot migrations, by slot
	wg           sync.WaitGroup
}

// NewServer returns a server that serves the given store.
func NewServer(store *ttkv.Store) *Server {
	return &Server{store: store, conns: make(map[net.Conn]struct{})}
}

// SetAnalytics attaches a streaming analytics engine, enabling the
// CLUSTERS and CORR commands. Call before Serve; the engine is typically
// also installed as the store's StatsObserver so it sees every write the
// server applies.
func (s *Server) SetAnalytics(e *core.Engine) { s.analytics = e }

// SetBackups attaches a backup manager, enabling the BACKUP and BSTAT
// commands. Call before Serve. Backups read through a pinned sequence
// bound without ever holding the store's write locks, so the commands
// are deliberately not mutating: a read-only replica serves them, which
// is exactly where operators want backup load to land.
func (s *Server) SetBackups(m *backup.Manager) { s.backups = m }

// SetRepair bounds the server's repair job manager (REPAIR/RSTAT/RFIX).
// Call before Serve; the zero config selects the defaults, so calling it
// is optional — repair commands are always available.
func (s *Server) SetRepair(cfg RepairConfig) { s.repairCfg = cfg }

// ListenAndServe listens on addr ("host:port") and serves until Close.
func (s *Server) ListenAndServe(addr string) error {
	ln, err := net.Listen("tcp", addr)
	if err != nil {
		return fmt.Errorf("ttkvwire: listen: %w", err)
	}
	return s.Serve(ln)
}

// Serve accepts connections on ln until Close is called. It always returns
// a non-nil error; after Close the error is ErrServerClosed.
func (s *Server) Serve(ln net.Listener) error {
	s.mu.Lock()
	if s.closed {
		s.mu.Unlock()
		ln.Close()
		return ErrServerClosed
	}
	s.ln = ln
	s.mu.Unlock()
	for {
		conn, err := ln.Accept()
		if err != nil {
			s.mu.Lock()
			closed := s.closed
			s.mu.Unlock()
			if closed {
				return ErrServerClosed
			}
			return fmt.Errorf("ttkvwire: accept: %w", err)
		}
		s.mu.Lock()
		if s.closed {
			s.mu.Unlock()
			conn.Close()
			return ErrServerClosed
		}
		s.conns[conn] = struct{}{}
		s.wg.Add(1)
		s.mu.Unlock()
		go s.serveConn(conn)
	}
}

// Addr returns the listener address, or nil before Serve.
func (s *Server) Addr() net.Addr {
	s.mu.Lock()
	defer s.mu.Unlock()
	if s.ln == nil {
		return nil
	}
	return s.ln.Addr()
}

// Close stops accepting, closes every live connection, and waits for
// handlers to drain.
func (s *Server) Close() error {
	s.mu.Lock()
	if s.closed {
		s.mu.Unlock()
		return nil
	}
	s.closed = true
	ln := s.ln
	repairs := s.repairs
	for conn := range s.conns {
		conn.Close()
	}
	s.mu.Unlock()
	var err error
	if ln != nil {
		err = ln.Close()
	}
	if repairs != nil {
		// Cancel running repair searches and wait for their goroutines;
		// cancellation makes each search return promptly mid-trial.
		repairs.close()
	}
	s.wg.Wait()
	return err
}

func (s *Server) serveConn(conn net.Conn) {
	defer func() {
		conn.Close()
		s.mu.Lock()
		delete(s.conns, conn)
		s.mu.Unlock()
		s.wg.Done()
	}()
	br := bufio.NewReader(conn)
	bw := bufio.NewWriter(conn)
	cs := &connState{conn: conn, br: br, bw: bw}
	for {
		req, err := ReadValue(br)
		if err != nil {
			return // connection dropped or garbage; just hang up
		}
		resp := s.dispatch(cs, req)
		if cs.detached {
			return // a SYNC feed took the connection over and has ended
		}
		if err := WriteValue(bw, resp); err != nil {
			return
		}
		// Pipelining: only pay the write syscall once the connection's
		// buffered requests are drained, so a client that queued N
		// commands gets N responses in (about) one segment.
		if br.Buffered() == 0 {
			if err := bw.Flush(); err != nil {
				return
			}
		}
	}
}

// connState is per-connection dispatch state: session-scoped protocol
// options negotiated by the client (currently the SEMISYNC ack override),
// the per-command write watermark the semi-sync gate waits on, and the
// transport for the one command (SYNC) that takes the connection over.
type connState struct {
	// semiAcks is the connection's semi-sync ack requirement; 0 means no
	// override (the server-wide default applies). The effective K per
	// write is the max of the two, so a connection can strengthen but
	// never weaken the operator's durability floor.
	semiAcks int
	// lastWriteSeq is the highest sequence number the current command
	// minted, reset before every mutating dispatch. The semi-sync gate
	// waits for replicas to ack exactly this seq — not the store-wide
	// watermark, which concurrent writers inflate.
	lastWriteSeq uint64

	conn net.Conn
	br   *bufio.Reader
	bw   *bufio.Writer
	// detached is set once SYNC has turned the connection into a
	// replication feed: it has left request/response and must be closed.
	detached bool
}

// keyArgs says which arguments of a command are keys, for the cluster
// slot check.
type keyArgs uint8

const (
	keyNone    keyArgs = iota // not keyed, or node-local (KEYS, STATS, ...)
	keyFirst                  // the first argument
	keyTriples                // the first of every complete triple (MSET)
	keyAll                    // every argument (MODTIMES)
)

// variadic is a command's max argument count when it has none.
const variadic = -1

// A subsystem is an optional server component some commands need; call
// refuses them with its refuse text, ahead of their arity check, while it
// is off.
type subsystem struct {
	off    func(*Server) bool
	refuse string
}

var (
	needAnalytics = &subsystem{func(s *Server) bool { return s.analytics == nil },
		"ERR analytics disabled (run ttkvd with -recluster-interval > 0)"}
	needBackups = &subsystem{func(s *Server) bool { return s.backups == nil },
		"ERR backups disabled (run ttkvd with -backup-dir)"}
	needReplication = &subsystem{func(s *Server) bool { rl, _, _ := s.replState(); return rl == nil },
		"ERR replication not enabled on this server"}
)

// command is everything the dispatcher knows about one wire command.
type command struct {
	name string // upper case
	// min, max and step bound the argument count n (verb excluded):
	// min <= n <= max (max may be variadic) and, when step is set,
	// (n-min) is a multiple of step.
	min, max, step int
	usage          string // the reply to a bad argument count
	// write marks a store mutation: it runs under migMu, is refused on a
	// fenced slot and on a read-only node, and its success reply waits on
	// the semi-sync gate.
	write bool
	keys  keyArgs
	needs *subsystem // nil: always available
	run   func(s *Server, cs *connState, args []string) Value
}

// commandTable is the wire command set, one entry per command. dispatch
// runs an entry's gates in a fixed order. A write takes migMu for read,
// passes the slot and fence check and the read-only check, runs, drops
// migMu and then waits on the semi-sync gate; a read passes the slot
// check and runs. Running is the availability check, then arity, then
// the handler — so a malformed write for a foreign slot gets MOVED, not
// a usage error.
var commandTable = [...]command{
	{name: "PING", max: variadic, run: func(*Server, *connState, []string) Value { return simple("PONG") }},
	{name: "SET", min: 3, max: 3, usage: "ERR usage: SET key value unixnanos", write: true, keys: keyFirst, run: (*Server).cmdSet},
	{name: "MSET", min: 3, max: variadic, step: 3, usage: "ERR usage: MSET key value unixnanos [key value unixnanos ...]", write: true, keys: keyTriples, run: (*Server).cmdMSet},
	{name: "DEL", min: 2, max: 2, usage: "ERR usage: DEL key unixnanos", write: true, keys: keyFirst, run: (*Server).cmdDel},
	{name: "GET", min: 1, max: 1, usage: "ERR usage: GET key", keys: keyFirst, run: (*Server).cmdGet},
	{name: "GETAT", min: 2, max: 2, usage: "ERR usage: GETAT key unixnanos", keys: keyFirst, run: (*Server).cmdGetAt},
	{name: "HIST", min: 1, max: 1, usage: "ERR usage: HIST key", keys: keyFirst, run: (*Server).cmdHist},
	{name: "KEYS", usage: "ERR usage: KEYS", run: (*Server).cmdKeys},
	{name: "MODCOUNT", min: 1, max: 1, usage: "ERR usage: MODCOUNT key", keys: keyFirst, run: (*Server).cmdModCount},
	{name: "MODTIMES", min: 1, max: variadic, usage: "ERR usage: MODTIMES key [key...]", keys: keyAll, run: (*Server).cmdModTimes},
	{name: "STATS", usage: "ERR usage: STATS", run: (*Server).cmdStats},
	{name: "CLUSTERS", max: 1, usage: "ERR usage: CLUSTERS [minsize]", needs: needAnalytics, run: (*Server).cmdClusters},
	{name: "CORR", min: 2, max: 2, usage: "ERR usage: CORR keyA keyB", needs: needAnalytics, run: (*Server).cmdCorr},
	{name: "REPAIR", min: 4, max: variadic, step: 2, usage: "ERR usage: REPAIR app trial fixed broken [opt val ...]", run: (*Server).cmdRepair},
	{name: "RSTAT", min: 1, max: 1, usage: "ERR usage: RSTAT jobid", run: (*Server).cmdRepairStat},
	{name: "RFIX", min: 2, max: 2, usage: "ERR usage: RFIX jobid unixnanos", write: true, run: (*Server).cmdRepairFix},
	{name: "REPLSTAT", usage: "ERR usage: REPLSTAT", run: (*Server).cmdReplStat},
	{name: "SYNC", min: 2, max: 3, usage: "ERR usage: SYNC afterSeq runid [replicaid]", needs: needReplication, run: (*Server).cmdSync},
	{name: "BACKUP", max: 1, usage: "ERR usage: BACKUP [AUTO|FULL|INCR]", needs: needBackups, run: (*Server).cmdBackup},
	{name: "BSTAT", usage: "ERR usage: BSTAT", needs: needBackups, run: (*Server).cmdBackupStat},
	{name: "TOPO", usage: "ERR usage: TOPO", run: (*Server).cmdTopo},
	{name: "SEMISYNC", min: 1, max: 1, usage: "ERR usage: SEMISYNC acks", run: (*Server).cmdSemiSync},
	{name: "MIGSTART", min: 2, max: 2, usage: "ERR usage: MIGSTART slot sourceRunID", run: (*Server).cmdMigStart},
	{name: "MIGDUMP", min: 3, max: 3, usage: "ERR usage: MIGDUMP slot afterSeq limit", run: (*Server).cmdMigDump},
	// MIGAPPLY has no key check: the target applies records for a slot it
	// does not own yet.
	{name: "MIGAPPLY", min: 6, max: variadic, step: 5, usage: "ERR usage: MIGAPPLY slot [srcseq key value unixnanos deleted ...]", write: true, run: (*Server).cmdMigApply},
	{name: "MIGFENCE", min: 1, max: 1, usage: "ERR usage: MIGFENCE slot", run: (*Server).cmdMigFence},
	{name: "MIGABORT", min: 1, max: 1, usage: "ERR usage: MIGABORT slot", run: (*Server).cmdMigAbort},
	{name: "MIGTAKE", min: 1, max: 1, usage: "ERR usage: MIGTAKE slot", run: (*Server).cmdMigTake},
	{name: "MIGFLIP", min: 2, max: 2, usage: "ERR usage: MIGFLIP slot newOwnerAddr", run: (*Server).cmdMigFlip},
}

// commands indexes commandTable by name. init fills it because the
// handlers that reject an argument with their own usage text (BACKUP,
// MIGFLIP) look it up here, which a static initializer would make a
// reference cycle.
var commands = map[string]*command{}

func init() {
	for i := range commandTable {
		commands[commandTable[i].name] = &commandTable[i]
	}
}

func (s *Server) dispatch(cs *connState, req Value) Value {
	if req.Kind != KindArray || len(req.Array) == 0 {
		return errValue("ERR request must be a non-empty array")
	}
	args := make([]string, len(req.Array))
	for i, v := range req.Array {
		if v.Kind != KindBulk {
			return errValue("ERR request elements must be bulk strings")
		}
		args[i] = v.Str
	}
	name := strings.ToUpper(args[0])
	c := commands[name]
	if c == nil {
		return errValue("ERR unknown command '" + name + "'")
	}
	args = args[1:]
	if !c.write {
		if rej, refused := s.clusterCheck(c, args); refused {
			return rej
		}
		return s.call(cs, c, args)
	}
	// The cluster state must be loaded under migMu: MIGFENCE swaps in the
	// fenced state and then write-locks migMu, so any write that saw the
	// pre-fence state has finished (minted its seq) before the fence
	// replies, and any write admitted afterwards sees the fence.
	s.migMu.RLock()
	if rej, refused := s.clusterCheck(c, args); refused {
		s.migMu.RUnlock()
		return rej
	}
	if s.readOnly.Load() {
		s.migMu.RUnlock()
		return readOnlyReply(s.LeaderHint())
	}
	cs.lastWriteSeq = 0
	resp := s.call(cs, c, args)
	s.migMu.RUnlock()
	if resp.Kind != KindError {
		if gateErr, ok := s.semiSyncGate(cs); !ok {
			return gateErr
		}
	}
	return resp
}

// call runs c's handler once its availability and arity gates pass.
func (s *Server) call(cs *connState, c *command, args []string) Value {
	if c.needs != nil && c.needs.off(s) {
		return errValue(c.needs.refuse)
	}
	n := len(args)
	if n < c.min || (c.max != variadic && n > c.max) || (c.step > 0 && (n-c.min)%c.step != 0) {
		return errValue(c.usage)
	}
	return c.run(s, cs, args)
}

func parseNanos(s string) (time.Time, error) {
	ns, err := strconv.ParseInt(s, 10, 64)
	if err != nil {
		return time.Time{}, err
	}
	return time.Unix(0, ns).UTC(), nil
}

func (s *Server) cmdSet(cs *connState, args []string) Value {
	t, err := parseNanos(args[2])
	if err != nil {
		return errValue("ERR bad timestamp: " + err.Error())
	}
	seq, err := s.store.SetWithSeq(args[0], args[1], t)
	if err != nil {
		return errValue("ERR " + err.Error())
	}
	cs.lastWriteSeq = seq
	return simple("OK")
}

func (s *Server) cmdMSet(cs *connState, args []string) Value {
	muts := make([]ttkv.Mutation, 0, len(args)/3)
	for i := 0; i < len(args); i += 3 {
		t, err := parseNanos(args[i+2])
		if err != nil {
			return errValue("ERR bad timestamp: " + err.Error())
		}
		muts = append(muts, ttkv.Mutation{Key: args[i], Value: args[i+1], Time: t})
	}
	applied, lastSeq, err := s.store.ApplyWithSeq(muts)
	cs.lastWriteSeq = lastSeq
	if err != nil {
		if applied > 0 {
			// A mid-batch persistence failure leaves a prefix applied; the
			// client must learn exactly how much persisted, not guess.
			return errValue(fmt.Sprintf("%s %d %s", wireCodePartial, applied, err.Error()))
		}
		return errValue("ERR " + err.Error())
	}
	return intValue(int64(applied))
}

func (s *Server) cmdDel(cs *connState, args []string) Value {
	t, err := parseNanos(args[1])
	if err != nil {
		return errValue("ERR bad timestamp: " + err.Error())
	}
	seq, err := s.store.DeleteWithSeq(args[0], t)
	if err != nil {
		return errValue("ERR " + err.Error())
	}
	cs.lastWriteSeq = seq
	return simple("OK")
}

func (s *Server) cmdGet(_ *connState, args []string) Value {
	v, ok := s.store.Get(args[0])
	if !ok {
		return nilValue()
	}
	return bulk(v)
}

func (s *Server) cmdGetAt(_ *connState, args []string) Value {
	t, err := parseNanos(args[1])
	if err != nil {
		return errValue("ERR bad timestamp: " + err.Error())
	}
	v, err := s.store.GetAt(args[0], t)
	if err != nil {
		if errors.Is(err, ttkv.ErrNoKey) || errors.Is(err, ttkv.ErrNoVersion) {
			return nilValue()
		}
		return errValue("ERR " + err.Error())
	}
	return versionValue(v)
}

func versionValue(v ttkv.Version) Value {
	return array(bulkInt(v.Time.UnixNano()), bulkBool(v.Deleted), bulk(v.Value))
}

func (s *Server) cmdHist(_ *connState, args []string) Value {
	hist, err := s.store.History(args[0])
	if err != nil {
		if errors.Is(err, ttkv.ErrNoKey) {
			return array()
		}
		return errValue("ERR " + err.Error())
	}
	out := make([]Value, len(hist))
	for i, v := range hist {
		out[i] = versionValue(v)
	}
	return array(out...)
}

func (s *Server) cmdKeys(_ *connState, _ []string) Value {
	keys := s.store.Keys()
	out := make([]Value, len(keys))
	for i, k := range keys {
		out[i] = bulk(k)
	}
	return array(out...)
}

func (s *Server) cmdModCount(_ *connState, args []string) Value {
	return intValue(int64(s.store.ModCount(args[0])))
}

func (s *Server) cmdModTimes(_ *connState, args []string) Value {
	times := s.store.ModTimes(args)
	out := make([]Value, len(times))
	for i, t := range times {
		out[i] = bulkInt(t.UnixNano())
	}
	return array(out...)
}

// cmdClusters serves the engine's last published clustering: a snapshot
// with bounded staleness (one recluster interval plus any still-open
// windows), never a recluster on the request path. Reply shape:
//
//	*N+1
//	  :version                      publish counter, for change polling
//	  *3+k per cluster: :modcount, :lastmodified-unixnanos (0 = never),
//	                    then k bulk member keys
//
// An optional minsize argument filters to clusters with at least that
// many member keys (2 = the paper's multi-key clusters).
func (s *Server) cmdClusters(_ *connState, args []string) Value {
	minSize := 0
	if len(args) == 1 {
		n, err := strconv.Atoi(args[0])
		if err != nil || n < 0 {
			return errValue("ERR bad minsize: " + args[0])
		}
		minSize = n
	}
	clusters, version := s.analytics.Snapshot()
	out := make([]Value, 1, len(clusters)+1)
	out[0] = intValue(int64(version))
	for i := range clusters {
		cl := &clusters[i]
		if cl.Size() < minSize {
			continue
		}
		cv := make([]Value, 0, 2+len(cl.Keys))
		var lm int64
		if !cl.LastModified.IsZero() {
			lm = cl.LastModified.UnixNano()
		}
		cv = append(cv, intValue(int64(cl.ModCount)), intValue(lm))
		for _, k := range cl.Keys {
			cv = append(cv, bulk(k))
		}
		out = append(out, array(cv...))
	}
	return array(out...)
}

// cmdCorr serves the live pairwise correlation of two keys, reflecting
// every closed co-modification group (no recluster needed). The reply is
// a bulk string holding the float in Go 'g' format, in [0, 2].
func (s *Server) cmdCorr(_ *connState, args []string) Value {
	corr := s.analytics.Correlation(args[0], args[1])
	return bulk(strconv.FormatFloat(corr, 'g', -1, 64))
}

func (s *Server) cmdStats(_ *connState, _ []string) Value {
	st := s.store.Stats()
	return array(
		intValue(int64(st.Keys)),
		intValue(int64(st.Writes)),
		intValue(int64(st.Deletes)),
		intValue(int64(st.Reads)),
		intValue(int64(st.Versions)),
		intValue(st.ApproxBytes),
	)
}
