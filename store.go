package ocasta

import (
	"io"
	"net"

	"ocasta/internal/logger"
	"ocasta/internal/trace"
	"ocasta/internal/ttkv"
	"ocasta/internal/ttkvwire"
)

// Re-exported TTKV types.
type (
	// Store is the time-travel key-value store. Store.ViewAt pins a
	// read-only point-in-time view; Store.RevertCluster atomically rolls
	// a cluster of keys back to a historical state.
	Store = ttkv.Store
	// StoreView is a read-only point-in-time view of a Store, pinned at a
	// version sequence number: concurrent writers never change its
	// answers. Repair trials run against one.
	StoreView = ttkv.View
	// Version is one entry in a key's value history.
	Version = ttkv.Version
	// StoreStats summarizes a store (Table I's volume columns).
	StoreStats = ttkv.Stats
	// SegmentedAOF is the store's append-only log directory: sealed,
	// checksummed segments plus one active tail. Sealed segments replay
	// in parallel on open and serve replica catch-up by sequence range.
	SegmentedAOF = ttkv.SegmentedAOF
	// SegmentedConfig tunes a SegmentedAOF (segment size, replay
	// parallelism).
	SegmentedConfig = ttkv.SegmentedConfig
	// SegmentedStats summarizes a segment directory.
	SegmentedStats = ttkv.SegmentedStats
	// GroupCommit batches AOF writes off the store's hot path.
	GroupCommit = ttkv.GroupCommit
	// FsyncPolicy selects when the group-commit appender fsyncs.
	FsyncPolicy = ttkv.FsyncPolicy
	// Mutation is one entry of a batch applied with Store.Apply or
	// Client.MSet.
	Mutation = ttkv.Mutation
	// Server exposes a store over TCP.
	Server = ttkvwire.Server
	// Client talks to a remote store.
	Client = ttkvwire.Client
	// Pipeline queues client commands for a single-round-trip flush.
	Pipeline = ttkvwire.Pipeline
	// StatsObserver receives every successful store mutation; an *Engine
	// satisfies it (install with Store.SetStatsObserver for live
	// clustering).
	StatsObserver = ttkv.StatsObserver
	// ClusterSnapshot is a client-side CLUSTERS reply: the server's
	// published live clustering plus its publish counter.
	ClusterSnapshot = ttkvwire.ClusterSnapshot
	// ReplLog is the primary side of replication: a seq-assigning
	// persistence sink whose committed records fan out to replica feeds.
	// Attach with Store.AttachReplLog, serve with Server.EnableReplication.
	ReplLog = ttkv.ReplLog
	// ReplRecord is one replicated mutation, carrying the primary's
	// store-wide sequence number; Store.ApplyReplicated replays them.
	ReplRecord = ttkv.ReplRecord
	// ReplicationConfig tunes a primary's replica feeds (outbox bound,
	// heartbeat cadence).
	ReplicationConfig = ttkvwire.ReplicationConfig
	// ReplicaStatus is a replica's progress snapshot.
	ReplicaStatus = ttkvwire.ReplicaStatus
	// ReplStatus is a parsed REPLSTAT reply (Client.ReplStatus).
	ReplStatus = ttkvwire.ReplStatus
)

// Group-commit fsync policies, re-exported so external callers can fill
// StoreOptions.Fsync.
const (
	// FsyncInterval fsyncs once per flush interval (the default).
	FsyncInterval = ttkv.FsyncInterval
	// FsyncAlways flushes+fsyncs eagerly on every append.
	FsyncAlways = ttkv.FsyncAlways
	// FsyncNever leaves fsync to the OS and explicit Sync calls.
	FsyncNever = ttkv.FsyncNever
)

// ParseFsyncPolicy parses "always", "interval", or "never".
func ParseFsyncPolicy(s string) (FsyncPolicy, error) { return ttkv.ParseFsyncPolicy(s) }

// NewStore returns an empty TTKV with the default shard count.
func NewStore() *Store { return ttkv.New() }

// OpenSegmentedInto opens (or creates) a segmented AOF directory and
// replays its history into store, sealed segments in parallel. Prefer
// OpenStore(StoreOptions{AOFDir: dir}), which also assembles the
// group-commit pipeline.
func OpenSegmentedInto(dir string, store *Store, cfg SegmentedConfig) (*SegmentedAOF, error) {
	return ttkv.OpenSegmentedInto(dir, store, cfg)
}

// CompactSegmentDir rewrites a segment directory as a fresh generation
// of sealed snapshot segments, keeping the newest retain versions per
// key (0 keeps all). The directory must not be open.
func CompactSegmentDir(dir string, shards, retain int, cfg SegmentedConfig) error {
	return ttkv.CompactSegmentDir(dir, shards, retain, cfg)
}

// NewServer wraps a store in a TTKV network server.
func NewServer(store *Store) *Server { return ttkvwire.NewServer(store) }

// Dial connects to a TTKV server.
func Dial(addr string) (*Client, error) { return ttkvwire.Dial(addr) }

// Serve exposes store on ln until the returned server is closed.
func Serve(store *Store, ln net.Listener) (*Server, <-chan error) {
	srv := ttkvwire.NewServer(store)
	errc := make(chan error, 1)
	go func() { errc <- srv.Serve(ln) }()
	return srv, errc
}

// Re-exported logging types.
type (
	// Logger multiplexes store hooks into a TTKV sink and an optional
	// trace recording.
	Logger = logger.Logger
	// LoggerOption configures a Logger.
	LoggerOption = logger.Option
	// FileSpec describes one watched configuration file.
	FileSpec = logger.FileSpec
	// FileLogger infers per-key events from whole-file flushes.
	FileLogger = logger.FileLogger
	// Sink receives abstracted key-value events.
	Sink = logger.Sink
)

// NewLogger returns a logger writing to sink (a *Store satisfies Sink; use
// NewRemoteSink for a network store).
func NewLogger(sink Sink, opts ...LoggerOption) *Logger { return logger.New(sink, opts...) }

// WithUser tags recorded events with a user name.
func WithUser(user string) LoggerOption { return logger.WithUser(user) }

// WithTraceRecording accumulates an in-memory trace alongside sink writes.
func WithTraceRecording(name string) LoggerOption { return logger.WithTraceRecording(name) }

// NewRemoteSink adapts a network client into a logger sink.
func NewRemoteSink(c *Client) Sink { return logger.NewRemoteSink(c) }

// Trace codecs.

// WriteTraceBinary writes a trace in the compact binary format.
func WriteTraceBinary(w io.Writer, tr *Trace) error { return trace.WriteBinary(w, tr) }

// ReadTraceBinary reads a binary trace.
func ReadTraceBinary(r io.Reader) (*Trace, error) { return trace.ReadBinary(r) }

// WriteTraceJSONL writes a trace as JSON lines.
func WriteTraceJSONL(w io.Writer, tr *Trace) error { return trace.WriteJSONL(w, tr) }

// ReadTraceJSONL reads a JSON-lines trace.
func ReadTraceJSONL(r io.Reader) (*Trace, error) { return trace.ReadJSONL(r) }

// SummarizeTrace computes Table I-style statistics.
func SummarizeTrace(tr *Trace) trace.Stats { return trace.Summarize(tr) }
