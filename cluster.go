package ocasta

import (
	"context"
	"fmt"
	"time"

	"ocasta/internal/ttkv"
	"ocasta/internal/ttkvwire"
)

// This file is the consolidated entry point to the store and cluster
// APIs: OpenStore assembles a store with its segmented log, group commit
// and replication log in one call, and DialCluster replaces Dial for
// anything beyond a single fixed node.

// Typed wire errors, re-exported so callers can match cluster redirects
// with errors.Is / errors.As instead of message substrings.
var (
	// ErrReadOnly reports a write sent to a read replica.
	ErrReadOnly = ttkvwire.ErrReadOnly
	// ErrRetryable reports a transiently failed write (e.g. semi-sync
	// acknowledgement timeout: applied locally, replication unconfirmed).
	ErrRetryable = ttkvwire.ErrRetryable
	// ErrKeyNotFound reports a read of an absent or deleted key.
	ErrKeyNotFound = ttkvwire.ErrNotFound
)

// Re-exported failover and topology types.
type (
	// ErrNotLeader is a write rejection carrying the current leader's
	// address (a MOVED redirect); it unwraps to ErrReadOnly.
	ErrNotLeader = ttkvwire.ErrNotLeader
	// Topology is a TOPO reply: one node's role, epoch, and peer view.
	Topology = ttkvwire.Topology
	// FailoverClient is a cluster-aware client: it discovers the primary,
	// follows redirects, and retries across failovers. Construct with
	// DialCluster.
	FailoverClient = ttkvwire.FailoverClient
	// FailoverOption configures DialCluster.
	FailoverOption = ttkvwire.FailoverOption
	// Node is the failover state machine run next to a Server on every
	// cluster member. Construct with StartNode.
	Node = ttkvwire.Node
	// NodeConfig configures a failover Node.
	NodeConfig = ttkvwire.NodeConfig
	// SemiSyncConfig makes a primary's write acks wait for replica acks.
	SemiSyncConfig = ttkvwire.SemiSyncConfig
)

// Failover client options, re-exported from ttkvwire.
var (
	// WithPeers seeds the cluster member list (required).
	WithPeers = ttkvwire.WithPeers
	// WithDialTimeout bounds each connection attempt.
	WithDialTimeout = ttkvwire.WithDialTimeout
	// WithCallTimeout bounds each round trip.
	WithCallTimeout = ttkvwire.WithCallTimeout
	// WithSemiSync requires k replica acks per write.
	WithSemiSync = ttkvwire.WithSemiSync
	// WithMaxRedirects bounds redirect/rediscovery hops per operation.
	WithMaxRedirects = ttkvwire.WithMaxRedirects
	// WithRetryBackoff sets the pause between failover retries.
	WithRetryBackoff = ttkvwire.WithRetryBackoff
	// WithLogf routes client diagnostics to a printf-style function.
	WithLogf = ttkvwire.WithLogf
)

// Hash-slot partitioning types, re-exported from ttkvwire. A
// multi-primary cluster splits a fixed slot space across its nodes
// (Server.EnableCluster / the daemon's -slot-range flag); keyed requests
// for foreign slots come back as ErrNotLeader redirects naming the
// owner, which FailoverClient follows automatically.
type (
	// SlotRange is a contiguous run of hash slots [Lo, Hi] owned by Addr.
	SlotRange = ttkvwire.SlotRange
	// MigrateOptions configure MigrateSlot.
	MigrateOptions = ttkvwire.MigrateOptions
	// ErrPartialApply reports a batched write that landed only partially
	// (Applied counts the mutations that did).
	ErrPartialApply = ttkvwire.ErrPartialApply
	// AnalyticsDrainer merges every cluster node's replication stream
	// into one analytics engine by event time, yielding globally-correct
	// CLUSTERS/CORR on a partitioned keyspace. Construct with
	// NewAnalyticsDrainer.
	AnalyticsDrainer = ttkvwire.AnalyticsDrainer
	// AnalyticsDrainerConfig configures an AnalyticsDrainer.
	AnalyticsDrainerConfig = ttkvwire.AnalyticsDrainerConfig
)

// DefaultSlotCount is the default hash-slot space size.
const DefaultSlotCount = ttkv.DefaultSlotCount

// KeySlot maps a key to its hash slot in a slot space of the given size
// (<= 0 selects DefaultSlotCount). Keys sharing a "{...}" hash tag share
// a slot, so multi-key batches can be kept single-node.
func KeySlot(key string, slots int) int { return ttkv.KeySlot(key, slots) }

// ParseSlotRanges parses comma-separated "lo-hi[=addr]" tokens (single
// slots may omit "-hi") against a slot space of the given size.
func ParseSlotRanges(s string, slots int) ([]SlotRange, error) {
	return ttkvwire.ParseSlotRanges(s, slots)
}

// MigrateSlot rehomes one hash slot between two live primaries without
// losing acked writes; killed at any point, a rerun converges. See the
// ttkvd migrate subcommand for the operator form.
func MigrateSlot(ctx context.Context, source, target string, slot int, opts MigrateOptions) error {
	return ttkvwire.MigrateSlot(ctx, source, target, slot, opts)
}

// NewAnalyticsDrainer returns a drainer feeding cfg.Engine from the
// replication streams of cfg.Peers.
func NewAnalyticsDrainer(cfg AnalyticsDrainerConfig) (*AnalyticsDrainer, error) {
	return ttkvwire.NewAnalyticsDrainer(cfg)
}

// DrainAnalytics performs one complete drain of the peers' histories
// into engine — the one-shot way to rebuild a cluster's global analytics
// from scratch.
func DrainAnalytics(ctx context.Context, engine *Engine, peers []string) error {
	return ttkvwire.DrainAnalytics(ctx, engine, peers)
}

// DialCluster connects to a TTKV cluster: it discovers the current
// primary via TOPO, follows MOVED redirects, reconnects across
// promotions, and retries transient errors, so a failover surfaces to
// callers as latency rather than an error. Against a slot-partitioned
// cluster it additionally routes each keyed operation to the slot's
// owner, splitting multi-key batches across nodes as needed.
func DialCluster(ctx context.Context, opts ...FailoverOption) (*FailoverClient, error) {
	return ttkvwire.DialCluster(ctx, opts...)
}

// StartNode starts the failover state machine for one cluster member:
// lease-based failure detection over the replication stream, election of
// the highest-applied replica, epoch fencing of stale primaries.
func StartNode(cfg NodeConfig) (*Node, error) { return ttkvwire.StartNode(cfg) }

// StoreOptions configures OpenStore. The zero value opens an empty
// in-memory store with the default shard count.
type StoreOptions struct {
	// Shards is the lock-shard count (rounded up to a power of two;
	// default ttkv.DefaultShards). Writers to distinct keys on distinct
	// shards never contend.
	Shards int

	// AOFDir, when set, backs the store with a segmented append-only
	// log directory: existing history is replayed on open (sealed
	// segments in parallel, a crash-truncated tail repaired) and every
	// write is appended through a group-commit batcher.
	AOFDir string
	// SegmentBytes is the per-segment size threshold for AOFDir
	// (default ttkv.DefaultSegmentBytes).
	SegmentBytes int64
	// Compact rewrites the log as a fresh snapshot generation before
	// opening it.
	Compact bool
	// Retain, with Compact, keeps only the newest N versions per key
	// (0 keeps all; negative is an error).
	Retain int
	// Fsync selects the AOF fsync policy (default FsyncInterval) and
	// FlushInterval the group-commit cadence (default 50ms).
	Fsync         FsyncPolicy
	FlushInterval time.Duration

	// Replicate attaches a replication log so the store can feed
	// replicas (serve it with Server.EnableReplication or run it under a
	// failover Node). The log wraps the AOF appender when AOFDir is
	// set. Leave false for a store that will itself be a replica.
	Replicate bool

	// Observer, when set, receives every mutation — the replayed history
	// first, in sequence order — e.g. an *Engine for live clustering.
	Observer StatsObserver
}

// StoreHandle is an opened store plus the durability and replication
// plumbing OpenStore assembled around it.
type StoreHandle struct {
	// Store is the opened store.
	Store *Store
	// ReplLog is the attached replication log (nil unless Replicate).
	ReplLog *ReplLog
	// GroupCommit is the AOF batch appender (nil without AOFDir). Close
	// the handle, not this, when done.
	GroupCommit *GroupCommit
	// Segments is the segmented appender (nil unless AOFDir). Pass it to
	// a replication server so replica catch-up reads sealed segments
	// instead of scanning in-memory history.
	Segments *SegmentedAOF
}

// Close drains and closes the durability pipeline. The store itself
// remains readable.
func (h *StoreHandle) Close() error {
	if h.GroupCommit != nil {
		return h.GroupCommit.Close()
	}
	return nil
}

// OpenStore opens a TTKV store in one call: shard it, optionally compact
// its segmented log, replay and attach the log, and optionally attach
// the replication log.
func OpenStore(opts StoreOptions) (*StoreHandle, error) {
	shards := opts.Shards
	if shards <= 0 {
		shards = ttkv.DefaultShards
	}
	store := ttkv.NewSharded(shards)
	h := &StoreHandle{Store: store}
	if opts.AOFDir != "" {
		segCfg := ttkv.SegmentedConfig{MaxSegmentBytes: opts.SegmentBytes}
		if opts.Compact {
			if err := ttkv.CompactSegmentDir(opts.AOFDir, shards, opts.Retain, segCfg); err != nil {
				return nil, fmt.Errorf("ocasta: compacting segment dir: %w", err)
			}
		}
		sa, err := ttkv.OpenSegmentedInto(opts.AOFDir, store, segCfg)
		if err != nil {
			return nil, fmt.Errorf("ocasta: replaying segment dir: %w", err)
		}
		h.Segments = sa
		h.GroupCommit = ttkv.NewGroupCommit(sa, ttkv.GroupCommitConfig{
			FlushInterval: opts.FlushInterval,
			Fsync:         opts.Fsync,
		})
	} else if opts.Compact || opts.Retain > 0 {
		return nil, fmt.Errorf("ocasta: Compact/Retain require AOFDir")
	}
	if opts.Observer != nil {
		// Segment replay runs segments in parallel and bypasses observers:
		// feed the replayed history through in sequence order, then attach
		// for live writes.
		store.ObserveHistory(opts.Observer)
		store.SetStatsObserver(opts.Observer)
	}
	if opts.Replicate {
		h.ReplLog = ttkv.NewReplLog(h.GroupCommit)
		if err := store.AttachReplLog(h.ReplLog); err != nil {
			return nil, err
		}
	} else if h.GroupCommit != nil {
		store.AttachGroupCommit(h.GroupCommit)
	}
	return h, nil
}
