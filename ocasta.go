// Package ocasta is a from-scratch reproduction of "Ocasta: Clustering
// Configuration Settings For Error Recovery" (Huang & Lie, DSN 2014).
//
// Ocasta observes an application's accesses to its configuration store,
// statistically clusters settings that are modified together (and are
// therefore likely related), and uses those clusters to repair
// configuration errors that span more than one setting by rolling back a
// whole cluster at a time to historical values kept in a time-travel
// key-value store (TTKV).
//
// The package is a facade over the implementation packages:
//
//   - clustering: Correlation metric + hierarchical agglomerative
//     clustering with a tunable threshold (ClusterEvents, ClusterTrace).
//   - TTKV: versioned store with point-in-time reads, segmented
//     append-only-log persistence, and a network protocol (NewStore,
//     OpenStore, Serve).
//   - Loggers: Windows-registry, GConf, and configuration-file
//     interception feeding the TTKV (NewLogger).
//   - Repair: sandboxed rollback search over cluster histories
//     (NewRepairTool).
//
// See README.md for the quickstart (build, test, and CLI usage); `go run
// ./cmd/repro` regenerates the paper-versus-measured comparison of every
// table and figure.
package ocasta

import (
	"slices"
	"time"

	"ocasta/internal/core"
	"ocasta/internal/trace"
)

// Re-exported clustering types.
type (
	// Cluster is a group of related configuration settings.
	Cluster = core.Cluster
	// Linkage selects the HAC linkage criterion.
	Linkage = core.Linkage
	// GroundTruth scores extracted clusters against known relations.
	GroundTruth = core.GroundTruth
	// Report is a per-application accuracy report (a Table II row).
	Report = core.Report
	// PairStats holds co-modification statistics.
	PairStats = core.PairStats
	// Verdict classifies one cluster against ground truth.
	Verdict = core.Verdict
)

// Re-exported trace types.
type (
	// Event is one logged configuration-store access.
	Event = trace.Event
	// Trace is an ordered event sequence from one machine or user.
	Trace = trace.Trace
	// Op is the access kind (read, write, delete).
	Op = trace.Op
	// StoreKind identifies the configuration store a key lives in.
	StoreKind = trace.StoreKind
	// GroupMode selects the sliding-window grouping behaviour.
	GroupMode = trace.GroupMode
	// Group is one co-modification episode (a window's key set).
	Group = trace.Group
	// StreamWindower windows a live write stream incrementally.
	StreamWindower = trace.StreamWindower
)

// Re-exported streaming analytics types.
type (
	// Engine is the streaming analytics engine: push events (or attach it
	// to a Store with SetStatsObserver), recluster periodically, read the
	// published clusters. Its output is byte-identical to one-shot
	// clustering of the same events (core.StatsOf + Cluster, each
	// application windowed on its own), with bounded staleness.
	Engine = core.Engine
	// EngineConfig tunes an Engine; the zero value selects the paper's
	// defaults.
	EngineConfig = core.EngineConfig
)

// NewEngine returns an empty streaming analytics engine.
func NewEngine(cfg EngineConfig) *Engine { return core.NewEngine(cfg) }

// NewStreamWindower returns a push-based windower emitting groups to
// emit; see trace.NewStreamWindower for the horizon and buffer-borrowing
// contract.
func NewStreamWindower(window time.Duration, mode GroupMode, horizon time.Duration, emit func(*Group)) *StreamWindower {
	return trace.NewStreamWindower(window, mode, horizon, emit)
}

// Re-exported constants.
const (
	OpRead   = trace.OpRead
	OpWrite  = trace.OpWrite
	OpDelete = trace.OpDelete

	StoreRegistry = trace.StoreRegistry
	StoreGConf    = trace.StoreGConf
	StoreFile     = trace.StoreFile

	LinkageComplete = core.LinkageComplete
	LinkageSingle   = core.LinkageSingle
	LinkageAverage  = core.LinkageAverage

	VerdictExact      = core.VerdictExact
	VerdictUndersized = core.VerdictUndersized
	VerdictOversized  = core.VerdictOversized

	// DefaultWindow is the paper's default 1-second co-modification
	// window.
	DefaultWindow = trace.DefaultWindow
	// DefaultCorrelationThreshold is the paper's default: only settings
	// that are always modified together cluster.
	DefaultCorrelationThreshold = 2.0
)

// Config tunes the clustering pipeline. The zero value selects the
// paper's defaults.
type Config struct {
	// Window is the sliding co-modification window (default 1 s).
	Window time.Duration
	// Threshold is the correlation threshold in (0, 2] (default 2).
	Threshold float64
	// Linkage is the HAC criterion (default complete/maximum linkage).
	Linkage Linkage
	// Parallelism bounds how many connected components of the
	// co-modification graph are clustered concurrently; <= 0 (the
	// default) uses all CPUs. Output is identical at every setting.
	Parallelism int
}

func (c Config) normalized() Config {
	if c.Window <= 0 {
		c.Window = DefaultWindow
	}
	if c.Threshold <= 0 || c.Threshold > 2 {
		c.Threshold = DefaultCorrelationThreshold
	}
	if c.Linkage == 0 {
		c.Linkage = LinkageComplete
	}
	return c
}

// ClusterEvents extracts clusters of related configuration settings from a
// write/delete event stream (events of other operations are ignored). The
// whole stream is windowed as one, whatever application each event names:
// use ClusterTrace to window one application's writes on their own.
func ClusterEvents(events []Event, cfg Config) []Cluster {
	cfg = cfg.normalized()
	oneStream := slices.Clone(events)
	for i := range oneStream {
		oneStream[i].App = ""
	}
	ps := core.StatsOf(oneStream, cfg.Window)
	return core.NewClusterer(cfg.Linkage).
		WithParallelism(cfg.Parallelism).
		Cluster(ps, core.ThresholdFromCorrelation(cfg.Threshold))
}

// ClusterTrace extracts clusters for one application from a recorded
// trace; events of other applications are grouped independently and
// excluded.
func ClusterTrace(tr *Trace, app string, cfg Config) []Cluster {
	return ClusterEvents(tr.ByApp(app).Events, cfg)
}

// Correlation computes the paper's pairwise metric from co-modification
// episode counts: |A∩B|/|A| + |A∩B|/|B|, in [0, 2].
func Correlation(co, a, b int) float64 { return core.Correlation(co, a, b) }

// PairStatsOf computes co-modification statistics for an application's
// write stream under cfg's window.
func PairStatsOf(tr *Trace, app string, cfg Config) *PairStats {
	return core.StatsOf(tr.ByApp(app).Events, cfg.normalized().Window)
}

// NewGroundTruth builds a reference partition from groups of related
// setting names.
func NewGroundTruth(groups [][]string) *GroundTruth { return core.NewGroundTruth(groups) }

// Evaluate scores clusters against ground truth, as in Table II.
func Evaluate(app string, clusters []Cluster, gt *GroundTruth) Report {
	return core.Evaluate(app, clusters, gt)
}

// SortForRecovery orders clusters the way the repair tool searches them:
// rarely-modified (configuration-like) clusters first.
func SortForRecovery(clusters []Cluster) { core.SortForRecovery(clusters) }

// MultiKey filters to clusters with more than one setting.
func MultiKey(clusters []Cluster) []Cluster { return core.MultiKey(clusters) }
