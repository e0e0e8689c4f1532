// Command ttkvd runs the TTKV daemon: the shared time-travel key-value
// store Ocasta's loggers record into (the role Redis played in the paper's
// deployment).
//
//	ttkvd -addr 127.0.0.1:7677 -aof-dir /var/lib/ocasta/segments \
//	      -shards 16 -fsync interval -fsync-interval 50ms
//
// With -aof-dir, history lives in a segmented log: sealed, checksummed
// segments (rolled past -segment-bytes) plus an active tail. Startup
// replays sealed segments in parallel, every write is appended durably
// through a group-commit batch writer, and replica catch-up is served
// straight from the covering segment files. -compact rewrites history as
// a fresh segment generation committed by an atomic index swap
// (optionally trimming each key's history to -retain versions), so
// replay cost stays bounded across restarts:
//
//	ttkvd -addr 127.0.0.1:7677 -aof-dir /var/lib/ocasta/segments \
//	      -segment-bytes 67108864 -compact -retain 1000
//
// The import-aof subcommand migrates a flat append-only file from an
// earlier release into a segment directory, offline:
//
//	ttkvd import-aof -in /var/lib/ocasta/store.aof -out /var/lib/ocasta/segments
//
// The daemon also serves the paper's recovery loop over the wire: REPAIR
// submits an asynchronous cluster-rollback search (parallel trial workers,
// bounded by -repair-workers / -repair-max-active / -repair-max-jobs),
// RSTAT polls progress and screenshots, RFIX applies a confirmed fix
// atomically.
//
// Every ttkvd is a replication primary: replicas attach with SYNC and
// receive a snapshot plus a live tail of committed records. Run a read
// replica with
//
//	ttkvd -addr 127.0.0.1:7678 -replica-of 127.0.0.1:7677
//
// The replica serves reads, history, CLUSTERS/CORR (computed locally from
// the replayed stream), and repair diagnosis; writes and RFIX are rejected
// with a typed READONLY/MOVED redirect. REPLSTAT reports role and lag on
// both ends.
//
// With -failover, the daemon joins an automatic-failover group: each
// member leases its view of the primary off the replication stream's
// heartbeats, the highest-applied replica self-promotes (epoch-fenced)
// when the lease expires, and a revived stale primary demotes itself and
// resyncs. -peers names the other members; -semi-sync-acks makes write
// acknowledgements wait for K replica acks so promotion never loses an
// acked write:
//
//	ttkvd -addr :7677 -failover -peers 127.0.0.1:7678,127.0.0.1:7679 \
//	      -semi-sync-acks 1
//
// With -slot-range, the daemon joins a multi-primary hash-slot cluster:
// the keyspace is partitioned over a fixed slot space (-cluster-slots,
// default 16384; a key's slot is CRC16 of its hash-tag), each primary
// serves only its owned ranges and answers writes for foreign slots with
// a MOVED redirect naming the owner (-slot-peers seeds the redirect map;
// migration flips update it live). Analytics switch from the local
// observer to a cluster-wide drainer that merges every node's replication
// stream by event time, so CLUSTERS/CORR stay globally correct even for
// co-modification windows spanning nodes:
//
//	ttkvd -addr :7677 -slot-range 0-5461 \
//	      -slot-peers "5462-10922=host2:7677,10923-16383=host3:7677"
//
// The migrate subcommand rehomes slots between live primaries without
// losing acked writes (batched copy, source-sequence watermarks for
// exactly-once hand-off, a brief write fence for the tail, then an
// ownership flip that both sides advertise):
//
//	ttkvd migrate -from host1:7677 -to host2:7677 -slots 100-200
//
// With -backup-dir, the daemon serves the BACKUP and BSTAT commands
// (-backup-interval adds a schedule: a full backup first, incrementals
// after, pruned to -backup-keep chains), writing self-verifying backup
// sets that survive the loss of every log. The restore subcommand
// materializes a set — optionally at a historical sequence number or
// timestamp — into a fresh segment directory, entirely offline:
//
//	ttkvd -addr :7677 -aof-dir segments -backup-dir backups -backup-interval 5m
//	ttkvd restore -backup-dir backups -out restored -at 2026-08-07T12:00:00Z
package main

import (
	"context"
	"errors"
	"flag"
	"fmt"
	"net"
	"os"
	"os/signal"
	"strings"
	"syscall"
	"time"

	"ocasta/internal/backup"
	"ocasta/internal/core"
	"ocasta/internal/trace"
	"ocasta/internal/ttkv"
	"ocasta/internal/ttkvwire"
)

func main() {
	if len(os.Args) > 1 {
		switch os.Args[1] {
		case "restore":
			// Offline disaster recovery: it must work with no daemon
			// running (and typically with the daemon's log lost), so it is
			// a subcommand with its own flags, not a serve-mode option.
			os.Exit(runRestore(os.Args[2:]))
		case "import-aof":
			// A one-shot offline migration from the flat log format.
			os.Exit(runImportAOF(os.Args[2:]))
		case "migrate":
			// Drives a slot migration between two live daemons from the
			// outside (it is restartable at any point).
			os.Exit(runMigrate(os.Args[2:]))
		}
	}
	os.Exit(run())
}

func run() int {
	addr := flag.String("addr", "127.0.0.1:7677", "listen address")
	aofDir := flag.String("aof-dir", "", "segmented append-only log directory for durable history (optional: sealed checksummed segments, parallel replay, segment-served replica catch-up)")
	segmentBytes := flag.Int64("segment-bytes", ttkv.DefaultSegmentBytes, "with -aof-dir, seal the active segment and roll to a new one past this size")
	shards := flag.Int("shards", ttkv.DefaultShards, "store shard count (rounded up to a power of two)")
	fsyncMode := flag.String("fsync", "interval", "AOF fsync policy: always, interval, or never")
	fsyncEvery := flag.Duration("fsync-interval", 50*time.Millisecond, "group-commit flush/fsync interval")
	compact := flag.Bool("compact", false, "with -aof-dir, rewrite the log as a fresh snapshot generation on startup")
	retain := flag.Int("retain", 0, "with -compact, keep only the newest N versions per key (0 = all)")
	reclusterEvery := flag.Duration("recluster-interval", time.Second, "live clustering recluster period (0 disables analytics)")
	window := flag.Duration("window", time.Second, "analytics co-modification window (0 groups only identical timestamps)")
	horizon := flag.Duration("horizon", trace.DefaultHorizon, "analytics reorder horizon for out-of-order write timestamps")
	advance := flag.Bool("recluster-advance", true, "advance the analytics watermark to the wall clock on each recluster tick (disable when replaying historical timestamps slowly)")
	maxSkew := flag.Duration("max-future-skew", 30*time.Second, "quarantine writes stamped further than this beyond the wall clock from analytics windowing (0 trusts all timestamps; set 0 when loading historical traces)")
	repairWorkers := flag.Int("repair-workers", 8, "trial workers per repair job (1 searches sequentially)")
	repairActive := flag.Int("repair-max-active", 2, "repair searches running concurrently; extra accepted jobs queue")
	repairJobs := flag.Int("repair-max-jobs", 64, "repair jobs retained (running+finished); beyond it the oldest finished job is evicted")
	replicaOf := flag.String("replica-of", "", "run as a read replica of the given primary host:port (rejects writes; incompatible with -aof-dir)")
	replOutbox := flag.Int("repl-outbox", ttkv.DefaultOutboxBytes, "per-replica feed outbox bound in bytes; a replica lagging further is dropped and resyncs")
	failover := flag.Bool("failover", false, "join an automatic-failover group: lease failure detection, epoch-fenced replica promotion, stale-primary demotion (configure members with -peers)")
	peersFlag := flag.String("peers", "", "comma-separated addresses of the other failover group members")
	advertiseFlag := flag.String("advertise", "", "address peers and clients should reach this node at (default: the resolved listen address)")
	leaseEvery := flag.Duration("lease-interval", 500*time.Millisecond, "failover lease: a replica that hears nothing from its primary for 2 intervals starts an election")
	semiAcks := flag.Int("semi-sync-acks", 0, "replica acknowledgements each write waits for before the client is acked (0 = asynchronous replication)")
	semiTimeout := flag.Duration("semi-sync-timeout", 2*time.Second, "how long a write waits for semi-sync acks before returning RETRY (applied locally, replication unconfirmed)")
	clusterSlots := flag.Int("cluster-slots", 0, "hash-slot space size for cluster mode (0 with -slot-range selects the default 16384; must match across the cluster)")
	slotRange := flag.String("slot-range", "", "comma-separated slot ranges this node owns, e.g. \"0-5461\" (enables hash-slot cluster mode)")
	slotPeers := flag.String("slot-peers", "", "peer-owned slot ranges for MOVED redirects, e.g. \"5462-10922=host2:7677,10923-16383=host3:7677\" (advisory; migration flips update them live)")
	backupDir := flag.String("backup-dir", "", "backup directory; enables the BACKUP/BSTAT commands (and 'ttkvd restore' reads it)")
	backupEvery := flag.Duration("backup-interval", 0, "take a backup automatically every interval (full first, then incrementals; 0 = manual BACKUP commands only; requires -backup-dir)")
	backupKeep := flag.Int("backup-keep", 3, "with -backup-interval, full-backup chains retained by pruning after each scheduled backup (0 = keep everything)")
	flag.Parse()

	if *shards < 1 || *shards > 1<<16 {
		fmt.Fprintf(os.Stderr, "ttkvd: -shards must be in [1, %d], got %d\n", 1<<16, *shards)
		return 2
	}
	policy, err := ttkv.ParseFsyncPolicy(*fsyncMode)
	if err != nil {
		fmt.Fprintln(os.Stderr, "ttkvd: -fsync:", err)
		return 2
	}
	if *fsyncEvery <= 0 {
		fmt.Fprintf(os.Stderr, "ttkvd: -fsync-interval must be positive, got %v\n", *fsyncEvery)
		return 2
	}
	if *retain < 0 {
		fmt.Fprintf(os.Stderr, "ttkvd: -retain must be >= 0, got %d\n", *retain)
		return 2
	}
	if *retain > 0 && !*compact {
		fmt.Fprintln(os.Stderr, "ttkvd: -retain requires -compact")
		return 2
	}
	if *compact && *aofDir == "" {
		fmt.Fprintln(os.Stderr, "ttkvd: -compact requires -aof-dir")
		return 2
	}
	if *segmentBytes <= 0 {
		fmt.Fprintf(os.Stderr, "ttkvd: -segment-bytes must be positive, got %d\n", *segmentBytes)
		return 2
	}
	if *reclusterEvery < 0 {
		fmt.Fprintf(os.Stderr, "ttkvd: -recluster-interval must be >= 0, got %v\n", *reclusterEvery)
		return 2
	}
	if *window < 0 {
		fmt.Fprintf(os.Stderr, "ttkvd: -window must be >= 0, got %v\n", *window)
		return 2
	}
	if *horizon < 0 {
		fmt.Fprintf(os.Stderr, "ttkvd: -horizon must be >= 0, got %v\n", *horizon)
		return 2
	}
	if *maxSkew < 0 {
		fmt.Fprintf(os.Stderr, "ttkvd: -max-future-skew must be >= 0, got %v\n", *maxSkew)
		return 2
	}
	if *repairWorkers < 1 {
		fmt.Fprintf(os.Stderr, "ttkvd: -repair-workers must be >= 1, got %d\n", *repairWorkers)
		return 2
	}
	if *repairActive < 1 {
		fmt.Fprintf(os.Stderr, "ttkvd: -repair-max-active must be >= 1, got %d\n", *repairActive)
		return 2
	}
	if *repairJobs < 1 {
		fmt.Fprintf(os.Stderr, "ttkvd: -repair-max-jobs must be >= 1, got %d\n", *repairJobs)
		return 2
	}
	if *replOutbox < 1 {
		fmt.Fprintf(os.Stderr, "ttkvd: -repl-outbox must be >= 1, got %d\n", *replOutbox)
		return 2
	}
	if *replicaOf != "" && *aofDir != "" {
		// A replica replays the primary's records verbatim (same sequence
		// numbers) and resyncs from the primary after a restart; it never
		// keeps its own log.
		fmt.Fprintln(os.Stderr, "ttkvd: -replica-of is incompatible with -aof-dir (replicas resync from the primary)")
		return 2
	}
	if *leaseEvery <= 0 {
		fmt.Fprintf(os.Stderr, "ttkvd: -lease-interval must be positive, got %v\n", *leaseEvery)
		return 2
	}
	if *semiAcks < 0 {
		fmt.Fprintf(os.Stderr, "ttkvd: -semi-sync-acks must be >= 0, got %d\n", *semiAcks)
		return 2
	}
	if *semiTimeout <= 0 {
		fmt.Fprintf(os.Stderr, "ttkvd: -semi-sync-timeout must be positive, got %v\n", *semiTimeout)
		return 2
	}
	if *backupEvery < 0 {
		fmt.Fprintf(os.Stderr, "ttkvd: -backup-interval must be >= 0, got %v\n", *backupEvery)
		return 2
	}
	if *backupEvery > 0 && *backupDir == "" {
		fmt.Fprintln(os.Stderr, "ttkvd: -backup-interval requires -backup-dir")
		return 2
	}
	if *backupKeep < 0 {
		fmt.Fprintf(os.Stderr, "ttkvd: -backup-keep must be >= 0, got %d\n", *backupKeep)
		return 2
	}
	var peers []string
	for _, p := range strings.Split(*peersFlag, ",") {
		if p = strings.TrimSpace(p); p != "" {
			peers = append(peers, p)
		}
	}
	if !*failover && *peersFlag != "" {
		fmt.Fprintln(os.Stderr, "ttkvd: -peers requires -failover")
		return 2
	}
	clusterMode := *slotRange != ""
	if *clusterSlots < 0 {
		fmt.Fprintf(os.Stderr, "ttkvd: -cluster-slots must be >= 0, got %d\n", *clusterSlots)
		return 2
	}
	if (*clusterSlots > 0 || *slotPeers != "") && !clusterMode {
		fmt.Fprintln(os.Stderr, "ttkvd: -cluster-slots/-slot-peers require -slot-range")
		return 2
	}
	slotSpace := *clusterSlots
	if slotSpace == 0 {
		slotSpace = ttkv.DefaultSlotCount
	}
	var ownedRanges, peerRanges []ttkvwire.SlotRange
	if clusterMode {
		if ownedRanges, err = ttkvwire.ParseSlotRanges(*slotRange, slotSpace); err != nil {
			fmt.Fprintln(os.Stderr, "ttkvd: -slot-range:", err)
			return 2
		}
		if peerRanges, err = ttkvwire.ParseSlotRanges(*slotPeers, slotSpace); err != nil {
			fmt.Fprintln(os.Stderr, "ttkvd: -slot-peers:", err)
			return 2
		}
		for _, r := range peerRanges {
			if r.Addr == "" {
				fmt.Fprintf(os.Stderr, "ttkvd: -slot-peers range %d-%d needs an =addr owner\n", r.Lo, r.Hi)
				return 2
			}
		}
	}

	store := ttkv.NewSharded(*shards)
	var engine *core.Engine
	if *reclusterEvery > 0 {
		engWindow := *window
		if engWindow == 0 {
			engWindow = -1 // EngineConfig: negative selects the zero-second window
		}
		engine = core.NewEngine(core.EngineConfig{
			Window:        engWindow,
			Horizon:       *horizon,
			MaxFutureSkew: *maxSkew,
		})
	}
	var gc *ttkv.GroupCommit
	closeAOF := func() {
		// GroupCommit.Close is idempotent, so this is safe even after a
		// failover demotion already retired the appender.
		if gc != nil {
			if cerr := gc.Close(); cerr != nil {
				fmt.Fprintln(os.Stderr, "ttkvd: closing AOF:", cerr)
			}
		}
	}
	var segs *ttkv.SegmentedAOF
	if *aofDir != "" {
		segCfg := ttkv.SegmentedConfig{MaxSegmentBytes: *segmentBytes}
		if *compact {
			// Segment compaction rewrites the directory as a fresh
			// generation before the log is opened for appending; there is
			// no close-and-reopen dance because the commit is the index
			// swap, not a file rename.
			if err := ttkv.CompactSegmentDir(*aofDir, *shards, *retain, segCfg); err != nil {
				fmt.Fprintln(os.Stderr, "ttkvd: compacting segments:", err)
				return 1
			}
			fmt.Printf("ttkvd: compacted %s (retain=%d)\n", *aofDir, *retain)
		}
		sa, err := ttkv.OpenSegmentedInto(*aofDir, store, segCfg)
		if err != nil {
			fmt.Fprintln(os.Stderr, "ttkvd: replaying segments:", err)
			return 1
		}
		if st := sa.Stats(); store.Len() > 0 {
			fmt.Printf("ttkvd: replayed %d keys (%d records, %d sealed segments) from %s\n",
				store.Len(), st.Records, st.Sealed, *aofDir)
		}
		segs = sa
		gc = ttkv.NewGroupCommit(sa, ttkv.GroupCommitConfig{
			FlushInterval: *fsyncEvery,
			Fsync:         policy,
		})
	}
	if engine != nil && !clusterMode {
		// Parallel segment replay bypasses observers; feed the replayed
		// history through in sequence order, then attach for live writes.
		// (In cluster mode the engine's only feed is the cross-node
		// drainer — which also covers this node's own history, replayed
		// or live.)
		store.ObserveHistory(engine)
		store.SetStatsObserver(engine)
	}

	srv := ttkvwire.NewServer(store)
	var backups *backup.Manager
	if *backupDir != "" {
		// The manager works the same on a primary and a read-only replica
		// (backups never take the store's write locks), so BACKUP/BSTAT
		// stay available across failover role changes.
		if backups, err = backup.NewManager(store, *backupDir, backup.Options{}); err != nil {
			fmt.Fprintln(os.Stderr, "ttkvd:", err)
			closeAOF()
			return 1
		}
		srv.SetBackups(backups)
	}
	srv.SetRepair(ttkvwire.RepairConfig{
		Workers:   *repairWorkers,
		MaxActive: *repairActive,
		MaxJobs:   *repairJobs,
	})

	// Listening happens before replication wiring so the advertised
	// address can default to the resolved one (-addr :0 stays usable).
	ln, err := net.Listen("tcp", *addr)
	if err != nil {
		fmt.Fprintln(os.Stderr, "ttkvd: listen:", err)
		closeAOF()
		return 1
	}
	advertise := *advertiseFlag
	if advertise == "" {
		advertise = ln.Addr().String()
	}
	srv.SetAdvertise(advertise)
	if clusterMode {
		if err := srv.EnableCluster(slotSpace, ownedRanges, peerRanges); err != nil {
			fmt.Fprintln(os.Stderr, "ttkvd: enabling cluster mode:", err)
			ln.Close()
			closeAOF()
			return 1
		}
	}

	semiSync := ttkvwire.SemiSyncConfig{Acks: *semiAcks, Timeout: *semiTimeout}
	logf := func(format string, args ...any) {
		fmt.Printf("ttkvd: "+format+"\n", args...)
	}
	role := "primary"
	var replica *ttkvwire.ReplicaClient
	var node *ttkvwire.Node
	switch {
	case *failover:
		ncfg := ttkvwire.NodeConfig{
			Store:         store,
			Server:        srv,
			Self:          advertise,
			Peers:         peers,
			LeaseInterval: *leaseEvery,
			Replication:   ttkvwire.ReplicationConfig{OutboxBytes: *replOutbox},
			SemiSync:      semiSync,
			Logf:          logf,
		}
		if engine != nil && !clusterMode {
			// In cluster mode the engine is drainer-fed, not store-fed: a
			// local resync neither duplicates its records nor needs a reset
			// (the drainer detects peer incarnation changes on its own).
			ncfg.OnReset = engine.Reset
		}
		if *replicaOf == "" {
			rl := ttkv.NewReplLog(gc)
			if err := store.AttachReplLog(rl); err != nil {
				fmt.Fprintln(os.Stderr, "ttkvd: attaching replication log:", err)
				ln.Close()
				closeAOF()
				return 1
			}
			ncfg.Primary = true
			ncfg.ReplLog = rl
			ncfg.GroupCommit = gc
			role = "primary, failover"
		} else {
			ncfg.PrimaryAddr = *replicaOf
			role = "replica of " + *replicaOf + ", failover"
		}
		if node, err = ttkvwire.StartNode(ncfg); err != nil {
			fmt.Fprintln(os.Stderr, "ttkvd: starting failover node:", err)
			ln.Close()
			closeAOF()
			return 1
		}
	case *replicaOf == "":
		// Every non-replica ttkvd can feed replicas: the replication log
		// wraps the group-commit appender (nil without -aof-dir, in which case
		// records are shippable the instant they apply) and becomes the
		// store's sink and sequence minter.
		rl := ttkv.NewReplLog(gc)
		if err := store.AttachReplLog(rl); err != nil {
			fmt.Fprintln(os.Stderr, "ttkvd: attaching replication log:", err)
			ln.Close()
			closeAOF()
			return 1
		}
		// Segments (when running on -aof-dir) lets SYNC serve catch-up
		// ranges straight from the segment files. Only safe here, on a
		// permanent primary: a failover node can demote and resync, after
		// which the store renumbers but the retired segment files do not.
		srv.EnableReplication(rl, ttkvwire.ReplicationConfig{OutboxBytes: *replOutbox, Segments: segs})
		srv.SetSemiSync(semiSync)
	default:
		role = "replica of " + *replicaOf
		srv.SetReadOnly(true)
		srv.SetLeaderHint(*replicaOf)
		rcfg := ttkvwire.ReplicaConfig{
			Primary: *replicaOf,
			Store:   store,
			Logf:    logf,
		}
		if engine != nil && !clusterMode {
			// A full resync replays the new primary's history through the
			// observer from scratch; stale statistics must not remain.
			// (Drainer-fed engines track incarnations themselves.)
			rcfg.OnReset = engine.Reset
		}
		if replica, err = ttkvwire.NewReplicaClient(rcfg); err != nil {
			fmt.Fprintln(os.Stderr, "ttkvd: starting replication:", err)
			ln.Close()
			closeAOF()
			return 1
		}
		srv.SetReplicaStatus(replica)
	}
	stopMembers := func() {
		if node != nil {
			node.Stop()
		}
		if replica != nil {
			replica.Stop()
		}
	}
	var reclusterStop chan struct{}
	if engine != nil {
		srv.SetAnalytics(engine)
		if clusterMode {
			// Global analytics: one drainer pulls every primary's
			// replication stream (this node's included, over loopback like
			// the rest) and time-merges them into the engine, so windows
			// spanning node boundaries reassemble. The drain interval rides
			// the recluster interval; keep both below -horizon or live
			// cross-node grouping degrades to per-round granularity.
			drainPeers := []string{advertise}
			seen := map[string]bool{advertise: true}
			for _, r := range peerRanges {
				if !seen[r.Addr] {
					seen[r.Addr] = true
					drainPeers = append(drainPeers, r.Addr)
				}
			}
			drainer, derr := ttkvwire.NewAnalyticsDrainer(ttkvwire.AnalyticsDrainerConfig{
				Engine: engine,
				Peers:  drainPeers,
				Logf:   logf,
			})
			if derr != nil {
				fmt.Fprintln(os.Stderr, "ttkvd: starting analytics drainer:", derr)
				stopMembers()
				ln.Close()
				closeAOF()
				return 1
			}
			drainCtx, drainCancel := context.WithCancel(context.Background())
			defer drainCancel()
			go drainer.Run(drainCtx, *reclusterEvery)
		}
		// Fold in whatever the replay produced before serving: CLUSTERS is
		// then meaningful from the first request.
		engine.AdvanceTo(time.Now())
		engine.Recluster()
		reclusterStop = make(chan struct{})
		go func() {
			ticker := time.NewTicker(*reclusterEvery)
			defer ticker.Stop()
			for {
				select {
				case <-reclusterStop:
					return
				case <-ticker.C:
					// On a replica mid-catch-up, the stream carries
					// historical timestamps; advancing the watermark to
					// the wall clock would make them bypass the reorder
					// buffer and window in arrival order, diverging the
					// replica's clusters from the primary's. Advance only
					// once the replica is streaming live records (the
					// primary's own replay finishes before this ticker
					// starts, so it never has the problem).
					catchingUp := false
					if node != nil {
						if st, ok := node.ReplicaStatus(); ok {
							catchingUp = st.State != ttkvwire.ReplicaStreaming
						}
					} else if replica != nil {
						catchingUp = replica.ReplicaStatus().State != ttkvwire.ReplicaStreaming
					}
					if *advance && !catchingUp {
						engine.AdvanceTo(time.Now())
					}
					engine.Recluster()
				}
			}
		}()
	}
	var backupStop chan struct{}
	if backups != nil && *backupEvery > 0 {
		backupStop = make(chan struct{})
		go func() {
			ticker := time.NewTicker(*backupEvery)
			defer ticker.Stop()
			for {
				select {
				case <-backupStop:
					return
				case <-ticker.C:
					man, err := backups.Auto()
					switch {
					case errors.Is(err, backup.ErrUpToDate):
						// No new records since the last backup; nothing to do.
					case err != nil:
						// Failures (including a replica full-resync racing the
						// export) are logged and retried next tick; the
						// schedule never stops.
						logf("backup failed: %v", err)
					default:
						logf("backup %s (%s) covering seqs (%d, %d]: %d records, %d bytes in %d files",
							man.ID, man.Kind, man.Base, man.UpTo, man.Records(), man.TotalBytes(), len(man.Files))
						if *backupKeep > 0 {
							res, err := backups.Prune(*backupKeep)
							if err != nil {
								logf("backup prune failed: %v", err)
							} else if res.Backups > 0 || res.DataFiles > 0 || res.TempFiles > 0 {
								logf("backup prune: removed %d backups, %d record files, %d temp files",
									res.Backups, res.DataFiles, res.TempFiles)
							}
						}
					}
				}
			}
		}()
	}
	done := make(chan error, 1)
	go func() { done <- srv.Serve(ln) }()
	analyticsState := "off"
	if engine != nil {
		analyticsState = fmt.Sprintf("every %v", *reclusterEvery)
	}
	// The signal handler must be armed before the readiness line below:
	// supervisors treat "serving on" as permission to manage the process,
	// and a SIGTERM landing in the gap would bypass the graceful path.
	sig := make(chan os.Signal, 1)
	signal.Notify(sig, os.Interrupt, syscall.SIGTERM)
	if clusterMode {
		fmt.Printf("ttkvd: cluster mode: %d slots, serving %s\n", slotSpace, *slotRange)
	}
	// The resolved listener address (not the flag) so -addr :0 is usable.
	fmt.Printf("ttkvd: serving on %s (role=%s shards=%d fsync=%s recluster=%s repair-workers=%d)\n",
		ln.Addr(), role, store.NumShards(), policy, analyticsState, *repairWorkers)
	select {
	case <-sig:
		fmt.Println("ttkvd: shutting down")
		// The failover loop stops first so no promotion or demotion races
		// the teardown; a replica finishes applying its in-flight frame
		// and stops acking before the server drops its clients; a
		// primary's Close severs the feeds (replicas resume from their
		// applied seq).
		stopMembers()
		srv.Close()
		<-done
	case err := <-done:
		if err != nil && err != ttkvwire.ErrServerClosed {
			fmt.Fprintln(os.Stderr, "ttkvd:", err)
			if reclusterStop != nil {
				close(reclusterStop)
			}
			if backupStop != nil {
				close(backupStop)
			}
			stopMembers()
			closeAOF()
			return 1
		}
	}
	if reclusterStop != nil {
		close(reclusterStop)
	}
	if backupStop != nil {
		close(backupStop)
	}
	if gc != nil {
		// Close drains pending batches, fsyncs, and closes the file (a
		// no-op if a demotion already retired the appender).
		if err := gc.Close(); err != nil {
			fmt.Fprintln(os.Stderr, "ttkvd: closing AOF:", err)
			return 1
		}
	}
	return 0
}
