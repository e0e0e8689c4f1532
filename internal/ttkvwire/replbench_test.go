package ttkvwire

import (
	"fmt"
	"net"
	"sync/atomic"
	"testing"
	"time"

	"ocasta/internal/ttkv"
)

// BenchmarkReplicatedReads measures aggregate GET throughput against a
// replicated deployment: one primary plus N in-process read replicas on
// loopback, with client connections spread round-robin across every node.
// replicas=0 is the single-node baseline. Each op is one GET round trip;
// b.N ops are split across GOMAXPROCS parallel clients. The numbers
// recorded in BENCH_replication.json come from this benchmark.
//
// On a single-core host every node shares the CPU, so the per-op cost
// stays flat as replicas are added; what the numbers then demonstrate is
// that the replication machinery adds no read-path overhead (reads never
// touch the feed). The capacity win appears once nodes have their own
// cores or machines.
func BenchmarkReplicatedReads(b *testing.B) {
	const keys = 2000
	base := time.Date(2013, 6, 1, 0, 0, 0, 0, time.UTC)

	for _, replicas := range []int{0, 1, 2, 4} {
		b.Run(fmt.Sprintf("replicas=%d", replicas), func(b *testing.B) {
			primary := ttkv.NewSharded(16)
			rl := ttkv.NewReplLog(nil)
			if err := primary.AttachReplLog(rl); err != nil {
				b.Fatal(err)
			}
			for i := 0; i < keys; i++ {
				if err := primary.Set(fmt.Sprintf("bench/k%04d", i), fmt.Sprintf("value-%d", i), base.Add(time.Duration(i)*time.Second)); err != nil {
					b.Fatal(err)
				}
			}
			srv := NewServer(primary)
			srv.EnableReplication(rl, ReplicationConfig{HeartbeatInterval: 100 * time.Millisecond})
			ln, err := net.Listen("tcp", "127.0.0.1:0")
			if err != nil {
				b.Fatal(err)
			}
			go srv.Serve(ln) //nolint:errcheck
			defer srv.Close()

			endpoints := []string{ln.Addr().String()}
			rcs := make([]*ReplicaClient, 0, replicas)
			for r := 0; r < replicas; r++ {
				store := ttkv.NewSharded(16)
				rc, err := NewReplicaClient(ReplicaConfig{
					Primary:    endpoints[0],
					Store:      store,
					MinBackoff: 10 * time.Millisecond,
				})
				if err != nil {
					b.Fatal(err)
				}
				defer rc.Stop()
				rcs = append(rcs, rc)
				rsrv := NewServer(store)
				rsrv.SetReadOnly(true)
				rln, err := net.Listen("tcp", "127.0.0.1:0")
				if err != nil {
					b.Fatal(err)
				}
				go rsrv.Serve(rln) //nolint:errcheck
				defer rsrv.Close()
				endpoints = append(endpoints, rln.Addr().String())
			}
			target := rl.DurableSeq()
			for _, rc := range rcs {
				for rc.AppliedSeq() < target {
					time.Sleep(time.Millisecond)
				}
			}

			var next atomic.Uint64
			b.ResetTimer()
			b.RunParallel(func(pb *testing.PB) {
				ep := endpoints[int(next.Add(1))%len(endpoints)]
				cl, err := Dial(ep)
				if err != nil {
					b.Error(err)
					return
				}
				defer cl.Close()
				i := 0
				for pb.Next() {
					key := fmt.Sprintf("bench/k%04d", i%keys)
					if _, err := cl.Get(key); err != nil {
						b.Error(err)
						return
					}
					i++
				}
			})
		})
	}
}

// BenchmarkReplicationCatchUp measures how fast a fresh replica ingests a
// primary's history over the wire: the SYNC snapshot stream plus
// ApplyReplicated on the replica side, reported as records/s. This is the
// window of vulnerability after adding or restarting a replica.
func BenchmarkReplicationCatchUp(b *testing.B) {
	const records = 50000
	base := time.Date(2013, 6, 1, 0, 0, 0, 0, time.UTC)
	primary := ttkv.NewSharded(16)
	rl := ttkv.NewReplLog(nil)
	if err := primary.AttachReplLog(rl); err != nil {
		b.Fatal(err)
	}
	for i := 0; i < records; i++ {
		k := fmt.Sprintf("bench/k%04d", i%5000)
		if err := primary.Set(k, fmt.Sprintf("value-%08d", i), base.Add(time.Duration(i)*time.Second)); err != nil {
			b.Fatal(err)
		}
	}
	srv := NewServer(primary)
	srv.EnableReplication(rl, ReplicationConfig{HeartbeatInterval: 100 * time.Millisecond})
	ln, err := net.Listen("tcp", "127.0.0.1:0")
	if err != nil {
		b.Fatal(err)
	}
	go srv.Serve(ln) //nolint:errcheck
	defer srv.Close()
	target := rl.DurableSeq()

	b.ResetTimer()
	for n := 0; n < b.N; n++ {
		store := ttkv.NewSharded(16)
		rc, err := NewReplicaClient(ReplicaConfig{Primary: ln.Addr().String(), Store: store})
		if err != nil {
			b.Fatal(err)
		}
		for rc.AppliedSeq() < target {
			time.Sleep(100 * time.Microsecond)
		}
		rc.Stop()
	}
	b.StopTimer()
	b.ReportMetric(float64(records*b.N)/b.Elapsed().Seconds(), "records/s")
}

// BenchmarkSemiSyncMSet measures the acknowledged-write path end to end: a
// primary logging through a group-commit AOF (-fsync interval, the default
// 50 ms flush interval) with -semi-sync-acks 1, one in-process replica, and
// parallel clients each sending one 6-key MSET per op. An op completes when
// the write is committed per policy, shipped, applied and acked by the
// replica — the demand-driven commit, the feed and the ack wake-up, not the
// flush timer, set its latency.
func BenchmarkSemiSyncMSet(b *testing.B) {
	const keysPerOp = 6
	base := time.Date(2013, 6, 1, 0, 0, 0, 0, time.UTC)
	primary := ttkv.NewSharded(16)
	aof, err := ttkv.OpenSegmented(b.TempDir(), ttkv.SegmentedConfig{})
	if err != nil {
		b.Fatal(err)
	}
	gc := ttkv.NewGroupCommit(aof, ttkv.GroupCommitConfig{Fsync: ttkv.FsyncInterval})
	defer gc.Close()
	rl := ttkv.NewReplLog(gc)
	if err := primary.AttachReplLog(rl); err != nil {
		b.Fatal(err)
	}
	defer primary.AttachReplLog(nil) //nolint:errcheck
	srv, addr := startReplPrimary(b, primary, rl, nil)
	srv.SetSemiSync(SemiSyncConfig{Acks: 1})
	_, rc, _ := startReplicaNode(b, addr, nil)
	defer rc.Stop()

	var client atomic.Uint64
	b.ResetTimer()
	b.RunParallel(func(pb *testing.PB) {
		id := client.Add(1)
		cl, err := Dial(addr)
		if err != nil {
			b.Error(err)
			return
		}
		defer cl.Close()
		muts := make([]ttkv.Mutation, keysPerOp)
		for i := 0; pb.Next(); i++ {
			for k := range muts {
				muts[k] = ttkv.Mutation{
					Key:   fmt.Sprintf("bench/c%d/comp%03d/k%d", id, i%400, k),
					Value: fmt.Sprintf("value-%08d", i),
					Time:  base.Add(time.Duration(i) * time.Second),
				}
			}
			if err := cl.MSet(muts); err != nil {
				b.Error(err)
				return
			}
		}
	})
	b.StopTimer()
	b.ReportMetric(float64(gc.FlushCount())/float64(b.N), "flushes/op")
}
