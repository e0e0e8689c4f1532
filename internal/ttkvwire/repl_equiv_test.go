package ttkvwire

import (
	"bytes"
	"fmt"
	"math/rand"
	"sync"
	"testing"
	"time"

	"ocasta/internal/core"
	"ocasta/internal/ttkv"
	"ocasta/internal/workload"
)

// replEquivCase is one primary configuration of the equivalence matrix.
type replEquivCase struct {
	name     string
	shards   int
	fsync    string // "" = in-memory primary (no AOF)
	replicas int
	seed     int64
}

// buildMutations converts a synthetic co-modification trace into the
// mutation stream the suite drives: mostly sets, every 10th event a
// delete of the same key, preserving trace order.
func buildMutations(spec workload.StreamSpec) []ttkv.Mutation {
	tr := workload.SyntheticStream(spec)
	muts := make([]ttkv.Mutation, 0, len(tr.Events))
	for i, ev := range tr.Events {
		m := ttkv.Mutation{Key: ev.Key, Value: ev.Value, Time: ev.Time}
		if i%10 == 9 {
			m.Delete, m.Value = true, ""
		}
		muts = append(muts, m)
	}
	return muts
}

// startEquivPrimary builds the case's primary: sharded store, optional
// group-commit segmented log per fsync policy, replication log, engine,
// server.
func startEquivPrimary(t *testing.T, c replEquivCase, engine *core.Engine) (*ttkv.Store, *ttkv.ReplLog, string) {
	t.Helper()
	store := ttkv.NewSharded(c.shards)
	if engine != nil {
		store.SetStatsObserver(engine)
	}
	var gc *ttkv.GroupCommit
	if c.fsync != "" {
		policy, err := ttkv.ParseFsyncPolicy(c.fsync)
		if err != nil {
			t.Fatal(err)
		}
		aof, err := ttkv.OpenSegmented(t.TempDir(), ttkv.SegmentedConfig{})
		if err != nil {
			t.Fatal(err)
		}
		gc = ttkv.NewGroupCommit(aof, ttkv.GroupCommitConfig{
			FlushInterval: 5 * time.Millisecond,
			Fsync:         policy,
		})
		t.Cleanup(func() {
			store.AttachReplLog(nil)
			gc.Close()
		})
	}
	rl := ttkv.NewReplLog(gc)
	if err := store.AttachReplLog(rl); err != nil {
		t.Fatal(err)
	}
	_, addr := startReplPrimary(t, store, rl, engine)
	return store, rl, addr
}

// TestReplEquivalence is the replication equivalence property suite:
// randomized workloads applied to a primary with 1-3 replicas across
// shard counts and fsync policies must yield byte-identical dumps,
// identical per-key histories and ModTimes, and identical engine cluster
// snapshots once lag drains. A mid-stream cluster revert exercises the
// atomic batch path.
func TestReplEquivalence(t *testing.T) {
	cases := []replEquivCase{
		{name: "memory-1shard-1replica", shards: 1, fsync: "", replicas: 1, seed: 101},
		{name: "always-4shards-2replicas", shards: 4, fsync: "always", replicas: 2, seed: 202},
		{name: "interval-16shards-3replicas", shards: 16, fsync: "interval", replicas: 3, seed: 303},
		{name: "never-8shards-2replicas", shards: 8, fsync: "never", replicas: 2, seed: 404},
	}
	for _, c := range cases {
		t.Run(c.name, func(t *testing.T) {
			pEngine := core.NewEngine(core.EngineConfig{})
			primary, rl, addr := startEquivPrimary(t, c, pEngine)

			type replicaNode struct {
				store  *ttkv.Store
				rc     *ReplicaClient
				engine *core.Engine
			}
			nodes := make([]*replicaNode, c.replicas)
			rcs := make([]*ReplicaClient, c.replicas)
			for i := range nodes {
				engine := core.NewEngine(core.EngineConfig{})
				store, rc, _ := startReplicaNode(t, addr, engine)
				nodes[i] = &replicaNode{store: store, rc: rc, engine: engine}
				rcs[i] = rc
			}

			muts := buildMutations(workload.StreamSpec{
				Apps:             2,
				Components:       12,
				KeysPerComponent: 4,
				Episodes:         150,
				Seed:             c.seed,
			})
			rng := rand.New(rand.NewSource(c.seed))

			// Drive in randomized chunk sizes, mixing the batch API with
			// per-op calls; two thirds in, revert one component's cluster
			// (atomic batch through the tap).
			revertAt := 2 * len(muts) / 3
			for i := 0; i < len(muts); {
				if i >= revertAt && revertAt > 0 {
					revertAt = 0
					cluster := componentKeys(muts[:i], rng)
					if len(cluster) > 0 {
						fixAt := muts[i/2].Time
						applyAt := muts[i-1].Time.Add(time.Millisecond)
						if _, err := primary.RevertCluster(cluster, fixAt, applyAt); err != nil {
							t.Fatalf("mid-stream revert: %v", err)
						}
					}
				}
				n := 1 + rng.Intn(40)
				if i+n > len(muts) {
					n = len(muts) - i
				}
				if rng.Intn(2) == 0 {
					if _, err := primary.Apply(muts[i : i+n]); err != nil {
						t.Fatal(err)
					}
				} else {
					for _, m := range muts[i : i+n] {
						var err error
						if m.Delete {
							err = primary.Delete(m.Key, m.Time)
						} else {
							err = primary.Set(m.Key, m.Value, m.Time)
						}
						if err != nil {
							t.Fatal(err)
						}
					}
				}
				i += n
			}

			drainReplicas(t, primary, rl, rcs...)

			pDump := storeDump(t, primary)
			pKeys := primary.Keys()
			pEngine.Flush()
			pEngine.Recluster()
			pClusters, _ := pEngine.Snapshot()
			for i, node := range nodes {
				if !bytes.Equal(storeDump(t, node.store), pDump) {
					t.Fatalf("replica %d dump differs from primary", i)
				}
				for _, k := range pKeys {
					ph, err := primary.History(k)
					if err != nil {
						t.Fatal(err)
					}
					rh, err := node.store.History(k)
					if err != nil {
						t.Fatalf("replica %d History(%q): %v", i, k, err)
					}
					if len(ph) != len(rh) {
						t.Fatalf("replica %d %q: %d versions, want %d", i, k, len(rh), len(ph))
					}
					for j := range ph {
						if ph[j] != rh[j] { // Seq included: exact identity
							t.Fatalf("replica %d %q version %d: %+v != %+v", i, k, j, rh[j], ph[j])
						}
					}
				}
				pm, rm := primary.ModTimes(pKeys), node.store.ModTimes(pKeys)
				if len(pm) != len(rm) {
					t.Fatalf("replica %d: %d modtimes, want %d", i, len(rm), len(pm))
				}
				for j := range pm {
					if !pm[j].Equal(rm[j]) {
						t.Fatalf("replica %d modtimes[%d]: %v != %v", i, j, rm[j], pm[j])
					}
				}
				node.engine.Flush()
				node.engine.Recluster()
				rClusters, _ := node.engine.Snapshot()
				if len(rClusters) != len(pClusters) {
					t.Fatalf("replica %d published %d clusters, primary %d", i, len(rClusters), len(pClusters))
				}
				for j := range pClusters {
					if !clustersEqual(&pClusters[j], &rClusters[j]) {
						t.Fatalf("replica %d cluster %d: %+v != %+v", i, j, rClusters[j], pClusters[j])
					}
				}
			}
		})
	}
}

// componentKeys picks one already-written component's key set (a real
// cluster) from the driven prefix.
func componentKeys(muts []ttkv.Mutation, rng *rand.Rand) []string {
	prefixes := make(map[string][]string)
	seen := make(map[string]bool)
	for _, m := range muts {
		if seen[m.Key] {
			continue
		}
		seen[m.Key] = true
		// Keys look like app00/c0003/k01; group by the component prefix.
		if i := len(m.Key) - 4; i > 0 {
			p := m.Key[:i]
			prefixes[p] = append(prefixes[p], m.Key)
		}
	}
	var comps [][]string
	for _, keys := range prefixes {
		if len(keys) >= 2 {
			comps = append(comps, keys)
		}
	}
	if len(comps) == 0 {
		return nil
	}
	return comps[rng.Intn(len(comps))]
}

// TestReplEquivalenceConcurrentWriters hammers a replicated primary from
// parallel writers (run under -race in CI): whatever interleaving the
// primary commits, every replica must reproduce byte-identically.
func TestReplEquivalenceConcurrentWriters(t *testing.T) {
	c := replEquivCase{shards: 16, fsync: "interval", replicas: 2, seed: 777}
	primary, rl, addr := startEquivPrimary(t, c, nil)
	stores := make([]*ttkv.Store, c.replicas)
	rcs := make([]*ReplicaClient, c.replicas)
	for i := range stores {
		stores[i], rcs[i], _ = startReplicaNode(t, addr, nil)
	}

	const writers = 6
	var wg sync.WaitGroup
	base := time.Date(2013, 6, 1, 0, 0, 0, 0, time.UTC)
	for w := 0; w < writers; w++ {
		wg.Add(1)
		go func(w int) {
			defer wg.Done()
			rng := rand.New(rand.NewSource(int64(w)))
			for i := 0; i < 300; i++ {
				k := fmt.Sprintf("shared/k%02d", rng.Intn(25))
				ts := base.Add(time.Duration(i) * time.Second)
				switch rng.Intn(10) {
				case 0:
					primary.Delete(k, ts)
				case 1:
					primary.Apply([]ttkv.Mutation{
						{Key: k, Value: "batch", Time: ts},
						{Key: fmt.Sprintf("shared/k%02d", rng.Intn(25)), Value: "batch2", Time: ts},
					})
				default:
					primary.Set(k, fmt.Sprintf("w%d-%d", w, i), ts)
				}
			}
		}(w)
	}
	// Concurrent cluster reverts race the writers through the batch path.
	wg.Add(1)
	go func() {
		defer wg.Done()
		for i := 0; i < 10; i++ {
			primary.RevertCluster(
				[]string{"shared/k00", "shared/k07", "shared/k19"},
				base.Add(30*time.Second),
				base.Add(time.Duration(400+i)*time.Second),
			)
			time.Sleep(time.Millisecond)
		}
	}()
	wg.Wait()

	drainReplicas(t, primary, rl, rcs...)
	pDump := storeDump(t, primary)
	for i, rs := range stores {
		if !bytes.Equal(storeDump(t, rs), pDump) {
			t.Fatalf("replica %d dump differs from primary under concurrent writers", i)
		}
	}
	if primary.Stats().Writes == 0 {
		t.Fatal("workload applied nothing")
	}
}
