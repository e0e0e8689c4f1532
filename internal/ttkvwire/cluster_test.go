package ttkvwire

import (
	"bytes"
	"context"
	"errors"
	"fmt"
	"math/rand"
	"reflect"
	"sync"
	"testing"
	"time"

	"net"

	"ocasta/internal/core"
	"ocasta/internal/ttkv"
)

// cnode is one standalone primary in a hash-slot partitioned cluster.
type cnode struct {
	addr  string
	store *ttkv.Store
	rl    *ttkv.ReplLog
	srv   *Server
}

// startSlotCluster starts n independent primaries splitting a slot space
// of the given size into n contiguous even ranges (node i owns
// [i*slots/n, (i+1)*slots/n)). Every node knows every peer range, and
// replication (SYNC) is enabled so migration drivers and analytics
// drainers can attach.
func startSlotCluster(t testing.TB, n, slots int) []*cnode {
	t.Helper()
	lns := make([]net.Listener, n)
	addrs := make([]string, n)
	for i := range lns {
		ln, err := net.Listen("tcp", "127.0.0.1:0")
		if err != nil {
			t.Fatal(err)
		}
		lns[i] = ln
		addrs[i] = ln.Addr().String()
	}
	lo := func(i int) int { return i * slots / n }
	nodes := make([]*cnode, n)
	for i := range nodes {
		store := ttkv.NewSharded(4)
		rl := ttkv.NewReplLog(nil)
		if err := store.AttachReplLog(rl); err != nil {
			t.Fatal(err)
		}
		srv := NewServer(store)
		srv.EnableReplication(rl, ReplicationConfig{HeartbeatInterval: 50 * time.Millisecond})
		srv.SetAdvertise(addrs[i])
		owned := []SlotRange{{Lo: lo(i), Hi: lo(i+1) - 1}}
		var peers []SlotRange
		for j := 0; j < n; j++ {
			if j != i {
				peers = append(peers, SlotRange{Lo: lo(j), Hi: lo(j+1) - 1, Addr: addrs[j]})
			}
		}
		if err := srv.EnableCluster(slots, owned, peers); err != nil {
			t.Fatal(err)
		}
		go srv.Serve(lns[i]) //nolint:errcheck
		t.Cleanup(func() { srv.Close() })
		nodes[i] = &cnode{addr: addrs[i], store: store, rl: rl, srv: srv}
	}
	return nodes
}

func clusterAddrs(nodes []*cnode) []string {
	addrs := make([]string, len(nodes))
	for i, nd := range nodes {
		addrs[i] = nd.addr
	}
	return addrs
}

// keyInSlotRange returns a key from the pool whose slot the given node
// index owns under startSlotCluster's even split.
func keyOwnedBy(t testing.TB, idx, n, slots int) string {
	t.Helper()
	lo, hi := idx*slots/n, (idx+1)*slots/n-1
	for i := 0; i < 10000; i++ {
		k := fmt.Sprintf("owned/%d/%d", idx, i)
		if s := ttkv.KeySlot(k, slots); s >= lo && s <= hi {
			return k
		}
	}
	t.Fatalf("no key found for node %d's range %d-%d", idx, lo, hi)
	return ""
}

func TestParseSlotRanges(t *testing.T) {
	rs, err := ParseSlotRanges("0-7, 9, 10-15=10.0.0.1:4", 16)
	if err != nil {
		t.Fatal(err)
	}
	want := []SlotRange{{0, 7, ""}, {9, 9, ""}, {10, 15, "10.0.0.1:4"}}
	if !reflect.DeepEqual(rs, want) {
		t.Fatalf("ParseSlotRanges = %+v, want %+v", rs, want)
	}
	for _, bad := range []string{"a-b", "5-2", "0-16", "-1-3"} {
		if _, err := ParseSlotRanges(bad, 16); err == nil {
			t.Errorf("ParseSlotRanges(%q) accepted", bad)
		}
	}
	if r := (SlotRange{Lo: 3, Hi: 9, Addr: "x:1"}); r.String() != "3-9=x:1" {
		t.Errorf("String = %q", r.String())
	}
}

// TestClusterMovedRedirects checks the server-side ownership contract:
// foreign-slot commands bounce with a typed MOVED naming the owner,
// before anything applies; owned slots serve normally; TOPO carries the
// slot map.
func TestClusterMovedRedirects(t *testing.T) {
	const slots = 16
	nodes := startSlotCluster(t, 2, slots)
	mine := keyOwnedBy(t, 0, 2, slots)
	theirs := keyOwnedBy(t, 1, 2, slots)

	cl, err := Dial(nodes[0].addr)
	if err != nil {
		t.Fatal(err)
	}
	defer cl.Close()

	if err := cl.Set(mine, "v", at(0)); err != nil {
		t.Fatalf("owned-slot Set: %v", err)
	}
	var moved *ErrNotLeader
	if err := cl.Set(theirs, "v", at(0)); !errors.As(err, &moved) || moved.Leader != nodes[1].addr {
		t.Fatalf("foreign Set = %v, want MOVED %s", err, nodes[1].addr)
	}
	if _, err := cl.Get(theirs); !errors.As(err, &moved) || moved.Leader != nodes[1].addr {
		t.Fatalf("foreign Get = %v, want MOVED %s", err, nodes[1].addr)
	}
	if _, err := cl.History(theirs); !errors.As(err, &moved) {
		t.Fatalf("foreign History = %v, want MOVED", err)
	}
	if times, err := cl.ModTimes(theirs); !errors.As(err, &moved) || moved.Leader != nodes[1].addr {
		t.Fatalf("foreign ModTimes = %v, %v, want MOVED %s", times, err, nodes[1].addr)
	}
	// A multi-key read is refused whole on its first foreign key.
	if times, err := cl.ModTimes(mine, theirs); !errors.As(err, &moved) {
		t.Fatalf("owned+foreign ModTimes = %v, %v, want MOVED", times, err)
	}

	// A mixed MSET is refused whole: nothing lands, not even the local key.
	muts := []ttkv.Mutation{
		{Key: mine + "/batch", Value: "1", Time: at(1)},
		{Key: theirs, Value: "2", Time: at(1)},
	}
	if err := cl.MSet(muts); !errors.As(err, &moved) {
		t.Fatalf("mixed MSet = %v, want MOVED", err)
	}
	if _, err := cl.Get(mine + "/batch"); !errors.Is(err, ErrNotFound) {
		t.Fatal("refused MSET partially applied")
	}

	topo, err := cl.Topology()
	if err != nil {
		t.Fatal(err)
	}
	if topo.SlotCount != slots {
		t.Fatalf("TOPO SlotCount = %d, want %d", topo.SlotCount, slots)
	}
	seen := map[string]bool{}
	for _, r := range topo.SlotRanges {
		seen[r.Addr] = true
	}
	if !seen[nodes[0].addr] || !seen[nodes[1].addr] {
		t.Fatalf("TOPO slot ranges %+v missing an owner", topo.SlotRanges)
	}
}

// TestClusterFenceRefusesWrites: a fenced slot refuses writes with RETRY
// (reads still serve), and MIGABORT lifts the fence.
func TestClusterFenceRefusesWrites(t *testing.T) {
	const slots = 16
	nodes := startSlotCluster(t, 1, slots)
	cl, err := Dial(nodes[0].addr)
	if err != nil {
		t.Fatal(err)
	}
	defer cl.Close()
	key := keyOwnedBy(t, 0, 1, slots)
	slot := ttkv.KeySlot(key, slots)
	if err := cl.Set(key, "v", at(0)); err != nil {
		t.Fatal(err)
	}
	if err := cl.MigFence(context.Background(), slot); err != nil {
		t.Fatal(err)
	}
	if err := cl.Set(key, "w", at(1)); !errors.Is(err, ErrRetryable) {
		t.Fatalf("fenced Set = %v, want ErrRetryable", err)
	}
	if v, err := cl.Get(key); err != nil || v != "v" {
		t.Fatalf("fenced Get = %q, %v", v, err)
	}
	if err := cl.MigAbort(context.Background(), slot); err != nil {
		t.Fatal(err)
	}
	if err := cl.Set(key, "w", at(1)); err != nil {
		t.Fatalf("Set after abort: %v", err)
	}
}

// clusterOp is one recorded workload operation.
type clusterOp struct {
	key    string
	value  string
	time   time.Time
	delete bool
}

// TestSlotRoutingEquivalence is the routing equivalence suite: the same
// randomized workload, driven through the slot-aware client against 1, 2
// and 3 primaries, must leave per-key histories identical to a
// single-store baseline — and for the single-node cluster, a
// byte-identical store dump. The multi-node runs migrate slots between
// nodes mid-run, with the workload still writing.
func TestSlotRoutingEquivalence(t *testing.T) {
	const slots = 64
	for _, n := range []int{1, 2, 3} {
		n := n
		t.Run(fmt.Sprintf("primaries=%d", n), func(t *testing.T) {
			nodes := startSlotCluster(t, n, slots)
			ctx := context.Background()
			fc, err := DialCluster(ctx,
				WithPeers(clusterAddrs(nodes)...),
				WithMaxRedirects(60),
				WithRetryBackoff(2*time.Millisecond),
			)
			if err != nil {
				t.Fatal(err)
			}
			defer fc.Close()
			if fc.SlotCount() != slots {
				t.Fatalf("client SlotCount = %d, want %d", fc.SlotCount(), slots)
			}

			rng := rand.New(rand.NewSource(int64(1000 + n)))
			keys := make([]string, 48)
			for i := range keys {
				keys[i] = fmt.Sprintf("eq/%c/k%02d", 'a'+i%5, i)
			}
			var (
				mu  sync.Mutex
				log []clusterOp
			)
			record := func(op clusterOp) {
				mu.Lock()
				log = append(log, op)
				mu.Unlock()
			}
			workload := func() {
				base := t0
				seqT := 0
				stamp := func() time.Time {
					seqT++
					return base.Add(time.Duration(seqT) * time.Millisecond)
				}
				for i := 0; i < 400; i++ {
					switch {
					case i%29 == 0 && i > 0:
						// Cross-node batch through msetSlots.
						muts := make([]ttkv.Mutation, 0, 4)
						for j := 0; j < 4; j++ {
							muts = append(muts, ttkv.Mutation{
								Key: keys[rng.Intn(len(keys))], Value: fmt.Sprintf("m%d-%d", i, j), Time: stamp(),
							})
						}
						if err := fc.MSet(ctx, muts); err != nil {
							t.Errorf("MSet op %d: %v", i, err)
							return
						}
						for _, m := range muts {
							record(clusterOp{key: m.Key, value: m.Value, time: m.Time})
						}
					case i%13 == 5:
						op := clusterOp{key: keys[rng.Intn(len(keys))], time: stamp(), delete: true}
						if err := fc.Delete(ctx, op.key, op.time); err != nil {
							t.Errorf("Delete op %d: %v", i, err)
							return
						}
						record(op)
					default:
						op := clusterOp{key: keys[rng.Intn(len(keys))], value: fmt.Sprintf("v%d", i), time: stamp()}
						if err := fc.Set(ctx, op.key, op.value, op.time); err != nil {
							t.Errorf("Set op %d: %v", i, err)
							return
						}
						record(op)
					}
				}
			}

			if n == 1 {
				workload()
			} else {
				// Migrate a few of node 0's slots to node 1 while the
				// workload runs: routing must ride through fence RETRYs and
				// post-flip MOVEDs without losing or duplicating a write.
				done := make(chan struct{})
				go func() {
					defer close(done)
					workload()
				}()
				for _, key := range keys[:3] {
					slot := ttkv.KeySlot(key, slots)
					src := nodes[slot*n/slots]
					dst := nodes[(slot*n/slots+1)%n]
					if src == dst {
						continue
					}
					if err := MigrateSlot(ctx, src.addr, dst.addr, slot, MigrateOptions{BatchSize: 8}); err != nil {
						t.Errorf("migrate slot %d: %v", slot, err)
					}
				}
				<-done
			}
			if t.Failed() {
				return
			}

			// Baseline: one store, same ops, same order.
			baseline := ttkv.NewSharded(4)
			hist := make(map[string][]clusterOp)
			for _, op := range log {
				var err error
				if op.delete {
					err = baseline.Delete(op.key, op.time)
				} else {
					err = baseline.Set(op.key, op.value, op.time)
				}
				if err != nil {
					t.Fatalf("baseline %+v: %v", op, err)
				}
				hist[op.key] = append(hist[op.key], op)
			}

			gotKeys, err := fc.Keys(ctx)
			if err != nil {
				t.Fatal(err)
			}
			wantKeys := baseline.Keys()
			if !reflect.DeepEqual(gotKeys, wantKeys) {
				t.Fatalf("cluster Keys = %v\nwant %v", gotKeys, wantKeys)
			}
			for key, ops := range hist {
				got, err := fc.History(ctx, key)
				if err != nil {
					t.Fatalf("History(%s): %v", key, err)
				}
				if len(got) != len(ops) {
					t.Fatalf("History(%s) = %d versions, want %d", key, len(got), len(ops))
				}
				for i, v := range got {
					if v.Value != ops[i].value || !v.Time.Equal(ops[i].time) || v.Deleted != ops[i].delete {
						t.Fatalf("History(%s)[%d] = %+v, want %+v", key, i, v, ops[i])
					}
				}
			}
			if n == 1 {
				if !bytes.Equal(storeDump(t, nodes[0].store), storeDump(t, baseline)) {
					t.Fatal("single-node cluster dump differs from baseline store")
				}
			}
		})
	}
}

// TestSlotMigrationChaos kills the migration driver at randomized points
// (context cancellation at 1–40ms) under a concurrent writer and reruns
// it until it completes, twice — moving the slot away and back. Every
// acknowledged write must survive exactly once: the target-side source-
// seq watermark turns a duplicated or reordered resend into a hard
// error, and the per-key history check below turns any dup or gap into a
// test failure.
func TestSlotMigrationChaos(t *testing.T) {
	const slots = 8
	nodes := startSlotCluster(t, 2, slots)
	ctx := context.Background()
	fc, err := DialCluster(ctx,
		WithPeers(clusterAddrs(nodes)...),
		WithMaxRedirects(80),
		WithRetryBackoff(2*time.Millisecond),
	)
	if err != nil {
		t.Fatal(err)
	}
	// A cleanup, not a defer: it must run after the writer's cleanup below
	// has stopped the writer, which still uses the client.
	t.Cleanup(func() { fc.Close() })

	// Keys all landing in one slot owned by node 0.
	var keys []string
	slot := -1
	for i := 0; len(keys) < 5 && i < 20000; i++ {
		k := fmt.Sprintf("chaos/k%d", i)
		s := ttkv.KeySlot(k, slots)
		if s >= slots/2 { // node 1's half
			continue
		}
		if slot == -1 {
			slot = s
		}
		if s == slot {
			keys = append(keys, k)
		}
	}
	if len(keys) < 5 {
		t.Fatal("could not find co-slotted keys")
	}

	var (
		mu    sync.Mutex
		acked = make(map[string][]clusterOp)
	)
	stop := make(chan struct{})
	var stopOnce sync.Once
	var wg sync.WaitGroup
	// stopWriter stops and joins the writer. It is also registered as a
	// cleanup, so a migrate that gives up with t.Fatal cannot leave the
	// writer running past the test, where its t.Errorf would panic the
	// whole package.
	stopWriter := func() {
		stopOnce.Do(func() { close(stop) })
		wg.Wait()
	}
	t.Cleanup(stopWriter)
	wg.Add(1)
	go func() {
		defer wg.Done()
		for i := 0; ; i++ {
			select {
			case <-stop:
				return
			default:
			}
			op := clusterOp{
				key:   keys[i%len(keys)],
				value: fmt.Sprintf("v%d", i),
				time:  t0.Add(time.Duration(i) * time.Millisecond),
			}
			if err := fc.Set(ctx, op.key, op.value, op.time); err != nil {
				t.Errorf("writer op %d: %v", i, err)
				return
			}
			mu.Lock()
			acked[op.key] = append(acked[op.key], op)
			mu.Unlock()
		}
	}()

	rng := rand.New(rand.NewSource(42))
	migrate := func(src, dst string) {
		for attempt := 0; ; attempt++ {
			if attempt > 60 {
				t.Fatal("migration never completed")
			}
			mctx, cancel := context.WithTimeout(ctx, time.Duration(1+rng.Intn(40))*time.Millisecond)
			err := MigrateSlot(mctx, src, dst, slot, MigrateOptions{BatchSize: 4})
			cancel()
			if err == nil {
				return
			}
		}
	}
	migrate(nodes[0].addr, nodes[1].addr)
	// A rerun of a completed migration must be a no-op.
	if err := MigrateSlot(ctx, nodes[0].addr, nodes[1].addr, slot, MigrateOptions{}); err != nil {
		t.Fatalf("rerun of completed migration: %v", err)
	}
	migrate(nodes[1].addr, nodes[0].addr)
	stopWriter()
	if t.Failed() {
		return
	}

	mu.Lock()
	defer mu.Unlock()
	total := 0
	for key, ops := range acked {
		total += len(ops)
		got, err := fc.History(ctx, key)
		if err != nil {
			t.Fatalf("History(%s): %v", key, err)
		}
		if len(got) != len(ops) {
			t.Fatalf("History(%s) = %d versions, want %d acked (dup or gap)", key, len(got), len(ops))
		}
		for i, v := range got {
			if v.Value != ops[i].value || !v.Time.Equal(ops[i].time) {
				t.Fatalf("History(%s)[%d] = %+v, want %+v", key, i, v, ops[i])
			}
		}
	}
	if total == 0 {
		t.Fatal("no writes were acknowledged during the chaos run")
	}
	t.Logf("%d acked writes across 2 interrupted migrations of slot %d", total, slot)
}

// TestDoReturnsPartialApplyImmediately is the regression test for the
// redirect-loop bug: *ErrPartialApply is an application-level outcome on
// a healthy connection, but the failover do loop had no case for it and
// fell into the transport-failure default — dropping the connection and
// burning a redirect hop per retry.
func TestDoReturnsPartialApplyImmediately(t *testing.T) {
	store := ttkv.NewSharded(4)
	rl := ttkv.NewReplLog(nil)
	if err := store.AttachReplLog(rl); err != nil {
		t.Fatal(err)
	}
	srv := NewServer(store)
	srv.EnableReplication(rl, ReplicationConfig{})
	ln, err := net.Listen("tcp", "127.0.0.1:0")
	if err != nil {
		t.Fatal(err)
	}
	srv.SetAdvertise(ln.Addr().String())
	go srv.Serve(ln) //nolint:errcheck
	t.Cleanup(func() { srv.Close() })

	ctx := context.Background()
	fc, err := DialCluster(ctx, WithPeers(ln.Addr().String()))
	if err != nil {
		t.Fatal(err)
	}
	defer fc.Close()

	calls := 0
	want := &ErrPartialApply{Applied: 3, Msg: "boom"}
	err = fc.do(ctx, func(ctx context.Context, cl *Client) error {
		calls++
		return want
	})
	var partial *ErrPartialApply
	if !errors.As(err, &partial) || partial.Applied != 3 {
		t.Fatalf("do = %v, want the ErrPartialApply back", err)
	}
	if calls != 1 {
		t.Fatalf("op ran %d times, want exactly 1 (no retry)", calls)
	}
	if fc.Attached() == "" {
		t.Fatal("healthy connection was dropped on a partial apply")
	}
}

// TestSemiSyncGateUsesOwnWriteSeq is the regression test for the gated-
// watermark inflation bug: the gate waited on store.CurrentSeq() read
// after the apply, so a concurrent writer minting the next seq inflated
// the watermark and a write could spuriously RETRY even though its own
// seq was acked. The gate must wait on the write's own minted seq.
func TestSemiSyncGateUsesOwnWriteSeq(t *testing.T) {
	store := ttkv.NewSharded(4)
	rl := ttkv.NewReplLog(nil)
	if err := store.AttachReplLog(rl); err != nil {
		t.Fatal(err)
	}
	srv := NewServer(store)
	srv.EnableReplication(rl, ReplicationConfig{})
	srv.SetSemiSync(SemiSyncConfig{Acks: 1, Timeout: 100 * time.Millisecond})

	// Two applied writes; a replica session has acked only the first.
	if err := store.Set("k1", "v", at(0)); err != nil {
		t.Fatal(err)
	}
	if err := store.Set("k2", "v", at(1)); err != nil {
		t.Fatal(err)
	}
	if store.CurrentSeq() != 2 {
		t.Fatalf("CurrentSeq = %d, want 2", store.CurrentSeq())
	}
	sess := &replSession{replicaID: "phys-1"}
	sess.ackedSeq.Store(1)
	srv.mu.Lock()
	srv.replSessions = map[*replSession]struct{}{sess: {}}
	srv.mu.Unlock()

	// The write that minted seq 1 must pass instantly: its own seq is
	// acked, even though the store-wide watermark (2) is not.
	start := time.Now()
	if _, ok := srv.semiSyncGate(&connState{lastWriteSeq: 1}); !ok {
		t.Fatal("write with acked own-seq got a spurious RETRY (gated on the inflated watermark)")
	}
	if elapsed := time.Since(start); elapsed > 50*time.Millisecond {
		t.Fatalf("acked write waited %v, want an instant pass", elapsed)
	}

	// The unacked seq-2 write must still RETRY.
	if retry, ok := srv.semiSyncGate(&connState{lastWriteSeq: 2}); ok || retry.Kind != KindError {
		t.Fatalf("unacked write passed the gate (retry=%+v ok=%v)", retry, ok)
	}
	// Writes that mint nothing (lastWriteSeq 0, e.g. RFIX) fall back to
	// the conservative store watermark.
	if _, ok := srv.semiSyncGate(&connState{lastWriteSeq: 0}); ok {
		t.Fatal("no-mint write passed the gate against an unacked watermark")
	}
}

// TestSemiSyncNoSpuriousRetryUnderRacingWriters drives concurrent
// writers against a semi-sync primary with a healthy replica: every
// write must be acknowledged without a RETRY.
func TestSemiSyncNoSpuriousRetryUnderRacingWriters(t *testing.T) {
	store := ttkv.NewSharded(4)
	rl := ttkv.NewReplLog(nil)
	if err := store.AttachReplLog(rl); err != nil {
		t.Fatal(err)
	}
	srv := NewServer(store)
	srv.EnableReplication(rl, ReplicationConfig{HeartbeatInterval: 20 * time.Millisecond})
	srv.SetSemiSync(SemiSyncConfig{Acks: 1, Timeout: 5 * time.Second})
	ln, err := net.Listen("tcp", "127.0.0.1:0")
	if err != nil {
		t.Fatal(err)
	}
	go srv.Serve(ln) //nolint:errcheck
	t.Cleanup(func() { srv.Close() })
	addr := ln.Addr().String()
	_, rc, _ := startReplicaNode(t, addr, nil)
	defer rc.Stop()

	// Wait until the replica is attached and acking.
	cl0, err := Dial(addr)
	if err != nil {
		t.Fatal(err)
	}
	defer cl0.Close()
	waitFor(t, 5*time.Second, "replica acking", func() bool {
		return cl0.Set("/warm", "v", time.Now()) == nil
	})

	var wg sync.WaitGroup
	errs := make(chan error, 6)
	for g := 0; g < 6; g++ {
		wg.Add(1)
		go func(g int) {
			defer wg.Done()
			cl, err := Dial(addr)
			if err != nil {
				errs <- err
				return
			}
			defer cl.Close()
			base := time.Now()
			for i := 0; i < 30; i++ {
				if err := cl.Set(fmt.Sprintf("/race/%d/%d", g, i), "v",
					base.Add(time.Duration(i)*time.Millisecond)); err != nil {
					errs <- fmt.Errorf("writer %d op %d: %w", g, i, err)
					return
				}
			}
		}(g)
	}
	wg.Wait()
	close(errs)
	for err := range errs {
		t.Fatal(err)
	}
}

// TestAckedReplicasDedupesByRunID is the regression test for the
// session-counting bug: a physical replica reconnecting before its stale
// feed is reaped holds two sessions, which used to satisfy K=2 alone.
// Sessions must dedupe by replica run ID; observer sessions never count.
func TestAckedReplicasDedupesByRunID(t *testing.T) {
	srv := NewServer(ttkv.New())
	mk := func(id string, acked uint64) *replSession {
		sess := &replSession{replicaID: id}
		sess.ackedSeq.Store(acked)
		return sess
	}
	srv.mu.Lock()
	srv.replSessions = map[*replSession]struct{}{
		mk("phys-A", 5): {}, // stale feed, same physical replica...
		mk("phys-A", 7): {}, // ...freshly reconnected
		mk("phys-B", 4): {}, // behind: not acked at 5
		mk("", 9):       {}, // legacy handshake: counts per-session
		mk("-", 99):     {}, // analytics observer: never counts
	}
	srv.mu.Unlock()

	if got := srv.ackedReplicas(5); got != 2 {
		t.Fatalf("ackedReplicas(5) = %d, want 2 (phys-A once + legacy)", got)
	}
	if got := srv.ackedReplicas(8); got != 1 {
		t.Fatalf("ackedReplicas(8) = %d, want 1 (legacy only)", got)
	}
	if got := srv.ackedReplicas(100); got != 0 {
		t.Fatalf("ackedReplicas(100) = %d, want 0 (observer excluded)", got)
	}
}

// TestSlotMapPrefersOwnClaims is the regression test for the stale-
// advisory bug: a TOPO sweep used to fold every peer's slot map in probe
// order, so a third party's static -slot-peers view of a range could
// clobber the live owner's own claim installed moments earlier — after a
// failover the client chased the dead old primary until its hop budget
// ran out. A node's claim about the slots it itself serves must win over
// hearsay regardless of sweep order.
func TestSlotMapPrefersOwnClaims(t *testing.T) {
	hearsay := Topology{
		Self:      "c:1",
		SlotCount: 8,
		SlotRanges: []SlotRange{
			{Lo: 0, Hi: 3, Addr: "dead:1"}, // stale advisory about partition 0
			{Lo: 4, Hi: 7, Addr: "c:1"},    // its own slots
		},
	}
	promoted := Topology{
		Self:      "a2:1",
		SlotCount: 8,
		SlotRanges: []SlotRange{
			{Lo: 0, Hi: 3, Addr: "a2:1"},  // authoritative: it serves these now
			{Lo: 4, Hi: 7, Addr: "dead2"}, // and has its own stale view of others
		},
	}
	for name, order := range map[string][]Topology{
		"hearsay-last":  {promoted, hearsay},
		"hearsay-first": {hearsay, promoted},
	} {
		fc := &FailoverClient{}
		fc.mu.Lock()
		for _, topo := range order {
			fc.noteSlotRangesLocked(topo)
		}
		fc.mu.Unlock()
		if got := fc.SlotOwner(0); got != "a2:1" {
			t.Fatalf("%s: owner(0) = %q, want the self-claimed a2:1", name, got)
		}
		if got := fc.SlotOwner(5); got != "c:1" {
			t.Fatalf("%s: owner(5) = %q, want the self-claimed c:1", name, got)
		}
	}
	// A replica's ranges are labeled with its group leader, not itself;
	// that claim is authoritative for the group too.
	fc := &FailoverClient{}
	fc.mu.Lock()
	fc.noteSlotRangesLocked(hearsay)
	fc.noteSlotRangesLocked(Topology{
		Self: "a2:1", Leader: "a1:1", SlotCount: 8,
		SlotRanges: []SlotRange{{Lo: 0, Hi: 3, Addr: "a1:1"}},
	})
	fc.mu.Unlock()
	if got := fc.SlotOwner(2); got != "a1:1" {
		t.Fatalf("owner(2) = %q, want the group-leader claim a1:1", got)
	}
}

// TestReadOnlyFallbackKeepsLeaderUnknown is the regression test for the
// adopt bug: falling back to a reachable read-only node used to record
// that node as the believed leader, so Leader() lied and the next write
// re-dialed the known-read-only node as if it were the primary. The
// attachment and the believed leader are separate facts.
func TestReadOnlyFallbackKeepsLeaderUnknown(t *testing.T) {
	store := ttkv.NewSharded(4)
	if err := store.Set("/ro/k", "v", at(0)); err != nil {
		t.Fatal(err)
	}
	srv := NewServer(store)
	srv.SetReadOnly(true)
	ln, err := net.Listen("tcp", "127.0.0.1:0")
	if err != nil {
		t.Fatal(err)
	}
	addr := ln.Addr().String()
	srv.SetAdvertise(addr)
	go srv.Serve(ln) //nolint:errcheck
	t.Cleanup(func() { srv.Close() })

	ctx := context.Background()
	fc, err := DialCluster(ctx,
		WithPeers(addr),
		WithDialTimeout(200*time.Millisecond),
		WithMaxRedirects(2),
		WithRetryBackoff(time.Millisecond),
	)
	if err != nil {
		t.Fatal(err)
	}
	defer fc.Close()

	if got := fc.Attached(); got != addr {
		t.Fatalf("Attached = %q, want %q", got, addr)
	}
	if got := fc.Leader(); got != "" {
		t.Fatalf("Leader = %q, want empty: a read-only fallback is not a leader", got)
	}
	// Reads work through the fallback.
	if v, err := fc.Get(ctx, "/ro/k"); err != nil || v != "v" {
		t.Fatalf("Get via fallback = %q, %v", v, err)
	}
	// Writes fail read-only after the budget — and must not have taught
	// the client that the replica leads.
	if err := fc.Set(ctx, "/ro/w", "x", at(1)); !errors.Is(err, ErrReadOnly) {
		t.Fatalf("Set via fallback = %v, want ErrReadOnly", err)
	}
	if got := fc.Leader(); got != "" {
		t.Fatalf("Leader after failed write = %q, want still empty", got)
	}
}

// TestMergedAnalyticsMatchSingleEngine checks the acceptance bar for
// merged global analytics: an engine fed by draining every node of a
// 3-primary partitioned cluster must produce exactly the clusters of a
// single engine fed the same workload directly — including across an
// incremental drain and a live slot migration (whose re-minted records
// the drainer must dedupe, not double-count).
func TestMergedAnalyticsMatchSingleEngine(t *testing.T) {
	const slots = 16
	nodes := startSlotCluster(t, 3, slots)
	ctx := context.Background()
	fc, err := DialCluster(ctx,
		WithPeers(clusterAddrs(nodes)...),
		WithMaxRedirects(60),
		WithRetryBackoff(2*time.Millisecond),
	)
	if err != nil {
		t.Fatal(err)
	}
	defer fc.Close()

	// Record every op; baselines are rebuilt per comparison, because
	// AdvanceTo permanently closes an engine's windows — a mid-test
	// advance would split later writes into a second episode.
	type obsOp struct {
		key string
		ts  time.Time
	}
	var ops []obsOp
	seqT := 0
	stamp := func() time.Time {
		seqT++
		return t0.Add(time.Duration(seqT) * 5 * time.Millisecond)
	}
	write := func(key, val string) {
		ts := stamp()
		if err := fc.Set(ctx, key, val, ts); err != nil {
			t.Fatalf("Set %s: %v", key, err)
		}
		ops = append(ops, obsOp{key: key, ts: ts})
	}
	// Keys spread across all three nodes; co-modification episodes bind
	// pairs whose members live on different nodes.
	pairs := [][2]string{
		{keyOwnedBy(t, 0, 3, slots), keyOwnedBy(t, 1, 3, slots)},
		{keyOwnedBy(t, 1, 3, slots) + "/x", keyOwnedBy(t, 2, 3, slots)},
		{keyOwnedBy(t, 2, 3, slots) + "/y", keyOwnedBy(t, 0, 3, slots) + "/z"},
	}
	for round := 0; round < 6; round++ {
		for _, p := range pairs {
			write(p[0], fmt.Sprintf("r%d", round))
			write(p[1], fmt.Sprintf("r%d", round))
		}
	}

	// compare advances the engine-under-test exactly once (it must not
	// receive further writes after this) against a baseline rebuilt from
	// the op log.
	compare := func(drained *core.Engine, stage string) {
		t.Helper()
		baseline := core.NewEngine(core.EngineConfig{})
		for _, op := range ops {
			baseline.ObserveWrite(op.key, op.ts, false)
		}
		horizon := t0.Add(time.Hour)
		baseline.AdvanceTo(horizon)
		drained.AdvanceTo(horizon)
		want := baseline.Recluster()
		got := drained.Recluster()
		if !reflect.DeepEqual(got, want) {
			t.Fatalf("%s: drained clusters = %+v\nwant %+v", stage, got, want)
		}
	}

	merged := core.NewEngine(core.EngineConfig{})
	drainer, err := NewAnalyticsDrainer(AnalyticsDrainerConfig{
		Engine: merged,
		Peers:  clusterAddrs(nodes),
	})
	if err != nil {
		t.Fatal(err)
	}
	if err := drainer.DrainOnce(ctx); err != nil {
		t.Fatal(err)
	}

	// Migrate the slot of the first pair's first key from node 0 to node
	// 1, write more episodes, and drain incrementally: the migrated
	// history now streams from two nodes, and must count once.
	slot := ttkv.KeySlot(pairs[0][0], slots)
	if err := MigrateSlot(ctx, nodes[0].addr, nodes[1].addr, slot, MigrateOptions{}); err != nil {
		t.Fatalf("migrate: %v", err)
	}
	for round := 6; round < 9; round++ {
		for _, p := range pairs {
			write(p[0], fmt.Sprintf("r%d", round))
			write(p[1], fmt.Sprintf("r%d", round))
		}
	}
	if err := drainer.DrainOnce(ctx); err != nil {
		t.Fatal(err)
	}
	compare(merged, "incremental drains across migration")

	// A from-scratch drain after the migration must also match: the
	// moved records exist in both nodes' histories but dedupe to one.
	fresh := core.NewEngine(core.EngineConfig{})
	if err := DrainAnalytics(ctx, fresh, clusterAddrs(nodes)); err != nil {
		t.Fatal(err)
	}
	compare(fresh, "fresh drain after migration")
}

// TestPairStatsMergeServesGlobalCorr: the additive PairStats path — each
// node's local engine stats merged into one — must answer cross-node
// correlation queries identically to draining the streams, for episodes
// that land whole on single nodes.
func TestPairStatsMergeServesGlobalCorr(t *testing.T) {
	a := core.NewEngine(core.EngineConfig{})
	b := core.NewEngine(core.EngineConfig{})
	single := core.NewEngine(core.EngineConfig{})
	// Node-local episodes: {p,q} co-modified on node A, then on node B —
	// offset well past the grouping window, so no co-occurrence window
	// spans nodes. The additive merge reconstructs node-whole windows
	// only; reassembling node-spanning windows is the drainer's job.
	for round := 0; round < 4; round++ {
		base := t0.Add(time.Duration(round) * time.Minute)
		for i, eng := range []*core.Engine{a, b} {
			ts := base.Add(time.Duration(i) * 20 * time.Second)
			k1, k2 := fmt.Sprintf("n%d/p", i), fmt.Sprintf("n%d/q", i)
			eng.ObserveWrite(k1, ts, false)
			eng.ObserveWrite(k2, ts.Add(time.Millisecond), false)
			single.ObserveWrite(k1, ts, false)
			single.ObserveWrite(k2, ts.Add(time.Millisecond), false)
		}
	}
	horizon := t0.Add(time.Hour)
	for _, eng := range []*core.Engine{a, b, single} {
		eng.AdvanceTo(horizon)
		eng.Flush()
	}
	merged := a.StatsClone()
	merged.Merge(b.StatsClone())
	for _, pair := range [][2]string{{"n0/p", "n0/q"}, {"n1/p", "n1/q"}, {"n0/p", "n1/q"}} {
		want := single.Correlation(pair[0], pair[1])
		if got := merged.KeyCorrelation(pair[0], pair[1]); got != want {
			t.Fatalf("merged Corr(%s,%s) = %v, want %v", pair[0], pair[1], got, want)
		}
	}
}
