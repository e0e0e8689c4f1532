package main

import (
	"bufio"
	"bytes"
	"fmt"
	"io"
	"net"
	"os"
	"runtime"
	"strconv"
	"time"

	"ocasta"
	"ocasta/internal/ttkv"
	"ocasta/internal/ttkvwire"
)

// The per-layer replays push the first layerUnits units of a workload's own op
// stream through each module's public functions, one layer at a time, in
// this process. Every number is a median over chunk spans.

// mix describes the replayed sample, for weighting layer costs per op.
type mix struct {
	writeFrac      float64 // share of ops that write
	eventsPerWrite float64 // settings recorded per writing op
}

func (h *harness) replayLayers(w *kvWorkload, in *kvInputs, rec *recorder, m map[string]float64) (mix, error) {
	sample := in.ops[:in.unitStart[min(w.layerUnits, in.units())]]
	var writes []int // indices of the sample's writing ops
	var byKind [numKinds][]int
	events := 0
	for i := range sample {
		byKind[sample[i].kind] = append(byKind[sample[i].kind], i)
		if sample[i].kind.write() {
			writes = append(writes, i)
			events += len(sample[i].writes(nil))
		}
	}
	mx := mix{writeFrac: float64(len(writes)) / float64(len(sample))}
	if len(writes) > 0 {
		mx.eventsPerWrite = float64(events) / float64(len(writes))
	}
	parent := func(i int) string { return "client." + kindNames[sample[i].kind] }
	apply := func(s *ttkv.Store, i int) {
		o := &sample[i]
		if o.kind == opSet {
			s.SetWithSeq(o.key, o.value, o.t)
		} else {
			s.Apply(o.batch)
		}
	}
	// timeWrites replays the sample's writes into s and returns the median
	// per-op apply time.
	timeWrites := func(name string, s *ttkv.Store) float64 {
		if len(writes) == 0 {
			return 0
		}
		return rec.timeChunks(name, parent(writes[0]), len(writes), func(j int) { apply(s, writes[j]) })
	}

	// store: bare, sharded like the daemon's. Reads go first so they see the
	// preload only, as most of the timed phase's reads do.
	bare := ttkv.NewSharded(16)
	if _, err := bare.Apply(in.preload); err != nil {
		return mx, err
	}
	for kind := opGet; kind <= opModTimes; kind++ {
		idx := byKind[kind]
		m["store."+kindNames[kind]+"_ns_per_op"] = rec.timeChunks("store."+kindNames[kind], "client."+kindNames[kind],
			len(idx), func(j int) {
				switch o := &sample[idx[j]]; kind {
				case opGet:
					bare.Get(o.key)
				case opGetAt:
					bare.GetAt(o.key, o.t)
				case opHistory:
					bare.History(o.key)
				case opModTimes:
					bare.ModTimes(o.keys)
				}
			})
	}
	bareApply := timeWrites("store.apply", bare)
	m["store.apply_ns_per_op"] = bareApply
	st := bare.Stats()
	m["store.keys"], m["store.versions"] = float64(st.Keys), float64(st.Versions)

	// groupcommit / segment: the same writes with the segmented log attached
	// under the daemon's fsync policy.
	if len(writes) > 0 {
		dir, err := h.newDir()
		if err != nil {
			return mx, err
		}
		open := func(sub string, replicate bool) (*ocasta.StoreHandle, error) {
			sh, err := ocasta.OpenStore(ocasta.StoreOptions{
				Shards: 16, AOFDir: dir + "/" + sub, Fsync: ocasta.FsyncInterval,
				FlushInterval: 50 * time.Millisecond, Replicate: replicate,
			})
			if err != nil {
				return nil, err
			}
			_, err = sh.Store.Apply(in.preload)
			return sh, err
		}
		logged, err := open("log", false)
		if err != nil {
			return mx, err
		}
		withLog := timeWrites("groupcommit.apply", logged.Store)
		m["groupcommit.enqueue_ns_per_op"] = withLog - bareApply
		t := time.Now()
		if err := logged.GroupCommit.Sync(); err != nil {
			return mx, err
		}
		m["groupcommit.sync_ms"] = ms(time.Since(t))
		m["groupcommit.fsyncs"] = float64(logged.GroupCommit.SyncCount())
		if err := logged.Close(); err != nil {
			return mx, err
		}
		bytes, files, err := dirBytes(dir + "/log")
		if err != nil {
			return mx, err
		}
		m["segment.bytes_written"], m["segment.files"] = float64(bytes), float64(files)
		t = time.Now()
		sa, err := ttkv.OpenSegmentedInto(dir+"/log", ttkv.NewSharded(16), ttkv.SegmentedConfig{})
		if err != nil {
			return mx, err
		}
		m["segment.replay_s"] = time.Since(t).Seconds()
		sa.Close()

		// replication: the log plus the ReplLog minting sequence numbers,
		// with one subscriber draining the committed feed. The preload is
		// made durable first, so the subscriber is fed exactly the sample's
		// records; the feed rate is over first apply → last record delivered.
		repl, err := open("repl", true)
		if err != nil {
			return mx, err
		}
		if err := repl.ReplLog.Sync(); err != nil {
			return mx, err
		}
		sub, _ := repl.ReplLog.Subscribe(0)
		fed := make(chan error)
		go func() {
			for n := 0; n < events; {
				data, _, err := sub.Next(opTimeout)
				if err == nil && data == nil {
					err = fmt.Errorf("replication feed delivered %d of %d records, then nothing for %v", n, events, opTimeout)
				}
				if err != nil {
					fed <- err
					return
				}
				n += len(data)
			}
			fed <- nil
		}()
		t = time.Now()
		m["replication.mint_ns_per_op"] = timeWrites("replication.apply", repl.Store) - withLog
		if err := repl.ReplLog.Sync(); err != nil {
			return mx, err
		}
		err = <-fed
		feedTime := time.Since(t)
		sub.Close()
		if err != nil {
			return mx, err
		}
		m["replication.feed_records_per_s"] = float64(events) / feedTime.Seconds()
		if err := repl.Close(); err != nil {
			return mx, err
		}
		os.RemoveAll(dir)
	}

	if err := replayWire(in, sample, parent, bareApply, rec, m); err != nil {
		return mx, err
	}
	return mx, nil
}

// localServer serves a preloaded bare store from this process.
func localServer(preload []ttkv.Mutation) (addr string, stop func(), err error) {
	store := ttkv.NewSharded(16)
	if _, err := store.Apply(preload); err != nil {
		return "", nil, err
	}
	ln, err := net.Listen("tcp", "127.0.0.1:0")
	if err != nil {
		return "", nil, err
	}
	srv := ttkvwire.NewServer(store)
	done := make(chan struct{})
	go func() {
		srv.Serve(ln)
		close(done)
	}()
	return ln.Addr().String(), func() { srv.Close(); <-done }, nil
}

// request encodes an op the way Client does: an array of bulk strings.
func request(o *op) ttkvwire.Value {
	bulk := func(s string) ttkvwire.Value { return ttkvwire.Value{Kind: ttkvwire.KindBulk, Str: s} }
	nanos := func(t time.Time) ttkvwire.Value { return bulk(strconv.FormatInt(t.UnixNano(), 10)) }
	var args []ttkvwire.Value
	switch o.kind {
	case opSet:
		args = []ttkvwire.Value{bulk("SET"), bulk(o.key), bulk(o.value), nanos(o.t)}
	case opMSet:
		args = append(args, bulk("MSET"))
		for _, mu := range o.batch {
			args = append(args, bulk(mu.Key), bulk(mu.Value), nanos(mu.Time))
		}
	case opGet:
		args = []ttkvwire.Value{bulk("GET"), bulk(o.key)}
	case opGetAt:
		args = []ttkvwire.Value{bulk("GETAT"), bulk(o.key), nanos(o.t)}
	case opHistory:
		args = []ttkvwire.Value{bulk("HIST"), bulk(o.key)}
	case opModTimes:
		args = append(args, bulk("MODTIMES"))
		for _, k := range o.keys {
			args = append(args, bulk(k))
		}
	}
	return ttkvwire.Value{Kind: ttkvwire.KindArray, Array: args}
}

// replayWire measures the proto layer (the codec over the sample's request
// and reply streams) and the server layer (an in-process Server on loopback).
func replayWire(in *kvInputs, sample []op, parent func(int) string, storeApplyNs float64, rec *recorder, m map[string]float64) error {
	n := len(sample)
	root := parent(0)

	// Capture every reply once, over a raw connection.
	addr, stop, err := localServer(in.preload)
	if err != nil {
		return err
	}
	conn, err := net.Dial("tcp", addr)
	if err != nil {
		stop()
		return err
	}
	br, bw := bufio.NewReader(conn), bufio.NewWriter(conn)
	reqs, replies := make([]ttkvwire.Value, n), make([]ttkvwire.Value, n)
	for i := range sample {
		reqs[i] = request(&sample[i])
		if err := ttkvwire.WriteValue(bw, reqs[i]); err == nil {
			err = bw.Flush()
		}
		if err == nil {
			replies[i], err = ttkvwire.ReadValue(br)
		}
		if err == nil && replies[i].Kind == ttkvwire.KindError {
			err = fmt.Errorf("server: %s", replies[i].Str)
		}
		if err != nil {
			conn.Close()
			stop()
			return fmt.Errorf("capturing the reply of op %d: %w", i, err)
		}
	}
	conn.Close()
	stop()

	encode := func(name string, vs []ttkvwire.Value) (nsPerOp float64, wire []byte) {
		var buf bytes.Buffer
		w := bufio.NewWriter(&buf)
		for _, v := range vs {
			ttkvwire.WriteValue(w, v)
		}
		w.Flush()
		discard := bufio.NewWriter(io.Discard)
		return rec.timeChunks(name, root, n, func(i int) { ttkvwire.WriteValue(discard, vs[i]) }), buf.Bytes()
	}
	decode := func(name string, wire []byte) (nsPerOp, allocsPerOp float64) {
		r := bufio.NewReader(bytes.NewReader(wire))
		var before, after runtime.MemStats
		runtime.ReadMemStats(&before)
		nsPerOp = rec.timeChunks(name, root, n, func(int) { ttkvwire.ReadValue(r) })
		runtime.ReadMemStats(&after)
		return nsPerOp, float64(after.Mallocs-before.Mallocs) / float64(n)
	}
	reqEnc, reqWire := encode("proto.req_encode", reqs)
	reqDec, reqAllocs := decode("proto.req_decode", reqWire)
	repEnc, repWire := encode("proto.reply_encode", replies)
	repDec, _ := decode("proto.reply_decode", repWire)
	m["proto.req_encode_ns_per_op"], m["proto.req_decode_ns_per_op"] = reqEnc, reqDec
	m["proto.req_decode_allocs_per_op"] = reqAllocs
	m["proto.reply_encode_ns_per_op"], m["proto.reply_decode_ns_per_op"] = repEnc, repDec
	m["proto.reply_bytes_per_op"] = float64(len(repWire)) / float64(n)

	// server: the real Client against a fresh in-process Server.
	addr, stop, err = localServer(in.preload)
	if err != nil {
		return err
	}
	defer stop()
	c, err := ttkvwire.Dial(addr)
	if err != nil {
		return err
	}
	defer c.Close()
	var failed error
	ping := rec.timeChunks("server.ping", root, 4*chunk, func(int) {
		if err := c.Ping(); err != nil {
			failed = err
		}
	})
	var before, after runtime.MemStats
	runtime.ReadMemStats(&before)
	rtt := rec.timeChunks("server.rtt", root, n, func(i int) {
		if err := sample[i].exec(c, opDeadline(time.Now().Add(opTimeout))); err != nil {
			failed = err
		}
	})
	runtime.ReadMemStats(&after)
	if failed != nil {
		return fmt.Errorf("in-process server replay: %w", failed)
	}
	m["server.ping_rtt_ns"], m["server.rtt_ns_per_op"] = ping, rtt
	m["server.allocs_per_op"] = float64(after.Mallocs-before.Mallocs) / float64(n)

	// What the store itself costs per op of this mix.
	storeNs := 0.0
	for i := range sample {
		if sample[i].kind.write() {
			storeNs += storeApplyNs
		} else {
			storeNs += m["store."+kindNames[sample[i].kind]+"_ns_per_op"]
		}
	}
	m["server.dispatch_self_ns_per_op"] = rtt - ping - (reqEnc + reqDec + repEnc + repDec) - storeNs/float64(n)
	return nil
}
