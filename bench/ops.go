package main

import (
	"errors"
	"fmt"
	"math/rand"
	"sort"
	"time"

	"ocasta/internal/trace"
	"ocasta/internal/ttkv"
	"ocasta/internal/ttkvwire"
	"ocasta/internal/workload"
)

// opTimeout is the per-operation deadline: a hung call fails and is counted
// instead of hanging the run.
const opTimeout = 5 * time.Second

// opDeadline is a context that carries only a deadline. The client turns it
// into a connection deadline; unlike a cancellable context it costs no
// watcher goroutine per round trip, which would distort what is measured.
type opDeadline time.Time

func (d opDeadline) Deadline() (time.Time, bool) { return time.Time(d), true }
func (opDeadline) Done() <-chan struct{}         { return nil }
func (opDeadline) Err() error                    { return nil }
func (opDeadline) Value(any) any                 { return nil }

// timeShift moves every generated event time a century ahead. On a restart
// over existing history ttkvd advances its analytics watermark to the wall
// clock once; stamps behind that watermark would be windowed in arrival
// order, making CLUSTERS depend on how the two connections interleave. Stamps
// ahead of any plausible wall clock keep the windowing exact and repeatable.
const timeShift = 100 * 365 * 24 * time.Hour

type opKind uint8

const (
	opSet opKind = iota
	opMSet
	opGet
	opGetAt
	opHistory
	opModTimes
	numKinds
)

var kindNames = [numKinds]string{"set", "mset", "get", "getat", "history", "modtimes"}

func (k opKind) write() bool { return k == opSet || k == opMSet }

// op is one client call of a KV workload.
type op struct {
	kind  opKind
	key   string
	value string
	t     time.Time       // opSet: event time; opGetAt: read time
	batch []ttkv.Mutation // opMSet: the co-flush bundle
	keys  []string        // opModTimes: one component's keys
}

var errEmptyReply = errors.New("bench: empty reply for a preloaded key")

// exec performs the op on c.
func (o *op) exec(c *ttkvwire.Client, ctx opDeadline) error {
	switch o.kind {
	case opSet:
		return c.SetContext(ctx, o.key, o.value, o.t)
	case opMSet:
		return c.MSetContext(ctx, o.batch)
	case opGet:
		_, err := c.GetContext(ctx, o.key)
		return err
	case opGetAt:
		// A read time before the key's first write is a legitimate miss.
		if _, err := c.GetAtContext(ctx, o.key, o.t); err != nil && !errors.Is(err, ttkvwire.ErrNotFound) {
			return err
		}
		return nil
	case opHistory:
		vs, err := c.HistoryContext(ctx, o.key)
		if err == nil && len(vs) == 0 {
			return errEmptyReply
		}
		return err
	case opModTimes:
		ts, err := c.ModTimesContext(ctx, o.keys...)
		if err == nil && len(ts) == 0 {
			return errEmptyReply
		}
		return err
	}
	return fmt.Errorf("bench: unknown op kind %d", o.kind)
}

// writes appends the (key, value, time) triples the op records.
func (o *op) writes(dst []ttkv.Mutation) []ttkv.Mutation {
	switch o.kind {
	case opSet:
		dst = append(dst, ttkv.Mutation{Key: o.key, Value: o.value, Time: o.t})
	case opMSet:
		dst = append(dst, o.batch...)
	}
	return dst
}

// kvInputs is everything a KV workload generates from its seed.
type kvInputs struct {
	preload []ttkv.Mutation // loaded in set-up, before the restart probe
	// ops is the stream the closed loop sends, all of it, once: a fixed
	// count, so that store depth, log size and reply sizes do not depend on
	// how fast the build under test is. The two connections claim units of
	// it from a shared counter: unit u is ops[unitStart[u]:unitStart[u+1]],
	// an episode of Sets for logger_set and a single op elsewhere. Claiming
	// (rather than a fixed split) keeps the connections within one unit of
	// each other in event time however unevenly they are served, far inside
	// the daemon's reorder horizon.
	ops       []op
	unitStart []int
	// components are the generated co-flush groups (sorted keys), the
	// ground truth CLUSTERS is scored against; nil for read workloads.
	components [][]string
	sentinel   []ttkv.Mutation // closes the stream's last window (write workloads)
}

// episodes splits a synthetic stream into its co-modification episodes
// (one distinct second each), shifting stamps by timeShift.
func episodes(tr *trace.Trace) [][]ttkv.Mutation {
	var out [][]ttkv.Mutation
	flat := make([]ttkv.Mutation, len(tr.Events))
	start := 0
	for i := range tr.Events {
		ev := &tr.Events[i]
		flat[i] = ttkv.Mutation{Key: ev.Key, Value: ev.Value, Time: ev.Time.Add(timeShift)}
		if i+1 == len(tr.Events) || !tr.Events[i+1].Time.Equal(ev.Time) {
			out = append(out, flat[start:i+1:i+1])
			start = i + 1
		}
	}
	return out
}

func flatten(eps [][]ttkv.Mutation) []ttkv.Mutation {
	var out []ttkv.Mutation
	for _, ep := range eps {
		out = append(out, ep...)
	}
	return out
}

// componentsOf groups a stream's keys by their generated component (the key
// minus its trailing "/kNN").
func componentsOf(eps [][]ttkv.Mutation) [][]string {
	byComp := make(map[string]map[string]struct{})
	for _, ep := range eps {
		for _, m := range ep {
			comp := m.Key[:len(m.Key)-len("/k00")]
			if byComp[comp] == nil {
				byComp[comp] = make(map[string]struct{})
			}
			byComp[comp][m.Key] = struct{}{}
		}
	}
	out := make([][]string, 0, len(byComp))
	for _, set := range byComp {
		keys := make([]string, 0, len(set))
		for k := range set {
			keys = append(keys, k)
		}
		sort.Strings(keys)
		out = append(out, keys)
	}
	sort.Slice(out, func(i, j int) bool { return out[i][0] < out[j][0] })
	return out
}

// writeInputs builds logger_set (perEpisode false: one Set per setting) or
// flush_mset_semisync (perEpisode true: one MSet per episode) from a stream
// of preloadEps + units episodes (spec.Episodes is overwritten). The first
// preloadEps episodes are the preload; each of the rest is one unit.
func writeInputs(spec workload.StreamSpec, preloadEps, units int, perEpisode bool) *kvInputs {
	spec.Episodes = preloadEps + units
	eps := episodes(workload.SyntheticStream(spec))
	in := &kvInputs{
		preload:    flatten(eps[:preloadEps]),
		components: componentsOf(eps),
	}
	for _, ep := range eps[preloadEps:] {
		in.unitStart = append(in.unitStart, len(in.ops))
		if perEpisode {
			in.ops = append(in.ops, op{kind: opMSet, batch: ep})
			continue
		}
		for _, m := range ep {
			in.ops = append(in.ops, op{kind: opSet, key: m.Key, value: m.Value, t: m.Time})
		}
	}
	in.unitStart = append(in.unitStart, len(in.ops))
	// Two hours past the last episode: beyond the 1 h reorder horizon, so
	// every real episode's window closes.
	last := eps[len(eps)-1][0].Time
	in.sentinel = []ttkv.Mutation{{Key: "bench/sentinel", Value: "end", Time: last.Add(2 * time.Hour)}}
	return in
}

// readInputs builds history_read: the preload stream, then nOps operations
// over its keys drawn Zipf(s=1.1): 50% Get, 30% GetAt, 10% History, 5%
// ModTimes over the key's component, 5% Set of a new tail version.
func readInputs(spec workload.StreamSpec, nOps int) *kvInputs {
	eps := episodes(workload.SyntheticStream(spec))
	in := &kvInputs{preload: flatten(eps)}
	comps := componentsOf(eps)
	var keys []string
	compOf := make(map[string][]string)
	for _, comp := range comps {
		for _, k := range comp {
			compOf[k] = comp
		}
		keys = append(keys, comp...)
	}
	rng := rand.New(rand.NewSource(spec.Seed))
	// Popularity rank → key through a seeded shuffle, so hot keys spread
	// over components and shards.
	rng.Shuffle(len(keys), func(i, j int) { keys[i], keys[j] = keys[j], keys[i] })
	zipf := rand.NewZipf(rng, 1.1, 1, uint64(len(keys)-1))
	first, last := eps[0][0].Time, eps[len(eps)-1][0].Time
	for i := 0; i < nOps; i++ {
		o := op{key: keys[zipf.Uint64()]}
		switch p := rng.Intn(100); {
		case p < 50:
			o.kind = opGet
		case p < 80:
			o.kind = opGetAt
			o.t = first.Add(time.Duration(rng.Int63n(int64(last.Sub(first)))))
		case p < 90:
			o.kind = opHistory
		case p < 95:
			o.kind = opModTimes
			o.keys = compOf[o.key]
		default:
			o.kind = opSet
			o.value = fmt.Sprintf("w%d", i)
			o.t = last.Add(time.Duration(i+1) * time.Second)
		}
		in.unitStart = append(in.unitStart, i)
		in.ops = append(in.ops, o)
	}
	in.unitStart = append(in.unitStart, nOps)
	return in
}

// units is how many units the stream has.
func (in *kvInputs) units() int { return len(in.unitStart) - 1 }

// unit returns the n-th unit's ops and the id of its first op.
func (in *kvInputs) unit(n int) (ops []op, firstID int) {
	return in.ops[in.unitStart[n]:in.unitStart[n+1]], in.unitStart[n]
}

// model is the client-side record of acknowledged writes: per key, every
// version in the store's order (time, then arrival).
type model struct {
	versions  map[string][]ttkv.Mutation
	total     int
	userBytes int64
}

func newModel() *model { return &model{versions: make(map[string][]ttkv.Mutation)} }

func (m *model) add(muts []ttkv.Mutation) {
	for _, mu := range muts {
		m.versions[mu.Key] = append(m.versions[mu.Key], mu)
		m.userBytes += int64(len(mu.Key) + len(mu.Value))
	}
	m.total += len(muts)
}

// history returns key's versions oldest first.
func (m *model) history(key string) []ttkv.Mutation {
	vs := m.versions[key]
	sort.SliceStable(vs, func(i, j int) bool { return vs[i].Time.Before(vs[j].Time) })
	return vs
}

// sampleKeys picks n keys (all of them if fewer) with a seeded shuffle.
func (m *model) sampleKeys(seed int64, n int) []string {
	keys := make([]string, 0, len(m.versions))
	for k := range m.versions {
		keys = append(keys, k)
	}
	sort.Strings(keys)
	rand.New(rand.NewSource(seed)).Shuffle(len(keys), func(i, j int) { keys[i], keys[j] = keys[j], keys[i] })
	return keys[:min(n, len(keys))]
}

// verify compares STATS totals and n sampled Get/History replies against the
// model and returns (checks made, human-readable mismatches).
func (m *model) verify(c *ttkvwire.Client, seed int64, n int) (int, []string) {
	var bad []string
	checks := 1
	st, err := c.StatsContext(opDeadline(time.Now().Add(opTimeout)))
	if err != nil {
		return checks, []string{"STATS: " + err.Error()}
	}
	if st.Keys != len(m.versions) || st.Versions != m.total {
		bad = append(bad, fmt.Sprintf("STATS keys/versions %d/%d, acked writes give %d/%d", st.Keys, st.Versions, len(m.versions), m.total))
	}
	for _, key := range m.sampleKeys(seed, n) {
		checks++
		want := m.history(key)
		ctx := opDeadline(time.Now().Add(opTimeout))
		got, err := c.HistoryContext(ctx, key)
		if err != nil {
			bad = append(bad, fmt.Sprintf("HIST %s: %v", key, err))
			continue
		}
		ok := len(got) == len(want)
		for i := 0; ok && i < len(got); i++ {
			ok = got[i].Time.Equal(want[i].Time) && got[i].Value == want[i].Value && !got[i].Deleted
		}
		if !ok {
			bad = append(bad, fmt.Sprintf("HIST %s: %d versions, acked writes give %d (or contents differ)", key, len(got), len(want)))
			continue
		}
		if v, err := c.GetContext(ctx, key); err != nil || v != want[len(want)-1].Value {
			bad = append(bad, fmt.Sprintf("GET %s = %q, %v; want %q", key, v, err, want[len(want)-1].Value))
		}
	}
	return checks, bad
}
