package ttkvwire

import (
	"bufio"
	"context"
	"errors"
	"fmt"
	"net"
	"os"
	"strconv"
	"time"

	"ocasta/internal/core"
	"ocasta/internal/ttkv"
)

// Client errors.
var (
	// ErrNotFound is returned for GET/GETAT misses.
	ErrNotFound = errors.New("ttkvwire: not found")
)

// RemoteError is an error the server reported that does not map to one of
// the typed wire errors (ErrReadOnly, ErrNotLeader, ErrRetryable — see
// errors.go).
type RemoteError struct{ Msg string }

// Error implements error.
func (e *RemoteError) Error() string { return "ttkvwire: server: " + e.Msg }

// Client is a connection to a TTKV server. Methods are safe for concurrent
// use; requests are serialized over the single connection. Every operation
// has a context-aware form (SetContext, GetContext, ...); the context-free
// methods are thin wrappers over context.Background(). A context
// cancellation or deadline mid-round-trip poisons the connection (the
// response may be half-read), so the client closes it; subsequent calls
// fail and the caller should redial.
type Client struct {
	mu   chan struct{} // 1-token semaphore guarding conn+buffers
	conn net.Conn
	br   *bufio.Reader
	bw   *bufio.Writer
}

// Dial connects to a TTKV server at addr.
func Dial(addr string) (*Client, error) {
	return DialContext(context.Background(), addr)
}

// DialContext connects to a TTKV server at addr, honoring the context's
// deadline and cancellation for the dial itself.
func DialContext(ctx context.Context, addr string) (*Client, error) {
	var d net.Dialer
	conn, err := d.DialContext(ctx, "tcp", addr)
	if err != nil {
		return nil, fmt.Errorf("ttkvwire: dial: %w", err)
	}
	return NewClient(conn), nil
}

// NewClient wraps an established connection.
func NewClient(conn net.Conn) *Client {
	c := &Client{
		mu:   make(chan struct{}, 1),
		conn: conn,
		br:   bufio.NewReader(conn),
		bw:   bufio.NewWriter(conn),
	}
	c.mu <- struct{}{}
	return c
}

// Close closes the connection.
func (c *Client) Close() error { return c.conn.Close() }

// armContext applies ctx to the connection for the duration of one
// round trip and returns a disarm func. A context deadline becomes the
// connection deadline; a cancelable context additionally gets a watcher
// goroutine that forces an immediate deadline on cancel, unblocking any
// in-flight read/write. Disarm joins the watcher before clearing the
// deadline, so a late SetDeadline can never outlive the round trip.
func (c *Client) armContext(ctx context.Context) func() {
	deadline, hasDeadline := ctx.Deadline()
	if hasDeadline {
		c.conn.SetDeadline(deadline)
	}
	done := ctx.Done()
	if done == nil {
		if !hasDeadline {
			return func() {}
		}
		return func() { c.conn.SetDeadline(time.Time{}) }
	}
	stop := make(chan struct{})
	parked := make(chan struct{})
	go func() {
		defer close(parked)
		select {
		case <-done:
			c.conn.SetDeadline(time.Unix(1, 0)) // in the past: fail I/O now
		case <-stop:
		}
	}()
	return func() {
		close(stop)
		<-parked
		c.conn.SetDeadline(time.Time{})
	}
}

// transportErr closes the poisoned connection and reports the failure,
// preferring the context's error when the context caused it. armContext
// makes the context's deadline the connection's, so the net poller's i/o
// timeout can surface a moment before the context's own timer has made
// ctx.Err() non-nil: a timeout at or after the deadline is the deadline.
func (c *Client) transportErr(ctx context.Context, phase string, err error) error {
	c.conn.Close()
	cerr := ctx.Err()
	if cerr == nil && errors.Is(err, os.ErrDeadlineExceeded) {
		if d, ok := ctx.Deadline(); ok && !time.Now().Before(d) {
			cerr = context.DeadlineExceeded
		}
	}
	if cerr != nil {
		return fmt.Errorf("ttkvwire: %s: %w (%v)", phase, cerr, err)
	}
	return fmt.Errorf("ttkvwire: %s: %w", phase, err)
}

// lock takes the connection for one exchange, or fails with the context's
// error. A context that is already done never wins the connection: select
// picks at random among ready cases, and the command must not be sent.
func (c *Client) lock(ctx context.Context) error {
	if err := ctx.Err(); err != nil {
		return err
	}
	select {
	case <-c.mu:
		return nil
	case <-ctx.Done():
		return ctx.Err()
	}
}

// roundTrip sends one command and reads one response.
func (c *Client) roundTrip(ctx context.Context, args ...string) (Value, error) {
	if err := c.lock(ctx); err != nil {
		return Value{}, err
	}
	defer func() { c.mu <- struct{}{} }()
	disarm := c.armContext(ctx)
	defer disarm()
	if err := writeCommand(c.bw, args...); err != nil {
		return Value{}, c.transportErr(ctx, "send", err)
	}
	v, err := ReadValue(c.br)
	if err != nil {
		return Value{}, c.transportErr(ctx, "recv", err)
	}
	if v.Kind == KindError {
		return Value{}, decodeWireError(v.Str)
	}
	return v, nil
}

// Ping checks liveness.
func (c *Client) Ping() error { return c.PingContext(context.Background()) }

// PingContext checks liveness.
func (c *Client) PingContext(ctx context.Context) error {
	v, err := c.roundTrip(ctx, "PING")
	if err != nil {
		return err
	}
	if v.Kind != KindSimple || v.Str != "PONG" {
		return fmt.Errorf("%w: unexpected PING reply %+v", ErrProtocol, v)
	}
	return nil
}

// Set records a write of key at time t.
func (c *Client) Set(key, value string, t time.Time) error {
	return c.SetContext(context.Background(), key, value, t)
}

// SetContext records a write of key at time t.
func (c *Client) SetContext(ctx context.Context, key, value string, t time.Time) error {
	if t.IsZero() {
		return ttkv.ErrZeroTime
	}
	_, err := c.roundTrip(ctx, "SET", key, value, strconv.FormatInt(t.UnixNano(), 10))
	return err
}

// Delete records a deletion of key at time t.
func (c *Client) Delete(key string, t time.Time) error {
	return c.DeleteContext(context.Background(), key, t)
}

// DeleteContext records a deletion of key at time t.
func (c *Client) DeleteContext(ctx context.Context, key string, t time.Time) error {
	if t.IsZero() {
		return ttkv.ErrZeroTime
	}
	_, err := c.roundTrip(ctx, "DEL", key, strconv.FormatInt(t.UnixNano(), 10))
	return err
}

// msetChunk bounds the mutations per MSET command so the request array
// (1 + 3 per mutation) stays far below the protocol's maxArrayLen no
// matter how large the caller's batch is.
const msetChunk = 4096

// MSet records a batch of writes (deletes in the batch are rejected; use
// a Pipeline to mix operations). The server applies each chunk in order
// with its store's batch API; batches are sent in chunks of msetChunk
// mutations, so an error mid-way can leave earlier chunks applied — a
// *ErrPartialApply error reports exactly how many mutations of the
// original batch took effect.
func (c *Client) MSet(muts []ttkv.Mutation) error {
	return c.MSetContext(context.Background(), muts)
}

// MSetContext records a batch of writes; see MSet.
func (c *Client) MSetContext(ctx context.Context, muts []ttkv.Mutation) error {
	for i := range muts {
		if muts[i].Delete {
			return fmt.Errorf("ttkvwire: MSet cannot carry deletes (key %q)", muts[i].Key)
		}
		// A zero time would serialize as its raw UnixNano sentinel and
		// arrive server-side as a bogus non-zero timestamp, silently
		// bypassing the store's ErrZeroTime validation.
		if muts[i].Time.IsZero() {
			return ttkv.ErrZeroTime
		}
	}
	for start := 0; start < len(muts); start += msetChunk {
		chunk := muts[start:min(start+msetChunk, len(muts))]
		args := make([]string, 0, 1+3*len(chunk))
		args = append(args, "MSET")
		for i := range chunk {
			args = append(args, chunk[i].Key, chunk[i].Value, strconv.FormatInt(chunk[i].Time.UnixNano(), 10))
		}
		v, err := c.roundTrip(ctx, args...)
		if err != nil {
			// A server-reported partial apply counts this chunk's applied
			// prefix; fold in the chunks already acknowledged so Applied
			// indexes the caller's batch, not the failing chunk.
			var partial *ErrPartialApply
			if errors.As(err, &partial) {
				return &ErrPartialApply{Applied: start + partial.Applied, Msg: partial.Msg}
			}
			if start > 0 {
				// The failing chunk reported no partial count, but earlier
				// chunks are already durable — still a partial apply.
				return &ErrPartialApply{Applied: start, Msg: err.Error()}
			}
			return err
		}
		if v.Kind != KindInt || v.Int != int64(len(chunk)) {
			return fmt.Errorf("%w: unexpected MSET reply %+v", ErrProtocol, v)
		}
	}
	return nil
}

// Pipeline returns an empty command pipeline on this connection. Queue
// mutations with Set/Delete, then Flush once: all commands go out in a
// single network write and the responses are read back in order, so N
// mutations cost one round trip instead of N.
func (c *Client) Pipeline() *Pipeline { return &Pipeline{c: c} }

// Pipeline batches mutation commands on one connection. It is not safe
// for concurrent use; each goroutine should build its own.
type Pipeline struct {
	c    *Client
	cmds [][]string
	err  error // first queue-time validation error, reported by Flush
}

// Set queues a write of key at time t.
func (p *Pipeline) Set(key, value string, t time.Time) {
	if t.IsZero() {
		p.fail()
		return
	}
	p.cmds = append(p.cmds, []string{"SET", key, value, strconv.FormatInt(t.UnixNano(), 10)})
}

// Delete queues a deletion of key at time t.
func (p *Pipeline) Delete(key string, t time.Time) {
	if t.IsZero() {
		p.fail()
		return
	}
	p.cmds = append(p.cmds, []string{"DEL", key, strconv.FormatInt(t.UnixNano(), 10)})
}

// fail records a zero-time queue error: serialized as raw UnixNano it
// would reach the server as a bogus non-zero timestamp, dodging the
// store's validation.
func (p *Pipeline) fail() {
	if p.err == nil {
		p.err = ttkv.ErrZeroTime
	}
}

// Len reports how many commands are queued.
func (p *Pipeline) Len() int { return len(p.cmds) }

// pipelineChunk bounds how many commands a Flush keeps in flight before
// draining their responses. Without the bound, a huge pipeline could fill
// both sockets' kernel buffers — server blocked writing responses nobody
// reads, client blocked writing requests nobody accepts — and deadlock.
const pipelineChunk = 512

// Flush sends the queued commands, reads all responses in order, and
// resets the pipeline. Commands go out in chunks of pipelineChunk, each
// chunk a single network write. It returns the first error encountered;
// server-side errors for individual commands surface as typed wire
// errors, and every response is still drained so the connection stays
// usable.
func (p *Pipeline) Flush() error { return p.FlushContext(context.Background()) }

// FlushContext sends the queued commands honoring ctx; see Flush.
func (p *Pipeline) FlushContext(ctx context.Context) error {
	if err := p.err; err != nil {
		p.err = nil
		p.cmds = nil
		return err
	}
	if len(p.cmds) == 0 {
		return nil
	}
	cmds := p.cmds
	p.cmds = nil
	if err := p.c.lock(ctx); err != nil {
		return err
	}
	defer func() { p.c.mu <- struct{}{} }()
	disarm := p.c.armContext(ctx)
	defer disarm()
	var firstErr error
	for start := 0; start < len(cmds); start += pipelineChunk {
		chunk := cmds[start:min(start+pipelineChunk, len(cmds))]
		for _, cmd := range chunk {
			if err := writeCommandBuf(p.c.bw, cmd...); err != nil {
				return p.c.transportErr(ctx, "pipeline send", err)
			}
		}
		if err := p.c.bw.Flush(); err != nil {
			return p.c.transportErr(ctx, "pipeline send", err)
		}
		for range chunk {
			v, err := ReadValue(p.c.br)
			if err != nil {
				// The connection is broken; responses cannot be drained.
				return p.c.transportErr(ctx, "pipeline recv", err)
			}
			if v.Kind == KindError && firstErr == nil {
				firstErr = decodeWireError(v.Str)
			}
		}
	}
	return firstErr
}

// Get fetches the current value of key; ErrNotFound if absent or deleted.
func (c *Client) Get(key string) (string, error) {
	return c.GetContext(context.Background(), key)
}

// GetContext fetches the current value of key; ErrNotFound if absent or
// deleted.
func (c *Client) GetContext(ctx context.Context, key string) (string, error) {
	v, err := c.roundTrip(ctx, "GET", key)
	if err != nil {
		return "", err
	}
	switch v.Kind {
	case KindNil:
		return "", ErrNotFound
	case KindBulk:
		return v.Str, nil
	default:
		return "", fmt.Errorf("%w: unexpected GET reply %+v", ErrProtocol, v)
	}
}

// GetAt fetches the version of key in effect at time t.
func (c *Client) GetAt(key string, t time.Time) (ttkv.Version, error) {
	return c.GetAtContext(context.Background(), key, t)
}

// GetAtContext fetches the version of key in effect at time t.
func (c *Client) GetAtContext(ctx context.Context, key string, t time.Time) (ttkv.Version, error) {
	v, err := c.roundTrip(ctx, "GETAT", key, strconv.FormatInt(t.UnixNano(), 10))
	if err != nil {
		return ttkv.Version{}, err
	}
	if v.Kind == KindNil {
		return ttkv.Version{}, ErrNotFound
	}
	return parseVersion(v)
}

// History fetches the full version history of key, oldest first. A key the
// server has never seen yields an empty history.
func (c *Client) History(key string) ([]ttkv.Version, error) {
	return c.HistoryContext(context.Background(), key)
}

// HistoryContext fetches the full version history of key, oldest first.
func (c *Client) HistoryContext(ctx context.Context, key string) ([]ttkv.Version, error) {
	v, err := c.roundTrip(ctx, "HIST", key)
	if err != nil {
		return nil, err
	}
	if v.Kind != KindArray {
		return nil, fmt.Errorf("%w: unexpected HIST reply %+v", ErrProtocol, v)
	}
	out := make([]ttkv.Version, 0, len(v.Array))
	for _, el := range v.Array {
		ver, err := parseVersion(el)
		if err != nil {
			return nil, err
		}
		out = append(out, ver)
	}
	return out, nil
}

// Keys lists every key the server has seen, sorted.
func (c *Client) Keys() ([]string, error) {
	return c.KeysContext(context.Background())
}

// KeysContext lists every key the server has seen, sorted.
func (c *Client) KeysContext(ctx context.Context) ([]string, error) {
	v, err := c.roundTrip(ctx, "KEYS")
	if err != nil {
		return nil, err
	}
	if v.Kind != KindArray {
		return nil, fmt.Errorf("%w: unexpected KEYS reply %+v", ErrProtocol, v)
	}
	out := make([]string, 0, len(v.Array))
	for _, el := range v.Array {
		if el.Kind != KindBulk {
			return nil, fmt.Errorf("%w: non-bulk key %+v", ErrProtocol, el)
		}
		out = append(out, el.Str)
	}
	return out, nil
}

// ModCount returns the total modifications (writes + deletes) of key.
func (c *Client) ModCount(key string) (int, error) {
	return c.ModCountContext(context.Background(), key)
}

// ModCountContext returns the total modifications (writes + deletes) of
// key.
func (c *Client) ModCountContext(ctx context.Context, key string) (int, error) {
	v, err := c.roundTrip(ctx, "MODCOUNT", key)
	if err != nil {
		return 0, err
	}
	if v.Kind != KindInt {
		return 0, fmt.Errorf("%w: unexpected MODCOUNT reply %+v", ErrProtocol, v)
	}
	return int(v.Int), nil
}

// ModTimes returns the distinct modification timestamps of keys, newest
// first.
func (c *Client) ModTimes(keys ...string) ([]time.Time, error) {
	return c.ModTimesContext(context.Background(), keys...)
}

// ModTimesContext returns the distinct modification timestamps of keys,
// newest first.
func (c *Client) ModTimesContext(ctx context.Context, keys ...string) ([]time.Time, error) {
	args := append([]string{"MODTIMES"}, keys...)
	v, err := c.roundTrip(ctx, args...)
	if err != nil {
		return nil, err
	}
	if v.Kind != KindArray {
		return nil, fmt.Errorf("%w: unexpected MODTIMES reply %+v", ErrProtocol, v)
	}
	out := make([]time.Time, 0, len(v.Array))
	for _, el := range v.Array {
		ns, err := strconv.ParseInt(el.Str, 10, 64)
		if err != nil {
			return nil, fmt.Errorf("%w: bad timestamp %q", ErrProtocol, el.Str)
		}
		out = append(out, time.Unix(0, ns).UTC())
	}
	return out, nil
}

// ClusterSnapshot is the client-side view of one CLUSTERS reply: the
// server engine's published clustering plus its publish counter, which
// increments on every server-side recluster (poll it to detect change).
type ClusterSnapshot struct {
	Version  uint64
	Clusters []core.Cluster
}

// Clusters fetches the server's current live clustering. minSize filters
// to clusters with at least that many member keys (0 keeps all; 2 gives
// the paper's multi-key clusters). The snapshot is stale by at most the
// server's recluster interval plus any still-open co-modification
// windows. Requires the server to run with analytics enabled.
func (c *Client) Clusters(minSize int) (ClusterSnapshot, error) {
	return c.ClustersContext(context.Background(), minSize)
}

// ClustersContext fetches the server's current live clustering; see
// Clusters.
func (c *Client) ClustersContext(ctx context.Context, minSize int) (ClusterSnapshot, error) {
	args := []string{"CLUSTERS"}
	if minSize > 0 {
		args = append(args, strconv.Itoa(minSize))
	}
	v, err := c.roundTrip(ctx, args...)
	if err != nil {
		return ClusterSnapshot{}, err
	}
	if v.Kind != KindArray || len(v.Array) < 1 || v.Array[0].Kind != KindInt {
		return ClusterSnapshot{}, fmt.Errorf("%w: unexpected CLUSTERS reply %+v", ErrProtocol, v)
	}
	snap := ClusterSnapshot{Version: uint64(v.Array[0].Int)}
	for _, el := range v.Array[1:] {
		if el.Kind != KindArray || len(el.Array) < 3 ||
			el.Array[0].Kind != KindInt || el.Array[1].Kind != KindInt {
			return ClusterSnapshot{}, fmt.Errorf("%w: bad cluster shape %+v", ErrProtocol, el)
		}
		cl := core.Cluster{
			ModCount: int(el.Array[0].Int),
			Keys:     make([]string, 0, len(el.Array)-2),
		}
		if ns := el.Array[1].Int; ns != 0 {
			cl.LastModified = time.Unix(0, ns).UTC()
		}
		for _, kv := range el.Array[2:] {
			if kv.Kind != KindBulk {
				return ClusterSnapshot{}, fmt.Errorf("%w: non-bulk cluster key %+v", ErrProtocol, kv)
			}
			cl.Keys = append(cl.Keys, kv.Str)
		}
		snap.Clusters = append(snap.Clusters, cl)
	}
	return snap, nil
}

// Correlation fetches the live co-modification correlation of two keys,
// in [0, 2]. Requires the server to run with analytics enabled.
func (c *Client) Correlation(a, b string) (float64, error) {
	return c.CorrelationContext(context.Background(), a, b)
}

// CorrelationContext fetches the live co-modification correlation of two
// keys, in [0, 2].
func (c *Client) CorrelationContext(ctx context.Context, a, b string) (float64, error) {
	v, err := c.roundTrip(ctx, "CORR", a, b)
	if err != nil {
		return 0, err
	}
	if v.Kind != KindBulk {
		return 0, fmt.Errorf("%w: unexpected CORR reply %+v", ErrProtocol, v)
	}
	f, err := strconv.ParseFloat(v.Str, 64)
	if err != nil {
		return 0, fmt.Errorf("%w: bad CORR value %q", ErrProtocol, v.Str)
	}
	return f, nil
}

// Stats fetches the server's store statistics.
func (c *Client) Stats() (ttkv.Stats, error) {
	return c.StatsContext(context.Background())
}

// StatsContext fetches the server's store statistics.
func (c *Client) StatsContext(ctx context.Context) (ttkv.Stats, error) {
	v, err := c.roundTrip(ctx, "STATS")
	if err != nil {
		return ttkv.Stats{}, err
	}
	if v.Kind != KindArray || len(v.Array) != 6 {
		return ttkv.Stats{}, fmt.Errorf("%w: unexpected STATS reply %+v", ErrProtocol, v)
	}
	for _, el := range v.Array {
		if el.Kind != KindInt {
			return ttkv.Stats{}, fmt.Errorf("%w: non-int stat %+v", ErrProtocol, el)
		}
	}
	return ttkv.Stats{
		Keys:        int(v.Array[0].Int),
		Writes:      uint64(v.Array[1].Int),
		Deletes:     uint64(v.Array[2].Int),
		Reads:       uint64(v.Array[3].Int),
		Versions:    int(v.Array[4].Int),
		ApproxBytes: v.Array[5].Int,
	}, nil
}

func parseVersion(v Value) (ttkv.Version, error) {
	if v.Kind != KindArray || len(v.Array) != 3 {
		return ttkv.Version{}, fmt.Errorf("%w: bad version shape %+v", ErrProtocol, v)
	}
	ns, err := strconv.ParseInt(v.Array[0].Str, 10, 64)
	if err != nil {
		return ttkv.Version{}, fmt.Errorf("%w: bad version time %q", ErrProtocol, v.Array[0].Str)
	}
	return ttkv.Version{
		Time:    time.Unix(0, ns).UTC(),
		Deleted: v.Array[1].Str == "1",
		Value:   v.Array[2].Str,
	}, nil
}
