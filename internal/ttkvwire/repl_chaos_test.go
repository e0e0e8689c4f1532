package ttkvwire

import (
	"bytes"
	"fmt"
	"io"
	"math"
	"math/rand"
	"net"
	"sync"
	"sync/atomic"
	"testing"
	"time"

	"ocasta/internal/ttkv"
)

// chopProxy sits between a replica and its primary and kills the
// connection after a per-attempt byte budget in the primary→replica
// direction — cutting the feed mid-snapshot and mid-stream at arbitrary
// byte offsets, the failure replication resume must survive exactly-once.
type chopProxy struct {
	ln      net.Listener
	backend string
	budget  func(attempt int) int64

	mu       sync.Mutex
	attempts int
	conns    []net.Conn
	closed   bool
}

func startChopProxy(t *testing.T, backend string, budget func(attempt int) int64) *chopProxy {
	t.Helper()
	ln, err := net.Listen("tcp", "127.0.0.1:0")
	if err != nil {
		t.Fatal(err)
	}
	p := &chopProxy{ln: ln, backend: backend, budget: budget}
	go p.run()
	t.Cleanup(p.Close)
	return p
}

func (p *chopProxy) Addr() string { return p.ln.Addr().String() }

func (p *chopProxy) Attempts() int {
	p.mu.Lock()
	defer p.mu.Unlock()
	return p.attempts
}

func (p *chopProxy) Close() {
	p.mu.Lock()
	if p.closed {
		p.mu.Unlock()
		return
	}
	p.closed = true
	conns := p.conns
	p.mu.Unlock()
	p.ln.Close()
	for _, c := range conns {
		c.Close()
	}
}

func (p *chopProxy) run() {
	for {
		client, err := p.ln.Accept()
		if err != nil {
			return
		}
		p.mu.Lock()
		attempt := p.attempts
		p.attempts++
		p.conns = append(p.conns, client)
		p.mu.Unlock()
		go p.pipe(client, p.budget(attempt))
	}
}

func (p *chopProxy) pipe(client net.Conn, budget int64) {
	backend, err := net.Dial("tcp", p.backend)
	if err != nil {
		client.Close()
		return
	}
	p.mu.Lock()
	p.conns = append(p.conns, backend)
	p.mu.Unlock()
	done := make(chan struct{}, 2)
	go func() { // replica→primary: unrestricted (SYNC command, acks)
		io.Copy(backend, client) //nolint:errcheck
		done <- struct{}{}
	}()
	go func() { // primary→replica: chopped at the byte budget
		io.CopyN(client, backend, budget) //nolint:errcheck
		done <- struct{}{}
	}()
	<-done
	client.Close()
	backend.Close()
	<-done
}

// TestReplChaosResumeExactlyOnce kills the replication connection at
// randomized byte offsets — including mid-snapshot — while the primary
// keeps writing. Every reconnect must resume from the replica's applied
// sequence with no duplicate or missing records: the final dumps must be
// byte-identical (a duplicate would add versions, a gap would drop them,
// and ApplyReplicated's sequence guard turns either into a loud error).
func TestReplChaosResumeExactlyOnce(t *testing.T) {
	primary := ttkv.NewSharded(8)
	rl := ttkv.NewReplLog(nil)
	if err := primary.AttachReplLog(rl); err != nil {
		t.Fatal(err)
	}
	// A fat pre-loaded history makes the handshake snapshot large enough
	// that small early budgets cut it mid-transfer.
	base := time.Date(2013, 6, 1, 0, 0, 0, 0, time.UTC)
	for i := 0; i < 4000; i++ {
		k := fmt.Sprintf("snap/k%03d", i%200)
		if err := primary.Set(k, fmt.Sprintf("value-%06d", i), base.Add(time.Duration(i)*time.Second)); err != nil {
			t.Fatal(err)
		}
	}
	_, addr := startReplPrimary(t, primary, rl, nil)

	const chopAttempts = 8
	rng := rand.New(rand.NewSource(42))
	budgets := make([]int64, chopAttempts)
	for i := range budgets {
		// Grows from ~1KiB (mid-snapshot) to ~256KiB so later attempts
		// reach the live tail before dying; past them the feed is clean.
		budgets[i] = 1 + rng.Int63n(int64(1024<<(i%6)))
	}
	proxy := startChopProxy(t, addr, func(attempt int) int64 {
		if attempt < chopAttempts {
			return budgets[attempt]
		}
		return math.MaxInt64
	})

	replica := ttkv.NewSharded(2)
	rc, err := NewReplicaClient(ReplicaConfig{
		Primary:    proxy.Addr(),
		Store:      replica,
		MinBackoff: time.Millisecond,
		MaxBackoff: 20 * time.Millisecond,
		// The chopped snapshot stalls reads; keep the retry cadence fast.
		ReadTimeout: 2 * time.Second,
	})
	if err != nil {
		t.Fatal(err)
	}
	defer rc.Stop()

	// Writers keep mutating through the whole chop phase, so resume
	// points land mid-stream too, not only mid-snapshot.
	var stop atomic.Bool
	writerDone := make(chan struct{})
	go func() {
		defer close(writerDone)
		for i := 0; !stop.Load(); i++ {
			k := fmt.Sprintf("live/k%02d", i%40)
			ts := base.Add(time.Duration(5000+i) * time.Second)
			if i%17 == 0 {
				primary.Delete(k, ts)
			} else {
				primary.Set(k, fmt.Sprintf("live-%d", i), ts)
			}
			if i%500 == 0 {
				time.Sleep(time.Millisecond)
			}
		}
	}()

	deadline := time.Now().Add(60 * time.Second)
	for proxy.Attempts() <= chopAttempts {
		if time.Now().After(deadline) {
			t.Fatalf("proxy saw only %d attempts (replica status %+v)", proxy.Attempts(), rc.ReplicaStatus())
		}
		time.Sleep(5 * time.Millisecond)
	}
	stop.Store(true)
	<-writerDone

	drainReplicas(t, primary, rl, rc)
	st := rc.ReplicaStatus()
	if st.Reconnects < chopAttempts-1 {
		t.Fatalf("replica reconnected %d times; the proxy chopped %d connections", st.Reconnects, chopAttempts)
	}
	if got, want := storeDump(t, replica), storeDump(t, primary); !bytes.Equal(got, want) {
		t.Fatal("replica dump differs from primary after chaos: records duplicated or lost")
	}
	// Spot-check the exactly-once accounting a dump miss would hide:
	// per-key version counts and the applied watermark.
	if replica.CurrentSeq() != primary.CurrentSeq() {
		t.Fatalf("replica seq %d, primary seq %d", replica.CurrentSeq(), primary.CurrentSeq())
	}
	for _, k := range []string{"snap/k000", "snap/k199", "live/k00", "live/k39"} {
		if replica.ModCount(k) != primary.ModCount(k) {
			t.Fatalf("%s: replica modcount %d, primary %d", k, replica.ModCount(k), primary.ModCount(k))
		}
	}
}
