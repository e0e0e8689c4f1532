package main

import (
	"bufio"
	"fmt"
	"os"
	"os/exec"
	"path/filepath"
	"strconv"
	"strings"
	"sync"
	"syscall"
	"time"

	"ocasta/internal/ttkvwire"
)

// commonFlags is the daemon configuration every workload shares (stated in
// BENCHMARK.json's workload reasons and README.md): event-time stamps come
// from the generated inputs, so the wall clock must never advance or
// quarantine them.
var commonFlags = []string{
	"-addr", "127.0.0.1:0",
	"-fsync", "interval", "-fsync-interval", "50ms",
	"-shards", "16",
	"-recluster-interval", "1s", "-recluster-advance=false",
	"-max-future-skew", "0", "-horizon", "1h",
}

// harness owns every child process and scratch directory of one benchmark
// invocation, so that each exit path (normal, verifier failure, signal,
// watchdog) removes them.
type harness struct {
	ttkvd   string // daemon binary
	scratch string // this invocation's directory under .bench_build/run

	mu      sync.Mutex
	daemons map[*daemon]struct{}
}

func newHarness(ttkvd, scratchRoot string) (*harness, error) {
	abs, err := filepath.Abs(ttkvd)
	if err != nil {
		return nil, err
	}
	if _, err := os.Stat(abs); err != nil {
		return nil, fmt.Errorf("ttkvd binary: %w (run through bench/run.sh, which builds it)", err)
	}
	if scratchRoot, err = filepath.Abs(scratchRoot); err != nil {
		return nil, err
	}
	if err := os.MkdirAll(scratchRoot, 0o755); err != nil {
		return nil, err
	}
	dir, err := os.MkdirTemp(scratchRoot, "run-")
	if err != nil {
		return nil, err
	}
	return &harness{ttkvd: abs, scratch: dir, daemons: make(map[*daemon]struct{})}, nil
}

// cleanup kills every live child's process group, waits for it, and removes
// the scratch directory. Safe to call more than once and from any goroutine.
func (h *harness) cleanup() {
	h.mu.Lock()
	live := make([]*daemon, 0, len(h.daemons))
	for d := range h.daemons {
		live = append(live, d)
	}
	h.mu.Unlock()
	for _, d := range live {
		d.kill()
	}
	os.RemoveAll(h.scratch)
}

// newDir returns a fresh directory for one daemon.
func (h *harness) newDir() (string, error) { return os.MkdirTemp(h.scratch, "d") }

// daemon is one ttkvd child in its own process group.
type daemon struct {
	h       *harness
	cmd     *exec.Cmd
	addr    string
	startup time.Duration // exec → "serving on" line
	exited  chan struct{} // closed once Wait returned
	waitErr error
}

// start execs ttkvd with commonFlags plus extra and waits for its
// "serving on" line.
func (h *harness) start(extra ...string) (*daemon, error) {
	args := append(append([]string{}, commonFlags...), extra...)
	cmd := exec.Command(h.ttkvd, args...)
	// Own process group so one kill(-pgid) reaps anything it spawned;
	// Pdeathsig covers the harness itself being SIGKILLed.
	cmd.SysProcAttr = &syscall.SysProcAttr{Setpgid: true, Pdeathsig: syscall.SIGKILL}
	cmd.Dir = h.scratch
	cmd.Stderr = os.Stderr
	pr, pw, err := os.Pipe()
	if err != nil {
		return nil, err
	}
	cmd.Stdout = pw
	began := time.Now()
	if err := cmd.Start(); err != nil {
		pr.Close()
		pw.Close()
		return nil, fmt.Errorf("exec ttkvd: %w", err)
	}
	pw.Close()
	d := &daemon{h: h, cmd: cmd, exited: make(chan struct{})}
	h.mu.Lock()
	h.daemons[d] = struct{}{}
	h.mu.Unlock()

	ready := make(chan string, 1)
	go func() {
		// Drains stdout until the child exits, so a chatty daemon never
		// blocks on a full pipe.
		defer pr.Close()
		sc := bufio.NewScanner(pr)
		sc.Buffer(make([]byte, 64<<10), 1<<20)
		sent := false
		for sc.Scan() {
			if sent {
				continue
			}
			if _, rest, ok := strings.Cut(sc.Text(), "ttkvd: serving on "); ok {
				ready <- strings.Fields(rest)[0]
				sent = true
			}
		}
		if !sent {
			close(ready)
		}
	}()
	go func() {
		d.waitErr = cmd.Wait()
		close(d.exited)
	}()

	select {
	case addr, ok := <-ready:
		if !ok {
			d.kill()
			return nil, fmt.Errorf("ttkvd %v exited before serving", extra)
		}
		d.addr = addr
		d.startup = time.Since(began)
		return d, nil
	case <-time.After(60 * time.Second):
		d.kill()
		return nil, fmt.Errorf("ttkvd %v did not start serving within 60s", extra)
	}
}

// dial connects one client and confirms the daemon answers PING.
func (d *daemon) dial() (*ttkvwire.Client, error) {
	c, err := ttkvwire.Dial(d.addr)
	if err != nil {
		return nil, err
	}
	if err := c.PingContext(opDeadline(time.Now().Add(opTimeout))); err != nil {
		c.Close()
		return nil, err
	}
	return c, nil
}

// stop asks for a clean shutdown (SIGTERM: drain, fsync, close the log) and
// waits for the exit; a daemon that ignores it for 20 s is killed.
func (d *daemon) stop() error {
	select {
	case <-d.exited:
	default:
		d.cmd.Process.Signal(syscall.SIGTERM)
		select {
		case <-d.exited:
		case <-time.After(20 * time.Second):
			d.kill()
			return fmt.Errorf("ttkvd pid %d ignored SIGTERM for 20s", d.cmd.Process.Pid)
		}
	}
	d.forget()
	if d.waitErr != nil {
		return fmt.Errorf("ttkvd pid %d: %w", d.cmd.Process.Pid, d.waitErr)
	}
	return nil
}

// kill SIGKILLs the daemon's process group and waits for it.
func (d *daemon) kill() {
	syscall.Kill(-d.cmd.Process.Pid, syscall.SIGKILL)
	<-d.exited
	d.forget()
}

func (d *daemon) forget() {
	d.h.mu.Lock()
	delete(d.h.daemons, d)
	d.h.mu.Unlock()
}

// procUsage reads the child's CPU seconds (utime+stime) and peak resident
// set (VmHWM) from /proc; zeros if the process is already gone.
func (d *daemon) procUsage() (cpuSec, peakRSSMB float64) {
	pid := strconv.Itoa(d.cmd.Process.Pid)
	if b, err := os.ReadFile("/proc/" + pid + "/stat"); err == nil {
		// Fields after the parenthesised command name; utime and stime are
		// fields 14 and 15 of the whole line, in USER_HZ (100 on Linux).
		if i := strings.LastIndexByte(string(b), ')'); i >= 0 {
			f := strings.Fields(string(b[i+1:]))
			if len(f) > 12 {
				ut, _ := strconv.ParseFloat(f[11], 64)
				st, _ := strconv.ParseFloat(f[12], 64)
				cpuSec = (ut + st) / 100
			}
		}
	}
	if b, err := os.ReadFile("/proc/" + pid + "/status"); err == nil {
		for _, line := range strings.Split(string(b), "\n") {
			if rest, ok := strings.CutPrefix(line, "VmHWM:"); ok {
				kb, _ := strconv.ParseFloat(strings.Fields(rest)[0], 64)
				peakRSSMB = kb / 1024
			}
		}
	}
	return cpuSec, peakRSSMB
}

// dirBytes sums the sizes of the regular files under dir and counts them.
func dirBytes(dir string) (bytes int64, files int, err error) {
	err = filepath.Walk(dir, func(_ string, info os.FileInfo, err error) error {
		if err != nil {
			return err
		}
		if info.Mode().IsRegular() {
			bytes += info.Size()
			files++
		}
		return nil
	})
	return bytes, files, err
}
