package ocasta

// Integration tests across the public facade: live stores and loggers
// feeding a TTKV daemon over real TCP, clustering from the recorded
// history, error injection, and repair.

import (
	"errors"
	"net"
	"testing"
	"time"

	"ocasta/internal/gconf"
	"ocasta/internal/ttkvwire"
)

// TestFullPipelineOverWire drives the complete deployment architecture:
// a GConf application instrumented by the preload logger, recording over
// TCP into a ttkvd-style server, then clustering and repairing against the
// server's store — the paper's exact component topology.
func TestFullPipelineOverWire(t *testing.T) {
	base := time.Date(2013, 6, 1, 9, 0, 0, 0, time.UTC)

	// The shared TTKV daemon.
	serverStore := NewStore()
	ln, err := net.Listen("tcp", "127.0.0.1:0")
	if err != nil {
		t.Fatal(err)
	}
	srv, errc := Serve(serverStore, ln)
	defer func() {
		srv.Close()
		if err := <-errc; !errors.Is(err, ttkvwire.ErrServerClosed) {
			t.Errorf("server exit: %v", err)
		}
	}()

	// The instrumented process: GConf client + preload hook + wire sink.
	client, err := Dial(ln.Addr().String())
	if err != nil {
		t.Fatal(err)
	}
	defer client.Close()
	logger := NewLogger(NewRemoteSink(client), WithTraceRecording("Linux-1"))
	db := gconf.New()
	defer db.Attach(logger.GConfHook())()
	evo := db.Client("evolution")

	const offline = "/apps/evolution/shell/start_offline"
	const sync = "/apps/evolution/shell/offline_sync"
	for day := 0; day < 4; day++ {
		ts := base.Add(time.Duration(day) * 24 * time.Hour)
		if err := evo.SetBool(offline, false, ts); err != nil {
			t.Fatal(err)
		}
		if err := evo.SetBool(sync, day%2 == 0, ts); err != nil {
			t.Fatal(err)
		}
	}
	// The error, two weeks later.
	errAt := base.Add(18 * 24 * time.Hour)
	if err := evo.SetBool(offline, true, errAt); err != nil {
		t.Fatal(err)
	}
	if err := evo.SetBool(sync, true, errAt); err != nil {
		t.Fatal(err)
	}
	if err := logger.Err(); err != nil {
		t.Fatalf("logger sink error: %v", err)
	}

	// The daemon's store holds the full history.
	hist, err := serverStore.History(offline)
	if err != nil || len(hist) != 5 {
		t.Fatalf("server history = %d versions, %v; want 5", len(hist), err)
	}

	// Clustering from the recorded trace identifies the dialog pair.
	clusters := ClusterTrace(logger.Trace(), "evolution", Config{})
	multi := MultiKey(clusters)
	if len(multi) != 1 || multi[0].Size() != 2 {
		t.Fatalf("clusters = %+v, want the offline pair", multi)
	}

	// Repair against the server's store.
	model := AppModelByName("evolution")
	tool := NewRepairTool(serverStore, model)
	res, err := tool.Search(RepairOptions{
		Trial:  []string{"launch"},
		Oracle: MarkerOracle("[x] online-mode", "[ ] online-mode"),
	})
	if err != nil || !res.Found {
		t.Fatalf("repair: %+v, %v", res, err)
	}
	if !res.Offending.Contains(offline) {
		t.Errorf("offending cluster = %v, want it to contain %s", res.Offending.Keys, offline)
	}
	if err := tool.ApplyFix(res, errAt.Add(time.Hour)); err != nil {
		t.Fatal(err)
	}
	if v, _ := serverStore.Get(offline); v != "b:false" {
		t.Errorf("after fix, %s = %q, want b:false", offline, v)
	}
}

// TestRemoteRepairOverFacade drives the asynchronous repair loop through
// the public facade: REPAIR submits the job, RSTAT polls it, RFIX applies
// the confirmed rollback atomically — the full paper recovery loop over
// real TCP.
func TestRemoteRepairOverFacade(t *testing.T) {
	base := time.Date(2013, 6, 1, 9, 0, 0, 0, time.UTC)
	store := NewStore()
	const offline = "/apps/evolution/shell/start_offline"
	const sync = "/apps/evolution/shell/offline_sync"
	for day := 0; day < 4; day++ {
		ts := base.Add(time.Duration(day) * 24 * time.Hour)
		if err := store.Set(offline, "b:false", ts); err != nil {
			t.Fatal(err)
		}
		if err := store.Set(sync, "b:true", ts); err != nil {
			t.Fatal(err)
		}
	}
	errAt := base.Add(18 * 24 * time.Hour)
	if err := store.Set(offline, "b:true", errAt); err != nil {
		t.Fatal(err)
	}
	if err := store.Set(sync, "b:true", errAt); err != nil {
		t.Fatal(err)
	}

	ln, err := net.Listen("tcp", "127.0.0.1:0")
	if err != nil {
		t.Fatal(err)
	}
	srv, errc := Serve(store, ln)
	defer func() {
		srv.Close()
		if err := <-errc; !errors.Is(err, ttkvwire.ErrServerClosed) {
			t.Errorf("server exit: %v", err)
		}
	}()
	client, err := Dial(ln.Addr().String())
	if err != nil {
		t.Fatal(err)
	}
	defer client.Close()

	id, err := client.RepairSubmit(RepairRequest{
		App: "evolution", Trial: []string{"launch"},
		FixedMarker: "[x] online-mode", BrokenMarker: "[ ] online-mode",
	})
	if err != nil {
		t.Fatal(err)
	}
	st, err := client.RepairWait(id, time.Millisecond, 10*time.Second)
	if err != nil {
		t.Fatal(err)
	}
	if st.State != RepairJobDone || !st.Found {
		t.Fatalf("remote repair job = %+v, want done+found", st)
	}
	if _, err := client.RepairFix(id, errAt.Add(time.Hour)); err != nil {
		t.Fatal(err)
	}
	if v, _ := store.Get(offline); v != "b:false" {
		t.Errorf("after remote fix, %s = %q, want b:false", offline, v)
	}
}

// TestAOFSurvivesRestart checks the durability loop the daemon relies on:
// record, restart, replay the segmented log, keep recording, repair from
// the replayed history.
func TestAOFSurvivesRestart(t *testing.T) {
	base := time.Date(2013, 6, 1, 9, 0, 0, 0, time.UTC)
	dir := t.TempDir()
	key := "/apps/eog/print/enable_printing"

	h, err := OpenStore(StoreOptions{AOFDir: dir})
	if err != nil {
		t.Fatal(err)
	}
	if err := h.Store.Set(key, "b:true", base); err != nil {
		t.Fatal(err)
	}
	if err := h.Close(); err != nil {
		t.Fatal(err)
	}

	// "Restart": replay, keep recording, and repair from the history.
	h, err = OpenStore(StoreOptions{AOFDir: dir})
	if err != nil {
		t.Fatal(err)
	}
	defer h.Close() //nolint:errcheck
	if err := h.Store.Set(key, "b:false", base.Add(24*time.Hour)); err != nil {
		t.Fatal(err)
	}
	if hist, err := h.Store.History(key); err != nil || len(hist) != 2 {
		t.Fatalf("history after restart = %d versions, %v; want 2", len(hist), err)
	}
	tool := NewRepairTool(h.Store, AppModelByName("eog"))
	res, err := tool.Search(RepairOptions{
		Trial:  []string{"launch", "print"},
		Oracle: MarkerOracle("[x] print-dialog", "[ ] print-dialog"),
	})
	if err != nil || !res.Found {
		t.Fatalf("repair from replayed AOF failed: %+v, %v", res, err)
	}
}
