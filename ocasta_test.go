package ocasta

import (
	"bytes"
	"fmt"
	"reflect"
	"strings"
	"testing"
	"time"
)

var t0 = time.Date(2013, 6, 1, 12, 0, 0, 0, time.UTC)

func TestClusterEventsFacade(t *testing.T) {
	var events []Event
	for i := 0; i < 3; i++ {
		ts := t0.Add(time.Duration(i) * time.Hour)
		events = append(events,
			Event{Time: ts, Op: OpWrite, Store: StoreGConf, App: "a", Key: "/k1", Value: "x"},
			Event{Time: ts, Op: OpWrite, Store: StoreGConf, App: "a", Key: "/k2", Value: "y"},
		)
	}
	events = append(events, Event{
		Time: t0.Add(9 * time.Hour), Op: OpWrite, Store: StoreGConf, App: "a", Key: "/solo", Value: "z",
	})
	clusters := ClusterEvents(events, Config{})
	if len(clusters) != 2 {
		t.Fatalf("clusters = %+v, want pair + singleton", clusters)
	}
	multi := MultiKey(clusters)
	if len(multi) != 1 || multi[0].Size() != 2 {
		t.Fatalf("multi = %+v", multi)
	}
	if got := Correlation(3, 3, 3); got != 2 {
		t.Errorf("Correlation = %v, want 2", got)
	}
}

// TestClusterEventsWindowsAllAppsAsOneStream documents that ClusterEvents
// windows its whole input as one write stream: two applications writing
// in the same second are co-modified, unlike ClusterTrace, which windows
// one application's writes on their own.
func TestClusterEventsWindowsAllAppsAsOneStream(t *testing.T) {
	tr := &Trace{Name: "two-apps"}
	for i := 0; i < 3; i++ {
		ts := t0.Add(time.Duration(i) * time.Hour)
		tr.Events = append(tr.Events,
			Event{Time: ts.Add(400 * time.Millisecond), Op: OpWrite, Store: StoreGConf, App: "viewer", Key: "/viewer/zoom"},
			Event{Time: ts, Op: OpWrite, Store: StoreGConf, App: "editor", Key: "/editor/font"},
		)
	}
	want := []Cluster{{
		Keys:         []string{"/editor/font", "/viewer/zoom"},
		ModCount:     6,
		LastModified: t0.Add(2*time.Hour + 400*time.Millisecond),
	}}
	if got := ClusterEvents(tr.Events, Config{}); !reflect.DeepEqual(got, want) {
		t.Fatalf("ClusterEvents = %+v, want %+v", got, want)
	}
	if got := ClusterTrace(tr, "editor", Config{}); len(got) != 1 || got[0].Size() != 1 {
		t.Fatalf("ClusterTrace(editor) = %+v, want the lone editor key", got)
	}
}

func TestClusterTraceAndEvaluate(t *testing.T) {
	tr := &Trace{Name: "m"}
	for i := 0; i < 2; i++ {
		ts := t0.Add(time.Duration(i) * time.Hour)
		tr.Events = append(tr.Events,
			Event{Time: ts, Op: OpWrite, App: "app", Store: StoreFile, Key: "f:/a"},
			Event{Time: ts, Op: OpWrite, App: "app", Store: StoreFile, Key: "f:/b"},
			Event{Time: ts, Op: OpWrite, App: "other", Store: StoreFile, Key: "g:/x"},
		)
	}
	clusters := ClusterTrace(tr, "app", Config{Threshold: 2})
	gt := NewGroundTruth([][]string{{"f:/a", "f:/b"}})
	rep := Evaluate("app", clusters, gt)
	if rep.MultiKey != 1 || rep.Exact != 1 {
		t.Fatalf("report = %+v", rep)
	}
	SortForRecovery(clusters)
}

func TestStoreFacadeAndTraceCodecs(t *testing.T) {
	store := NewStore()
	if err := store.Set("k", "v", t0); err != nil {
		t.Fatal(err)
	}
	if v, ok := store.Get("k"); !ok || v != "v" {
		t.Fatal("store facade broken")
	}
	tr := &Trace{Name: "x", Events: []Event{{Time: t0, Op: OpWrite, Store: StoreFile, App: "a", Key: "k"}}}
	var buf bytes.Buffer
	if err := WriteTraceBinary(&buf, tr); err != nil {
		t.Fatal(err)
	}
	got, err := ReadTraceBinary(&buf)
	if err != nil || got.Name != "x" || len(got.Events) != 1 {
		t.Fatalf("binary codec: %+v, %v", got, err)
	}
	buf.Reset()
	if err := WriteTraceJSONL(&buf, tr); err != nil {
		t.Fatal(err)
	}
	if _, err := ReadTraceJSONL(&buf); err != nil {
		t.Fatal(err)
	}
	if st := SummarizeTrace(tr); st.Writes != 1 {
		t.Errorf("SummarizeTrace = %+v", st)
	}
}

func TestRepairFacadeEndToEnd(t *testing.T) {
	// Tiny end-to-end through the public API only: record history, break a
	// setting, repair it.
	store := NewStore()
	model := AppModelByName("eog")
	if model == nil {
		t.Fatal("model roster missing eog")
	}
	key := "/apps/eog/print/enable_printing"
	must := func(err error) {
		if err != nil {
			t.Fatal(err)
		}
	}
	must(store.Set(key, "b:true", t0))
	must(store.Set(key, "b:true", t0.Add(time.Hour)))
	must(store.Set(key, "b:false", t0.Add(48*time.Hour))) // the error

	tool := NewRepairTool(store, model)
	res, err := tool.Search(RepairOptions{
		Strategy: StrategyDFS,
		Trial:    []string{"launch", "print"},
		Oracle:   MarkerOracle("[x] print-dialog", "[ ] print-dialog"),
	})
	if err != nil || !res.Found {
		t.Fatalf("repair failed: %+v, %v", res, err)
	}
	must(tool.ApplyFix(res, t0.Add(72*time.Hour)))
	if v, _ := store.Get(key); v != "b:true" {
		t.Errorf("after fix, key = %q", v)
	}
}

func TestCatalogFacades(t *testing.T) {
	if len(AppModels()) != 11 {
		t.Error("AppModels != 11")
	}
	if len(FaultCatalog()) != 16 {
		t.Error("FaultCatalog != 16")
	}
	if len(MachineProfiles()) != 9 {
		t.Error("MachineProfiles != 9")
	}
	f, err := FaultByID(8)
	if err != nil || f.AppName != "evolution" {
		t.Errorf("FaultByID(8) = %+v, %v", f, err)
	}
	dep := GenerateDeployment(MachineProfiles()[6]) // Linux-2, small
	if dep.Store.Len() == 0 || len(dep.Trace.Events) == 0 {
		t.Error("GenerateDeployment produced an empty deployment")
	}
}

func TestConfigNormalization(t *testing.T) {
	c := Config{}.normalized()
	if c.Window != DefaultWindow || c.Threshold != DefaultCorrelationThreshold || c.Linkage != LinkageComplete {
		t.Errorf("normalized defaults wrong: %+v", c)
	}
	c = Config{Threshold: 3}.normalized() // out of range -> default
	if c.Threshold != DefaultCorrelationThreshold {
		t.Errorf("out-of-range threshold should normalize, got %v", c.Threshold)
	}
}

// TestClusterEventsParallelismDeterminism pins the facade knob: any
// Parallelism setting must produce identical clusters.
func TestClusterEventsParallelismDeterminism(t *testing.T) {
	base := time.Date(2013, 6, 1, 0, 0, 0, 0, time.UTC)
	var events []Event
	for i := 0; i < 200; i++ {
		ts := base.Add(time.Duration(i) * 10 * time.Second)
		a := fmt.Sprintf("k%d", i%37)
		b := fmt.Sprintf("k%d", (i*5+1)%37)
		events = append(events,
			Event{Time: ts, Op: OpWrite, Store: StoreRegistry, App: "app", Key: a, Value: "v"},
			Event{Time: ts, Op: OpWrite, Store: StoreRegistry, App: "app", Key: b, Value: "v"},
		)
	}
	ref := ClusterEvents(events, Config{Threshold: 1, Parallelism: 1})
	for _, par := range []int{0, 2, 7} {
		got := ClusterEvents(events, Config{Threshold: 1, Parallelism: par})
		if len(got) != len(ref) {
			t.Fatalf("parallelism %d: %d clusters, want %d", par, len(got), len(ref))
		}
		for i := range got {
			if strings.Join(got[i].Keys, ",") != strings.Join(ref[i].Keys, ",") {
				t.Fatalf("parallelism %d cluster %d: %v != %v", par, i, got[i].Keys, ref[i].Keys)
			}
		}
	}
}

// TestEngineFacadeMatchesBatch sanity-checks the facade's streaming
// engine against ClusterEvents on the same stream (the exhaustive
// property tests live in internal/core).
func TestEngineFacadeMatchesBatch(t *testing.T) {
	base := time.Date(2013, 6, 1, 12, 0, 0, 0, time.UTC)
	var events []Event
	for ep := 0; ep < 5; ep++ {
		ts := base.Add(time.Duration(ep) * 10 * time.Second)
		for _, k := range []string{"pair/a", "pair/b"} {
			events = append(events, Event{Time: ts, Op: OpWrite, Store: StoreRegistry, App: "app", Key: k})
		}
		events = append(events, Event{Time: ts.Add(5 * time.Second), Op: OpWrite, Store: StoreRegistry, App: "app", Key: "lone"})
	}
	want := ClusterEvents(events, Config{})

	eng := NewEngine(EngineConfig{})
	for _, ev := range events {
		eng.Push(ev)
	}
	eng.Flush()
	got := eng.Recluster()
	if !reflect.DeepEqual(got, want) {
		t.Fatalf("engine clusters = %+v, want %+v", got, want)
	}
	if eng.Version() != 1 {
		t.Errorf("Version = %d, want 1", eng.Version())
	}
}
