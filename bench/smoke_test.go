package main

import (
	"encoding/json"
	"math"
	"os"
	"os/exec"
	"path/filepath"
	"testing"
)

// benchmarkDoc is the part of BENCHMARK.json the smoke test holds the
// program to.
type benchmarkDoc struct {
	Workloads []struct{ Name string }
	EndToEnd  []struct{ Name, Unit string } `json:"end_to_end"`
	PerLayer  []struct{ Name, Unit string } `json:"per_layer"`
}

// TestSmoke runs all four workloads, untraced and traced, at ~1/500 of the
// input size against a freshly built ttkvd, and asserts that every workload
// and metric BENCHMARK.json lists is emitted exactly once, finite, with the
// declared unit, and that nothing failed.
func TestSmoke(t *testing.T) {
	if testing.Short() {
		t.Skip("builds and runs ttkvd")
	}
	raw, err := os.ReadFile("../BENCHMARK.json")
	if err != nil {
		t.Fatal(err)
	}
	var doc benchmarkDoc
	if err := json.Unmarshal(raw, &doc); err != nil {
		t.Fatal(err)
	}
	if len(doc.Workloads) != len(workloadNames) {
		t.Fatalf("BENCHMARK.json lists %d workloads, the program has %v", len(doc.Workloads), workloadNames)
	}
	for i, w := range doc.Workloads {
		if w.Name != workloadNames[i] {
			t.Errorf("workload %d: BENCHMARK.json %q, program %q", i, w.Name, workloadNames[i])
		}
	}

	ttkvd := filepath.Join(t.TempDir(), "ttkvd")
	if out, err := exec.Command("go", "build", "-o", ttkvd, "ocasta/cmd/ttkvd").CombinedOutput(); err != nil {
		t.Fatalf("building ttkvd: %v\n%s", err, out)
	}
	h, err := newHarness(ttkvd, t.TempDir())
	if err != nil {
		t.Fatal(err)
	}
	defer h.cleanup()

	for _, traced := range []bool{false, true} {
		want := doc.EndToEnd
		if traced {
			want = doc.PerLayer
		}
		for _, name := range workloadNames {
			cfg := config{seed: 1, seconds: 0.3, trace: traced, smoke: true, outDir: t.TempDir()}
			res, err := h.runWorkload(name, cfg)
			if err != nil {
				t.Fatal(err)
			}
			if !res.Correct || res.Failed != 0 || res.Attempted < 1 {
				t.Errorf("%s traced=%v: correct=%v attempted=%d failed=%d", name, traced, res.Correct, res.Attempted, res.Failed)
			}
			if len(res.Metrics) != len(want) {
				t.Errorf("%s traced=%v: %d metrics emitted, BENCHMARK.json lists %d", name, traced, len(res.Metrics), len(want))
			}
			for _, m := range want {
				got, ok := res.Metrics[m.Name]
				switch {
				case !ok:
					t.Errorf("%s traced=%v: metric %s not emitted", name, traced, m.Name)
				case got.Unit != m.Unit:
					t.Errorf("%s: metric %s has unit %q, BENCHMARK.json says %q", name, m.Name, got.Unit, m.Unit)
				case math.IsNaN(got.Value) || math.IsInf(got.Value, 0):
					t.Errorf("%s: metric %s is %v", name, m.Name, got.Value)
				case !traced && got.Value <= 0:
					t.Errorf("%s: end-to-end metric %s is %v, must be positive", name, m.Name, got.Value)
				}
			}
			if traced {
				if _, err := os.Stat(filepath.Join(cfg.outDir, name+".trace.json")); err != nil {
					t.Errorf("%s: span file: %v", name, err)
				}
			}
		}
	}
}
