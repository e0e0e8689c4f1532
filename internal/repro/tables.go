package repro

import (
	"fmt"
	"strings"
	"time"

	"ocasta/internal/apps"
	"ocasta/internal/core"
	"ocasta/internal/faults"
	"ocasta/internal/repair"
	"ocasta/internal/trace"
	"ocasta/internal/workload"
)

// Table1Row is one machine of Table I.
type Table1Row struct {
	Name    string
	Days    int
	Reads   uint64
	Writes  uint64
	Keys    int
	TTKVMiB float64
}

// Table1 generates the trace statistics of every Table I machine.
func Table1() ([]Table1Row, error) {
	rows := make([]Table1Row, 0, 9)
	for _, p := range workload.Profiles() {
		res, err := Machine(p.Name)
		if err != nil {
			return nil, err
		}
		st := res.Store.Stats()
		rows = append(rows, Table1Row{
			Name:    p.Name,
			Days:    p.Days,
			Reads:   st.Reads,
			Writes:  st.Writes + st.Deletes,
			Keys:    res.AccessedKeys,
			TTKVMiB: float64(st.ApproxBytes) / (1 << 20),
		})
	}
	return rows, nil
}

// RenderTable1 formats Table I.
func RenderTable1(rows []Table1Row) string {
	var b strings.Builder
	b.WriteString("Table I: Summary of trace statistics\n")
	fmt.Fprintf(&b, "%-16s %5s %10s %9s %7s %9s\n", "Name", "Days", "Reads", "Writes", "#Keys", "TTKV Size")
	for _, r := range rows {
		fmt.Fprintf(&b, "%-16s %5d %10s %9s %7d %8.1fM\n",
			r.Name, r.Days, humanCount(r.Reads), humanCount(r.Writes), r.Keys, r.TTKVMiB)
	}
	return b.String()
}

func humanCount(n uint64) string {
	switch {
	case n >= 1_000_000:
		return fmt.Sprintf("%.2fM", float64(n)/1e6)
	case n >= 1_000:
		return fmt.Sprintf("%.2fK", float64(n)/1e3)
	default:
		return fmt.Sprintf("%d", n)
	}
}

// Table2Row is one application of Table II.
type Table2Row struct {
	App         string
	Description string
	Keys        int
	MultiKey    int
	Clusters    int
	Correct     int
	Oversized   int
	Undersized  int
	Accuracy    float64
	AccuracyNA  bool
}

// Table2Result carries the per-application rows plus the paper's two
// aggregates.
type Table2Result struct {
	Rows    []Table2Row
	Overall float64 // total correct / total multi-key (88.6% in the paper)
	Mean    float64 // per-application mean (72.3% in the paper)
}

// ClusterApp runs the full clustering pipeline for one application model
// over its study trace and scores it against ground truth.
func ClusterApp(m *apps.Model, seed int64, window time.Duration, corrThreshold float64) core.Report {
	res := workload.Generate(workload.StudyUsage(m, seed))
	ps := core.StatsOf(res.Trace.ByApp(m.Name).Events, window)
	clusters := core.NewClusterer(core.LinkageComplete).
		WithParallelism(clusterParallelism()).
		Cluster(ps, core.ThresholdFromCorrelation(corrThreshold))
	gt := core.NewGroundTruth(m.GroundTruthGroups())
	rep := core.Evaluate(m.DisplayName, clusters, gt)
	// Table II's #Keys column counts all accessed settings, including
	// read-only ones the clustering never sees.
	rep.Keys = m.KeyCount()
	return rep
}

// Table2 generates the clustering-accuracy study with the paper's default
// parameters (1-second window, correlation threshold 2).
func Table2() Table2Result {
	var out Table2Result
	var reports []core.Report
	for i, m := range apps.Models() {
		rep := ClusterApp(m, int64(100+i), trace.DefaultWindow, 2)
		reports = append(reports, rep)
		row := Table2Row{
			App: m.DisplayName, Description: m.Description,
			Keys: rep.Keys, MultiKey: rep.MultiKey, Clusters: rep.Clusters,
			Correct: rep.Correct, Oversized: rep.Oversized, Undersized: rep.Undersized,
		}
		if acc, ok := rep.Accuracy(); ok {
			row.Accuracy = acc
		} else {
			row.AccuracyNA = true
		}
		out.Rows = append(out.Rows, row)
	}
	out.Overall, out.Mean = core.Overall(reports)
	return out
}

// RenderTable2 formats Table II.
func RenderTable2(res Table2Result) string {
	var b strings.Builder
	b.WriteString("Table II: Applications and their clusters identified by Ocasta\n")
	fmt.Fprintf(&b, "%-22s %-16s %6s %10s %9s\n", "Application", "Description", "#Keys", "#Clusters", "%Accuracy")
	totalKeys, totalMulti, totalAll := 0, 0, 0
	for _, r := range res.Rows {
		acc := "N/A"
		if !r.AccuracyNA {
			acc = fmt.Sprintf("%.1f%%", r.Accuracy*100)
		}
		fmt.Fprintf(&b, "%-22s %-16s %6d %6d/%-4d %9s\n",
			r.App, r.Description, r.Keys, r.MultiKey, r.Clusters, acc)
		totalKeys += r.Keys
		totalMulti += r.MultiKey
		totalAll += r.Clusters
	}
	fmt.Fprintf(&b, "%-22s %-16s %6d %6d/%-4d %8.1f%%\n",
		"Total", "N/A", totalKeys, totalMulti, totalAll, res.Overall*100)
	fmt.Fprintf(&b, "(mean per-application accuracy: %.1f%%)\n", res.Mean*100)
	return b.String()
}

// Table3 returns the error catalog (Table III is data, not measurement).
func Table3() []faults.Fault { return faults.Catalog() }

// RenderTable3 formats Table III.
func RenderTable3(cat []faults.Fault) string {
	var b strings.Builder
	b.WriteString("Table III: Real configuration errors used in the evaluation\n")
	fmt.Fprintf(&b, "%-4s %-15s %-22s %-8s %s\n", "Case", "Trace", "Application", "Logger", "Description")
	for _, f := range cat {
		m := f.Model()
		name := f.AppName
		if m != nil {
			name = m.DisplayName
		}
		logger := map[trace.StoreKind]string{
			trace.StoreRegistry: "Registry", trace.StoreGConf: "GConf", trace.StoreFile: "File",
		}[f.Logger]
		fmt.Fprintf(&b, "%-4d %-15s %-22s %-8s %s\n", f.ID, f.TraceName, name, logger, f.Description)
	}
	return b.String()
}

// Table4Row is one error's recovery performance.
type Table4Row struct {
	Case        int
	ClusterSize int
	Trials      int
	TotalTrials int
	TimeFind    time.Duration
	TimeTotal   time.Duration
	Screens     int
	OcastaFix   bool
	NoClustFix  bool
}

// Table4 runs the recovery experiment for all 16 errors with the paper's
// setup (DFS, injection 14 days before trace end, per-fault parameter
// overrides where the paper needed them).
func Table4() ([]Table4Row, error) {
	rows := make([]Table4Row, 0, 16)
	for _, f := range faults.Catalog() {
		sc, err := NewScenario(f.ID, DefaultInjectionDays, 0)
		if err != nil {
			return nil, err
		}
		res, err := sc.Search(repair.StrategyDFS, false)
		if err != nil {
			return nil, err
		}
		noclust, err := sc.Search(repair.StrategyDFS, true)
		if err != nil {
			return nil, err
		}
		rows = append(rows, Table4Row{
			Case:        f.ID,
			ClusterSize: res.Offending.Size(),
			Trials:      res.Trials,
			TotalTrials: res.TotalTrials,
			TimeFind:    res.SimTime,
			TimeTotal:   res.SimTotalTime,
			Screens:     len(res.Screenshots),
			OcastaFix:   res.Found,
			NoClustFix:  noclust.Found,
		})
	}
	return rows, nil
}

// RenderTable4 formats Table IV.
func RenderTable4(rows []Table4Row) string {
	var b strings.Builder
	b.WriteString("Table IV: Ocasta recovery performance\n")
	fmt.Fprintf(&b, "%-4s %7s %6s %17s %7s %6s %7s\n",
		"Case", "Cl.Size", "Trials", "Time(find/total)", "Screens", "Ocasta", "NoClust")
	var findSum, totalSum float64
	for _, r := range rows {
		fmt.Fprintf(&b, "%-4d %7d %6d %8s/%-8s %7d %6s %7s\n",
			r.Case, r.ClusterSize, r.Trials, mmss(r.TimeFind), mmss(r.TimeTotal),
			r.Screens, yn(r.OcastaFix), yn(r.NoClustFix))
		if r.TimeTotal > 0 {
			findSum += r.TimeFind.Seconds()
			totalSum += r.TimeTotal.Seconds()
		}
	}
	if totalSum > 0 {
		fmt.Fprintf(&b, "(offending cluster found %.0f%% faster than searching the full history)\n",
			(1-findSum/totalSum)*100)
	}
	return b.String()
}

func mmss(d time.Duration) string {
	total := int(d.Round(time.Second).Seconds())
	return fmt.Sprintf("%d:%02d", total/60, total%60)
}

func yn(b bool) string {
	if b {
		return "Y"
	}
	return "N"
}
