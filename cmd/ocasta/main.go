// Command ocasta is the front-end for clustering and repair:
//
//	ocasta cluster -trace win7.jsonl -app msword [-window 1s] [-threshold 2] [-linkage complete] [-parallelism 0]
//	ocasta stats   -trace win7.jsonl
//	ocasta repair  -fault 9 [-strategy dfs] [-noclust] [-parallelism 0]
//
// "repair" runs one of the paper's 16 error scenarios end to end on a
// freshly generated deployment, printing the search progress and the
// screenshots a user would inspect.
package main

import (
	"flag"
	"fmt"
	"os"
	"time"

	"ocasta/internal/core"
	"ocasta/internal/repair"
	"ocasta/internal/repro"
	"ocasta/internal/trace"
)

func main() {
	if len(os.Args) < 2 {
		usage()
		os.Exit(2)
	}
	var code int
	switch os.Args[1] {
	case "cluster":
		code = runCluster(os.Args[2:])
	case "stats":
		code = runStats(os.Args[2:])
	case "repair":
		code = runRepair(os.Args[2:])
	default:
		usage()
		code = 2
	}
	os.Exit(code)
}

func usage() {
	fmt.Fprintln(os.Stderr, `usage: ocasta <cluster|stats|repair> [flags]
  cluster -trace FILE -app NAME [-window D] [-threshold C] [-linkage L] [-parallelism N]
  stats   -trace FILE
  repair  -fault N [-strategy dfs|bfs] [-noclust] [-days N] [-parallelism N]`)
}

func loadTrace(path string) (*trace.Trace, error) {
	f, err := os.Open(path)
	if err != nil {
		return nil, err
	}
	//ocasta:allow stickyerr trace file opened read-only; no buffered writes to lose
	defer f.Close()
	head := make([]byte, 4)
	if _, err := f.Read(head); err != nil {
		return nil, err
	}
	if _, err := f.Seek(0, 0); err != nil {
		return nil, err
	}
	if string(head) == "OCTR" {
		return trace.ReadBinary(f)
	}
	return trace.ReadJSONL(f)
}

func runCluster(args []string) int {
	fs := flag.NewFlagSet("cluster", flag.ExitOnError)
	path := fs.String("trace", "", "trace file (jsonl or binary)")
	app := fs.String("app", "", "application name to cluster")
	window := fs.Duration("window", time.Second, "co-modification window")
	threshold := fs.Float64("threshold", 2, "correlation threshold (0,2]")
	linkage := fs.String("linkage", "complete", "HAC linkage: complete, single, or average")
	parallelism := fs.Int("parallelism", 0, "concurrent component clustering bound (0 = all CPUs)")
	fs.Parse(args)
	if *path == "" || *app == "" {
		fmt.Fprintln(os.Stderr, "ocasta cluster: -trace and -app are required")
		return 2
	}
	link := core.LinkageComplete
	switch *linkage {
	case "complete":
	case "single":
		link = core.LinkageSingle
	case "average":
		link = core.LinkageAverage
	default:
		fmt.Fprintf(os.Stderr, "ocasta cluster: unknown -linkage %q\n", *linkage)
		return 2
	}
	tr, err := loadTrace(*path)
	if err != nil {
		fmt.Fprintln(os.Stderr, "ocasta:", err)
		return 1
	}
	ps := core.StatsOf(tr.ByApp(*app).Events, *window)
	clusters := core.NewClusterer(link).
		WithParallelism(*parallelism).
		Cluster(ps, core.ThresholdFromCorrelation(*threshold))
	core.SortForRecovery(clusters)
	multi := 0
	for _, c := range clusters {
		if c.Size() > 1 {
			multi++
		}
	}
	fmt.Printf("%s: %d keys, %d clusters (%d with more than one setting)\n",
		*app, ps.NumKeys(), len(clusters), multi)
	for i, c := range clusters {
		if c.Size() < 2 {
			continue
		}
		fmt.Printf("cluster %d (modified %d times, last %s):\n",
			i, c.ModCount, c.LastModified.Format(time.RFC3339))
		for _, k := range c.Keys {
			fmt.Printf("  %s\n", k)
		}
	}
	return 0
}

func runStats(args []string) int {
	fs := flag.NewFlagSet("stats", flag.ExitOnError)
	path := fs.String("trace", "", "trace file (jsonl or binary)")
	fs.Parse(args)
	if *path == "" {
		fmt.Fprintln(os.Stderr, "ocasta stats: -trace is required")
		return 2
	}
	tr, err := loadTrace(*path)
	if err != nil {
		fmt.Fprintln(os.Stderr, "ocasta:", err)
		return 1
	}
	st := trace.Summarize(tr)
	fmt.Printf("%s: %d days, %d reads, %d writes (%d deletions), %d keys, %d apps\n",
		st.Name, st.Days, st.Reads, st.Writes, st.Deletes, st.Keys, st.Apps)
	return 0
}

func runRepair(args []string) int {
	fs := flag.NewFlagSet("repair", flag.ExitOnError)
	faultID := fs.Int("fault", 0, "Table III error id (1-16)")
	strategy := fs.String("strategy", "dfs", "search strategy: dfs or bfs")
	noclust := fs.Bool("noclust", false, "roll back one setting at a time (baseline)")
	days := fs.Int("days", repro.DefaultInjectionDays, "days before trace end to inject the error")
	parallelism := fs.Int("parallelism", 0, "concurrent component clustering bound (0 = all CPUs)")
	fs.Parse(args)
	repro.SetParallelism(*parallelism)
	if *faultID < 1 || *faultID > 16 {
		fmt.Fprintln(os.Stderr, "ocasta repair: -fault must be 1..16")
		return 2
	}
	strat := repair.StrategyDFS
	if *strategy == "bfs" {
		strat = repair.StrategyBFS
	}
	sc, err := repro.NewScenario(*faultID, *days, 0)
	if err != nil {
		fmt.Fprintln(os.Stderr, "ocasta:", err)
		return 1
	}
	fmt.Printf("error #%d: %s\n", sc.Fault.ID, sc.Fault.Description)
	fmt.Printf("trace %s, app %s, injected %s\n",
		sc.Fault.TraceName, sc.Fault.Model().DisplayName, sc.InjectAt.Format(time.RFC3339))
	res, err := sc.Search(strat, *noclust)
	if err != nil {
		fmt.Fprintln(os.Stderr, "ocasta:", err)
		return 1
	}
	if !res.Found {
		fmt.Printf("no fix found after %d trials (%s simulated)\n", res.Trials, res.SimTime)
		return 1
	}
	fmt.Printf("fixed after %d trials (%s simulated; exhaustive search %s)\n",
		res.Trials, res.SimTime, res.SimTotalTime)
	fmt.Printf("offending cluster (%d settings):\n", res.Offending.Size())
	for _, k := range res.Offending.Keys {
		fmt.Printf("  %s\n", k)
	}
	fmt.Printf("screenshots the user examined (%d):\n", len(res.Screenshots))
	for _, s := range res.Screenshots {
		fmt.Printf("--- screenshot at trial %d ---\n%s", s.Trial, s.Rendered)
	}
	return 0
}
