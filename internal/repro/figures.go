package repro

import (
	"fmt"
	"strings"
	"time"

	"ocasta/internal/apps"
	"ocasta/internal/core"
	"ocasta/internal/repair"
	"ocasta/internal/study"
	"ocasta/internal/trace"
	"ocasta/internal/workload"
)

// AllFaultIDs lists every Table III error.
func AllFaultIDs() []int {
	ids := make([]int, 16)
	for i := range ids {
		ids[i] = i + 1
	}
	return ids
}

// Fig2Point is one x position of a Fig 2 series: the average trial count
// for BFS and DFS over the selected errors.
type Fig2Point struct {
	X   float64
	BFS float64
	DFS float64
}

// Fig2a sweeps the error-injection age (days before trace end) and reports
// the average number of trials for both strategies (Fig 2a of the paper).
func Fig2a(faultIDs []int, days []int) ([]Fig2Point, error) {
	points := make([]Fig2Point, 0, len(days))
	for _, d := range days {
		var bfsSum, dfsSum float64
		n := 0
		for _, id := range faultIDs {
			sc, err := NewScenario(id, d, 0)
			if err != nil {
				return nil, err
			}
			dfs, err := sc.Search(repair.StrategyDFS, false)
			if err != nil {
				return nil, err
			}
			bfs, err := sc.Search(repair.StrategyBFS, false)
			if err != nil {
				return nil, err
			}
			dfsSum += float64(dfs.Trials)
			bfsSum += float64(bfs.Trials)
			n++
		}
		points = append(points, Fig2Point{X: float64(d), BFS: bfsSum / float64(n), DFS: dfsSum / float64(n)})
	}
	return points, nil
}

// Fig2b sweeps the number of spurious repair-attempt writes after the
// injected error (Fig 2b), with the injection fixed at 14 days.
func Fig2b(faultIDs []int, spurious []int) ([]Fig2Point, error) {
	points := make([]Fig2Point, 0, len(spurious))
	for _, sp := range spurious {
		var bfsSum, dfsSum float64
		n := 0
		for _, id := range faultIDs {
			sc, err := NewScenario(id, DefaultInjectionDays, sp)
			if err != nil {
				return nil, err
			}
			dfs, err := sc.Search(repair.StrategyDFS, false)
			if err != nil {
				return nil, err
			}
			bfs, err := sc.Search(repair.StrategyBFS, false)
			if err != nil {
				return nil, err
			}
			dfsSum += float64(dfs.Trials)
			bfsSum += float64(bfs.Trials)
			n++
		}
		points = append(points, Fig2Point{X: float64(sp), BFS: bfsSum / float64(n), DFS: dfsSum / float64(n)})
	}
	return points, nil
}

// Fig2c sweeps the search start bound (days of history searched) with the
// injection fixed at 14 days (Fig 2c). Bounds shorter than each machine's
// trace are clamped to its full length.
func Fig2c(faultIDs []int, boundDays []int) ([]Fig2Point, error) {
	points := make([]Fig2Point, 0, len(boundDays))
	for _, bound := range boundDays {
		var bfsSum, dfsSum float64
		n := 0
		for _, id := range faultIDs {
			sc, err := NewScenario(id, DefaultInjectionDays, 0)
			if err != nil {
				return nil, err
			}
			start := sc.End.Add(-time.Duration(bound) * 24 * time.Hour)
			dfs, err := sc.SearchBounded(repair.StrategyDFS, start)
			if err != nil {
				return nil, err
			}
			bfs, err := sc.SearchBounded(repair.StrategyBFS, start)
			if err != nil {
				return nil, err
			}
			dfsSum += float64(dfs.Trials)
			bfsSum += float64(bfs.Trials)
			n++
		}
		points = append(points, Fig2Point{X: float64(bound), BFS: bfsSum / float64(n), DFS: dfsSum / float64(n)})
	}
	return points, nil
}

// RenderFig2 formats a Fig 2 series.
func RenderFig2(title, xlabel string, points []Fig2Point) string {
	var b strings.Builder
	fmt.Fprintf(&b, "%s\n", title)
	fmt.Fprintf(&b, "%-18s %10s %10s\n", xlabel, "BFS", "DFS")
	for _, p := range points {
		fmt.Fprintf(&b, "%-18.0f %10.1f %10.1f\n", p.X, p.BFS, p.DFS)
	}
	return b.String()
}

// Fig3Point is one x position of a Fig 3 series.
type Fig3Point struct {
	X       float64
	AvgSize float64
}

// avgMultiSize computes the mean size of multi-key clusters across all 11
// applications for given parameters.
func avgMultiSize(window time.Duration, corrThreshold float64) float64 {
	totalKeys, totalClusters := 0, 0
	for i, m := range apps.Models() {
		res := workload.Generate(workload.StudyUsage(m, int64(100+i)))
		ps := core.StatsOf(res.Trace.ByApp(m.Name).Events, window)
		clusters := core.NewClusterer(core.LinkageComplete).
			WithParallelism(clusterParallelism()).
			Cluster(ps, core.ThresholdFromCorrelation(corrThreshold))
		for _, c := range core.MultiKey(clusters) {
			totalKeys += c.Size()
			totalClusters++
		}
	}
	if totalClusters == 0 {
		return 0
	}
	return float64(totalKeys) / float64(totalClusters)
}

// Fig3a sweeps the clustering window size (Fig 3a); the sharp drop from
// one second to zero reproduces the paper's second-granularity artifact.
func Fig3a(windows []time.Duration) []Fig3Point {
	points := make([]Fig3Point, 0, len(windows))
	for _, w := range windows {
		points = append(points, Fig3Point{X: w.Seconds(), AvgSize: avgMultiSize(w, 2)})
	}
	return points
}

// Fig3b sweeps the clustering threshold (Fig 3b) at the default 1-second
// window.
func Fig3b(thresholds []float64) []Fig3Point {
	points := make([]Fig3Point, 0, len(thresholds))
	for _, th := range thresholds {
		points = append(points, Fig3Point{X: th, AvgSize: avgMultiSize(trace.DefaultWindow, th)})
	}
	return points
}

// RenderFig3 formats a Fig 3 series.
func RenderFig3(title, xlabel string, points []Fig3Point) string {
	var b strings.Builder
	fmt.Fprintf(&b, "%s\n", title)
	fmt.Fprintf(&b, "%-24s %16s\n", xlabel, "Avg cluster size")
	for _, p := range points {
		fmt.Fprintf(&b, "%-24g %16.2f\n", p.X, p.AvgSize)
	}
	return b.String()
}

// Fig4 runs the simulated user study.
func Fig4(seed int64) study.Outcome { return study.Run(seed) }

// RenderFig4 formats the user-study comparison.
func RenderFig4(out study.Outcome) string {
	var b strings.Builder
	b.WriteString("Fig 4: Time to fix with Ocasta vs manual (19 participants, 5-minute manual cutoff)\n")
	fmt.Fprintf(&b, "%-6s %14s %14s %14s\n", "Case", "Ocasta(avg)", "Manual(avg)", "Manual fixes")
	for _, e := range out.Errors {
		fmt.Fprintf(&b, "%-6d %14s %14s %10d/%d\n",
			e.FaultID, mmss(e.OcastaAvg), mmss(e.ManualAvg), e.ManualFixed, e.Participants)
	}
	b.WriteString("Trial-creation difficulty ratings: ")
	b.WriteString(renderRatings(out.TrialDifficulty))
	b.WriteString("\nScreenshot-selection difficulty ratings: ")
	b.WriteString(renderRatings(out.ScreenshotDifficulty))
	b.WriteByte('\n')
	return b.String()
}

func renderRatings(r study.Ratings) string {
	parts := make([]string, 0, 5)
	for i := 1; i <= 5; i++ {
		if r[i] > 0 {
			parts = append(parts, fmt.Sprintf("%d:%.0f%%", i, r[i]*100))
		}
	}
	return strings.Join(parts, " ")
}

// DefaultFig2aDays is the paper's Fig 2a x axis.
func DefaultFig2aDays() []int { return []int{0, 2, 4, 6, 8, 10, 12, 14} }

// DefaultFig2bSpurious is the paper's Fig 2b x axis.
func DefaultFig2bSpurious() []int { return []int{0, 1, 2} }

// DefaultFig2cBounds is the paper's Fig 2c x axis (days of history).
func DefaultFig2cBounds() []int { return []int{14, 20, 30, 40, 50, 60, 70, 80} }

// DefaultFig3aWindows is the paper's Fig 3a x axis.
func DefaultFig3aWindows() []time.Duration {
	return []time.Duration{
		0, time.Second, 2 * time.Second, 5 * time.Second, 15 * time.Second,
		30 * time.Second, 60 * time.Second, 120 * time.Second,
		300 * time.Second, 600 * time.Second,
	}
}

// DefaultFig3bThresholds is the paper's Fig 3b x axis (correlation).
func DefaultFig3bThresholds() []float64 {
	return []float64{0.5, 0.75, 1.0, 1.25, 1.5, 1.75, 2.0}
}
