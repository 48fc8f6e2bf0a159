// The analysis half of the results pipeline: ioguard-report loads a
// trajectory, groups measurements across runs by stable keys
// (speedup pair name, sweep-sketch (suite, sweep, system), slot-table
// device), summarizes each group's trend, renders paper-ready tables,
// and decides a regression verdict — the nightly CI gate.
package results

import (
	"fmt"
	"math"
	"sort"
	"strings"
)

// The regression gates.
const (
	// speedupDropFactor flags a speedup pair when the latest run falls
	// below the prior-run median divided by this factor: losing half the
	// speedup is a regression, benchmark noise is not.
	speedupDropFactor = 2
	// quantileGrowFactor flags a sweep when the latest response p99
	// exceeds the prior-run median multiplied by this factor, and a
	// slot-table footprint that grows by as much.
	quantileGrowFactor = 1.5
	// successDrop flags a sweep when the latest success ratio falls
	// more than this many ratio points below the prior median.
	successDrop = 0.05
	// minRuns is the run count below which no verdicts fire: a trend
	// needs a past.
	minRuns = 2
)

// Trend is one measurement tracked across the runs that carry it.
type Trend struct {
	Key    string
	Values []float64 // chronological, one per run carrying the key
}

// Latest returns the newest value.
func (t *Trend) Latest() float64 { return t.Values[len(t.Values)-1] }

// PriorMedian returns the median of all values before the newest, or
// NaN when the trend has no past.
func (t *Trend) PriorMedian() float64 {
	prior := t.Values[:len(t.Values)-1]
	if len(prior) == 0 {
		return math.NaN()
	}
	s := append([]float64(nil), prior...)
	sort.Float64s(s)
	mid := len(s) / 2
	if len(s)%2 == 1 {
		return s[mid]
	}
	return (s[mid-1] + s[mid]) / 2
}

// SketchRow is one sweep sketch's rendered summary for the latest run
// carrying its key.
type SketchRow struct {
	Key            string
	Trials         int
	SuccessRatio   float64
	ThroughputMean float64
	N              int
	P50, P99, Max  float64
	TardP99        float64
}

// Analysis is a trajectory's grouped, trend-summarized view.
type Analysis struct {
	Runs        int
	FirstStamp  string
	LastStamp   string
	Speedups    []Trend // speedup ratio per pair
	Quantiles   []Trend // response p99 (slots) per sweep key
	Success     []Trend // success ratio per sweep key
	Footprints  []Trend // interval bytes per slot-table device
	Sketches    []SketchRow
	Robustness  []RobustnessRow // fault rows of the newest run carrying any
	Regressions []string
}

// Regressed reports whether any gate fired.
func (a *Analysis) Regressed() bool { return len(a.Regressions) > 0 }

// collectTrends folds per-run (key, value) pairs into ordered trends.
type trendSet struct {
	byKey map[string]*Trend
	order []string
}

func newTrendSet() *trendSet { return &trendSet{byKey: map[string]*Trend{}} }

func (ts *trendSet) add(key string, v float64) {
	t, ok := ts.byKey[key]
	if !ok {
		t = &Trend{Key: key}
		ts.byKey[key] = t
		ts.order = append(ts.order, key)
	}
	t.Values = append(t.Values, v)
}

func (ts *trendSet) trends() []Trend {
	out := make([]Trend, 0, len(ts.order))
	for _, k := range ts.order {
		out = append(out, *ts.byKey[k])
	}
	return out
}

// Analyze groups the trajectory's runs and decides the verdict.
func Analyze(traj *Trajectory) *Analysis {
	a := &Analysis{Runs: len(traj.Runs)}
	if a.Runs == 0 {
		a.Regressions = append(a.Regressions, "trajectory holds no runs")
		return a
	}
	a.FirstStamp = traj.Runs[0].Timestamp
	a.LastStamp = traj.Runs[a.Runs-1].Timestamp

	speed := newTrendSet()
	quant := newTrendSet()
	succ := newTrendSet()
	foot := newTrendSet()
	latestSketch := map[string]SketchRow{}
	var sketchOrder []string
	for _, run := range traj.Runs {
		for _, s := range run.Speedups {
			speed.add(s.Name, s.Speedup)
		}
		if len(run.Robustness) > 0 {
			a.Robustness = run.Robustness
		}
		for _, row := range run.SlotTables {
			foot.add(row.Device, float64(row.IntervalBytes))
		}
		for i := range run.SweepSketches {
			sk := &run.SweepSketches[i]
			key := sk.Key()
			row := SketchRow{
				Key:            key,
				Trials:         sk.Trials,
				SuccessRatio:   sk.SuccessRatio,
				ThroughputMean: sk.ThroughputMean,
			}
			if sk.Response != nil {
				row.N = sk.Response.N()
				row.P50 = sk.Response.Percentile(50)
				row.P99 = sk.Response.Percentile(99)
				row.Max = sk.Response.Max()
				quant.add(key, row.P99)
			}
			if sk.Tardiness != nil {
				row.TardP99 = sk.Tardiness.Percentile(99)
			}
			succ.add(key, sk.SuccessRatio)
			if _, ok := latestSketch[key]; !ok {
				sketchOrder = append(sketchOrder, key)
			}
			latestSketch[key] = row
		}
	}
	a.Speedups = speed.trends()
	a.Quantiles = quant.trends()
	a.Success = succ.trends()
	a.Footprints = foot.trends()
	for _, k := range sketchOrder {
		a.Sketches = append(a.Sketches, latestSketch[k])
	}

	if a.Runs < minRuns {
		return a // a trend needs a past; single-run trajectories pass
	}
	for _, t := range a.Speedups {
		med := t.PriorMedian()
		if math.IsNaN(med) || med <= 0 {
			continue
		}
		if t.Latest() < med/speedupDropFactor {
			a.Regressions = append(a.Regressions, fmt.Sprintf(
				"speedup %s fell to %.2f× (prior median %.2f×, gate %.2f×)",
				t.Key, t.Latest(), med, med/speedupDropFactor))
		}
	}
	for _, t := range a.Quantiles {
		med := t.PriorMedian()
		if math.IsNaN(med) {
			continue
		}
		gate := med * quantileGrowFactor
		if med == 0 {
			// A p99 that was pinned at zero and moved is a real tail
			// regression, not noise a factor could scale.
			gate = 0
		}
		if t.Latest() > gate {
			a.Regressions = append(a.Regressions, fmt.Sprintf(
				"response p99 of %s grew to %.0f slots (prior median %.0f, gate %.0f)",
				t.Key, t.Latest(), med, gate))
		}
	}
	for _, t := range a.Success {
		med := t.PriorMedian()
		if math.IsNaN(med) {
			continue
		}
		if t.Latest() < med-successDrop {
			a.Regressions = append(a.Regressions, fmt.Sprintf(
				"success ratio of %s fell to %.3f (prior median %.3f, gate %.3f)",
				t.Key, t.Latest(), med, med-successDrop))
		}
	}
	for _, t := range a.Footprints {
		med := t.PriorMedian()
		if math.IsNaN(med) || med <= 0 {
			continue
		}
		if t.Latest() > med*quantileGrowFactor {
			a.Regressions = append(a.Regressions, fmt.Sprintf(
				"slot-table footprint of %s grew to %.0f B (prior median %.0f B)",
				t.Key, t.Latest(), med))
		}
	}
	return a
}

// trendCell renders "latest (prior median)" for one trend.
func trendCell(t Trend, format string) string {
	latest := fmt.Sprintf(format, t.Latest())
	med := t.PriorMedian()
	if math.IsNaN(med) {
		return latest
	}
	return latest + " (prior " + fmt.Sprintf(format, med) + ")"
}

// Render prints the analysis as paper-ready markdown tables.
func Render(a *Analysis) string {
	var b strings.Builder
	fmt.Fprintf(&b, "# I/O-GUARD benchmark trajectory report\n\n")
	fmt.Fprintf(&b, "runs: %d", a.Runs)
	if a.FirstStamp != "" {
		fmt.Fprintf(&b, " (%s → %s)", a.FirstStamp, a.LastStamp)
	}
	b.WriteString("\n")
	if len(a.Sketches) > 0 {
		b.WriteString("\n## Sweep latency distributions (latest run, slots)\n\n")
		b.WriteString("| sweep | trials | success | tput MB/s | n | p50 | p99 | max | tard p99 |\n")
		b.WriteString("|---|---|---|---|---|---|---|---|---|\n")
		for _, r := range a.Sketches {
			fmt.Fprintf(&b, "| %s | %d | %.3f | %.3f | %d | %.0f | %.0f | %.0f | %.0f |\n",
				r.Key, r.Trials, r.SuccessRatio, r.ThroughputMean, r.N, r.P50, r.P99, r.Max, r.TardP99)
		}
	}
	if len(a.Robustness) > 0 {
		b.WriteString("\n## Fault robustness (latest run)\n\n")
		b.WriteString("| scenario | system | trials | success | misses/trial | faulted misses/trial | drops/trial | dups/trial | accuracy mean | accuracy p99 |\n")
		b.WriteString("|---|---|---|---|---|---|---|---|---|---|\n")
		for _, r := range a.Robustness {
			fmt.Fprintf(&b, "| %s | %s | %d | %.3f | %.2f | %.2f | %.2f | %.2f | %.2f | %.0f |\n",
				r.Scenario, r.System, r.Trials, r.SuccessRatio, r.MissesPerTrial, r.FaultedMissesPerTrial,
				r.DropsPerTrial, r.DupsPerTrial, r.AccuracyMeanSlots, r.AccuracyP99Slots)
		}
	}
	if len(a.Quantiles) > 0 {
		b.WriteString("\n## Response p99 trend (slots)\n\n| sweep | p99 |\n|---|---|\n")
		for _, t := range a.Quantiles {
			fmt.Fprintf(&b, "| %s | %s |\n", t.Key, trendCell(t, "%.0f"))
		}
	}
	if len(a.Speedups) > 0 {
		b.WriteString("\n## Speedup pairs\n\n| pair | speedup |\n|---|---|\n")
		for _, t := range a.Speedups {
			fmt.Fprintf(&b, "| %s | %s |\n", t.Key, trendCell(t, "%.2f×"))
		}
	}
	if len(a.Footprints) > 0 {
		b.WriteString("\n## Slot-table footprint (interval bytes)\n\n| device | bytes |\n|---|---|\n")
		for _, t := range a.Footprints {
			fmt.Fprintf(&b, "| %s | %s |\n", t.Key, trendCell(t, "%.0f"))
		}
	}
	b.WriteString("\n## Verdict\n\n")
	if a.Regressed() {
		b.WriteString("REGRESSION\n")
		for _, r := range a.Regressions {
			fmt.Fprintf(&b, "- %s\n", r)
		}
	} else {
		b.WriteString("OK\n")
	}
	return b.String()
}
