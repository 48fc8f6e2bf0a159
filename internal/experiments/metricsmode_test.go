// Metrics-mode contract: exact and stream (mergeable KLL) sweeps must
// render byte-identical tables at any worker count within a mode, the case-study tables must not vary
// across modes at all (they use only exactly-counted quantities), and
// the merged cross-trial quantiles must sit inside the proven ε·n rank
// band of the exact distribution. Run under -race in CI, the worker
// loops also prove the fold publishes no shared state.
package experiments

import (
	"encoding/json"
	"math"
	"runtime"
	"strings"
	"testing"

	"ioguard/internal/system"
	"ioguard/internal/workload"
)

// renderSweep renders everything a case-study sweep prints: the Fig. 7
// tables, the -quantiles companion and every per-cell aggregate block.
func renderSweep(points []CaseStudyPoint, vms int) string {
	var b strings.Builder
	b.WriteString(RenderCaseStudy(points, vms))
	b.WriteString(RenderCaseStudyQuantiles(points, vms))
	for _, p := range points {
		b.WriteString(RenderAggregate(p.System, p.Agg))
	}
	return b.String()
}

// TestMetricsModeThreeWaySweepEquivalence pins two contracts at once:
// within each metrics mode the full rendered sweep is byte-identical
// for workers 1, 2 and GOMAXPROCS (the fold order is trial order, not
// completion order), and across modes the Fig. 7 tables agree exactly
// (success ratios and throughput are counted, never sketched).
func TestMetricsModeThreeWaySweepEquivalence(t *testing.T) {
	cfg := CaseStudyConfig{
		VMs:          4,
		Utils:        []float64{0.50, 0.90},
		Trials:       4,
		HyperPeriods: 1,
		Seed:         7,
		Systems:      []string{"BS|Legacy", "I/O-GUARD-70"},
	}
	modes := []system.MetricsMode{system.MetricsExact, system.MetricsStream}
	tables := map[system.MetricsMode]string{}
	for _, mode := range modes {
		mode := mode
		var reference string
		for _, workers := range workerCounts() {
			c := cfg
			c.Metrics = mode
			c.Workers = workers
			points, err := CaseStudy(c)
			if err != nil {
				t.Fatalf("%v workers=%d: %v", mode, workers, err)
			}
			out := renderSweep(points, c.VMs)
			if reference == "" {
				reference = out
				tables[mode] = RenderCaseStudy(points, c.VMs)
				continue
			}
			if out != reference {
				t.Fatalf("%v: workers=%d rendered sweep diverged from workers=%d", mode, workers, workerCounts()[0])
			}
		}
	}
	for _, mode := range modes[1:] {
		if tables[mode] != tables[system.MetricsExact] {
			t.Fatalf("case-study tables differ between exact and %v:\n%s\n---\n%s",
				mode, tables[system.MetricsExact], tables[mode])
		}
	}
}

// TestMergedQuantilesWithinEpsBand is the sketch pipeline's acceptance
// band: across a randomized 1000-trial sweep, every merged cross-trial
// quantile must land between the exact values at ranks q·n ± (ε·n + 2)
// — the KLL guarantee, preserved under the per-trial merges — while
// the folded count, mean and extrema agree (those combine exactly).
func TestMergedQuantilesWithinEpsBand(t *testing.T) {
	if testing.Short() {
		t.Skip("1000-trial sweep")
	}
	const trials = 1000
	ts, err := workload.Generate(workload.Config{VMs: 2, TargetUtil: 0.6, Seed: 42})
	if err != nil {
		t.Fatal(err)
	}
	tr := system.Trial{VMs: 2, Tasks: ts, Horizon: ts.Hyperperiod(), Seed: 42}
	build := Builders()["I/O-GUARD-70"]
	workers := runtime.GOMAXPROCS(0)

	tr.Metrics = system.MetricsExact
	exact, err := system.ParallelSweep(build, tr, trials, workers)
	if err != nil {
		t.Fatal(err)
	}
	tr.Metrics = system.MetricsStream
	stream, err := system.ParallelSweep(build, tr, trials, workers)
	if err != nil {
		t.Fatal(err)
	}

	sk := stream.Response.Sketch()
	if sk == nil {
		t.Fatal("streaming sweep produced no merged response sketch")
	}
	n := exact.Response.N()
	if n < trials || stream.Response.N() != n {
		t.Fatalf("fold counts disagree: exact n=%d, merged n=%d", n, stream.Response.N())
	}
	if got, want := stream.Response.Max(), exact.Response.Max(); got != want {
		t.Fatalf("merged max %g != exact max %g (extrema fold exactly)", got, want)
	}
	if got, want := stream.Response.Mean(), exact.Response.Mean(); math.Abs(got-want) > 1e-9*math.Max(1, math.Abs(want)) {
		t.Fatalf("merged mean %g != exact mean %g (moments fold exactly)", got, want)
	}
	eps := sk.Epsilon()
	slack := 2.0 / float64(n) // rank-interpolation slop at the band edges
	for _, q := range []float64{0.01, 0.25, 0.50, 0.90, 0.99} {
		got := stream.Response.Quantile(q)
		lo := exact.Response.Quantile(math.Max(0, q-eps-slack))
		hi := exact.Response.Quantile(math.Min(1, q+eps+slack))
		if got < lo || got > hi {
			t.Errorf("q=%.2f: merged %g outside exact ε-band [%g, %g] (ε=%g, n=%d)", q, got, lo, hi, eps, n)
		}
	}
}

// TestStreamSweepStateIndependentOfTrials pins the streaming sweep's
// memory contract: the serialized cross-trial fold (the aggregate's
// only distribution state in stream mode) must not grow linearly with
// trial count — 8× the trials may add at most the KLL's logarithmic
// level growth, bounded here by 1.5× plus a constant.
func TestStreamSweepStateIndependentOfTrials(t *testing.T) {
	ts, err := workload.Generate(workload.Config{VMs: 2, TargetUtil: 0.6, Seed: 9})
	if err != nil {
		t.Fatal(err)
	}
	tr := system.Trial{
		VMs: 2, Tasks: ts, Horizon: ts.Hyperperiod(), Seed: 9,
		Metrics: system.MetricsStream,
	}
	build := Builders()["I/O-GUARD-70"]
	size := func(trials int) int {
		agg, err := system.ParallelSweep(build, tr, trials, 4)
		if err != nil {
			t.Fatal(err)
		}
		data, err := json.Marshal(&agg.Response)
		if err != nil {
			t.Fatal(err)
		}
		return len(data)
	}
	small, large := size(40), size(320)
	if large > small*3/2+1024 {
		t.Fatalf("sweep state grew with trial count: 40 trials → %d B, 320 trials → %d B", small, large)
	}
	const capBytes = 128 << 10
	if large > capBytes {
		t.Fatalf("sweep state %d B exceeds the %d B cap", large, capBytes)
	}
}
