package benchsuite

import (
	"testing"

	"ioguard/internal/experiments"
	"ioguard/internal/system"
)

// smallSweep runs a scaled-down streaming case study (the nightly
// shape at smoke size) and returns its points.
func smallSweep(t *testing.T, metrics system.MetricsMode) []experiments.CaseStudyPoint {
	t.Helper()
	points, err := experiments.CaseStudy(experiments.CaseStudyConfig{
		VMs:          4,
		Utils:        []float64{0.40, 0.60},
		Trials:       3,
		HyperPeriods: 1,
		Seed:         1,
		Systems:      []string{"BS|Legacy", "I/O-GUARD-70"},
		Metrics:      metrics,
	})
	if err != nil {
		t.Fatal(err)
	}
	return points
}

// TestRecordSweepSketches: a streaming sweep deposits one merged
// sketch per (sweep, system) with every trial folded, repeat runs
// replace rather than duplicate, and Take drains.
func TestRecordSweepSketches(t *testing.T) {
	TakeSweepSketches() // isolate from other tests
	points := smallSweep(t, system.MetricsStream)
	recordSweepSketches("smoke/4vm", points)
	recordSweepSketches("smoke/4vm", points) // b.N > 1 replay
	got := TakeSweepSketches()
	if len(got) != 2 {
		t.Fatalf("registry holds %d sketches, want 2 (one per system)", len(got))
	}
	for _, sk := range got {
		if sk.Sweep != "smoke/4vm" {
			t.Errorf("sketch sweep %q, want smoke/4vm", sk.Sweep)
		}
		if sk.Trials != 6 { // 2 utils × 3 trials
			t.Errorf("%s: trials %d, want 6", sk.System, sk.Trials)
		}
		if sk.Response == nil || sk.Response.N() == 0 {
			t.Errorf("%s: empty response sketch", sk.System)
		}
		if sk.SuccessRatio < 0 || sk.SuccessRatio > 1 {
			t.Errorf("%s: success ratio %g", sk.System, sk.SuccessRatio)
		}
	}
	if rest := TakeSweepSketches(); len(rest) != 0 {
		t.Fatalf("Take did not drain: %d left", len(rest))
	}
}

// TestRecordSweepSketchesSkipsUnmergeable: exact sweeps have no
// serializable fold (the exact buffer never persists), so they deposit
// no sketches.
func TestRecordSweepSketchesSkipsUnmergeable(t *testing.T) {
	TakeSweepSketches()
	recordSweepSketches("smoke/exact", smallSweep(t, system.MetricsExact))
	if got := TakeSweepSketches(); len(got) != 0 {
		t.Fatalf("exact sweep deposited %d sketches", len(got))
	}
}
