package experiments

import (
	"reflect"
	"strings"
	"testing"
)

// TestRobustnessDeterministicAcrossWorkers pins the robustness sweep's
// fold contract: any worker count, dense or sharded, renders the
// identical table, faulted scenarios carry fault summaries for every
// system, and the clean scenario still reports timing accuracy.
func TestRobustnessDeterministicAcrossWorkers(t *testing.T) {
	cfg := RobustnessConfig{
		VMs:          2,
		Util:         0.8,
		Trials:       2,
		HyperPeriods: 1,
		Seed:         5,
		Scenarios:    []string{"clean", "storm"},
	}
	base, err := Robustness(cfg)
	if err != nil {
		t.Fatal(err)
	}
	for _, p := range base {
		switch p.Scenario {
		case "storm":
			if p.Agg.FaultTrials != cfg.Trials {
				t.Errorf("%s/%s: fault trials = %d, want %d", p.Scenario, p.System, p.Agg.FaultTrials, cfg.Trials)
			}
		case "clean":
			if p.Agg.FaultTrials != 0 {
				t.Errorf("clean/%s: fault trials = %d", p.System, p.Agg.FaultTrials)
			}
		}
		if p.Agg.Accuracy.N() == 0 {
			t.Errorf("%s/%s: no accuracy fold", p.Scenario, p.System)
		}
	}
	want := RenderRobustness(base, cfg.VMs, cfg.Util)
	if !strings.Contains(want, "BS|PART") {
		t.Fatal("robustness table missing the partitioning baseline")
	}
	for _, alt := range []RobustnessConfig{
		{VMs: 2, Util: 0.8, Trials: 2, HyperPeriods: 1, Seed: 5, Scenarios: cfg.Scenarios, Workers: 1},
		{VMs: 2, Util: 0.8, Trials: 2, HyperPeriods: 1, Seed: 5, Scenarios: cfg.Scenarios, Workers: 3},
		{VMs: 2, Util: 0.8, Trials: 2, HyperPeriods: 1, Seed: 5, Scenarios: cfg.Scenarios, Dense: true},
	} {
		pts, err := Robustness(alt)
		if err != nil {
			t.Fatal(err)
		}
		if got := RenderRobustness(pts, alt.VMs, alt.Util); got != want {
			t.Fatalf("table diverged at workers=%d dense=%v:\n%s\nvs\n%s",
				alt.Workers, alt.Dense, got, want)
		}
	}
}

// TestRobustnessScenarioValidation: unknown scenario names and bad
// configs surface as errors, and the scenario filter preserves menu
// order.
func TestRobustnessScenarioValidation(t *testing.T) {
	if _, err := Robustness(RobustnessConfig{VMs: 0}); err == nil {
		t.Error("zero VMs accepted")
	}
	if _, err := Robustness(RobustnessConfig{VMs: 2, Scenarios: []string{"meteor"}}); err == nil {
		t.Error("unknown scenario accepted")
	}
	if _, err := Robustness(RobustnessConfig{VMs: 2, Systems: []string{"BS|NOPE"}}); err == nil {
		t.Error("unknown system accepted")
	}
	pts, err := Robustness(RobustnessConfig{
		VMs: 2, Trials: 1, HyperPeriods: 1, Seed: 9,
		Systems:   []string{"I/O-GUARD-70"},
		Scenarios: []string{"drop", "jitter"}, // menu order is jitter, drop
	})
	if err != nil {
		t.Fatal(err)
	}
	var order []string
	for _, p := range pts {
		order = append(order, p.Scenario)
	}
	if !reflect.DeepEqual(order, []string{"jitter", "drop"}) {
		t.Errorf("scenario order = %v, want menu order [jitter drop]", order)
	}
}
