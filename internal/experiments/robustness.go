// The robustness study: every buildable system — the case-study five
// plus the BS|PART static-partitioning baseline — driven through a
// fixed menu of fault scenarios on identical workloads, scored with
// the fault-conditioned metrics (misses of perturbed jobs, delivered
// duplicates) and the ROTA-I/O-style timing-accuracy distribution.
// Beyond the paper: Sec. V measures the systems on clean transports;
// this table asks how much of I/O-GUARD's margin survives release
// jitter and a lossy, duplicating, delaying interconnect.

package experiments

import (
	"fmt"
	"strings"

	"ioguard/internal/faults"
	"ioguard/internal/metrics"
	"ioguard/internal/system"
)

// FaultScenario is one named fault plan of the robustness menu.
type FaultScenario struct {
	Name string
	Plan faults.Plan
}

// FaultScenarios returns the robustness menu. The plan seeds are
// derived from base so two sweeps at different -seed values realize
// different fault streams, while every system inside one sweep sees
// the identical realization.
func FaultScenarios(base int64) []FaultScenario {
	return []FaultScenario{
		{Name: "clean", Plan: faults.Plan{}},
		{Name: "jitter", Plan: faults.Plan{Seed: base + 1, ReleaseJitter: 100}},
		{Name: "drop", Plan: faults.Plan{Seed: base + 2, DropProb: 0.05}},
		{Name: "dup", Plan: faults.Plan{Seed: base + 3, DupProb: 0.05}},
		{Name: "delay", Plan: faults.Plan{Seed: base + 4, DelayProb: 0.10, DelayMax: 64}},
		{Name: "storm", Plan: faults.Plan{
			Seed: base + 5, ReleaseJitter: 100,
			DropProb: 0.02, DupProb: 0.02, DelayProb: 0.05, DelayMax: 64,
		}},
	}
}

// RobustnessConfig parameterizes the robustness sweep.
type RobustnessConfig struct {
	VMs    int
	Util   float64 // target utilization; 0 = 0.7
	Trials int     // trials per (scenario, system); ≤0 = 5
	// HyperPeriods sets the horizon in workload hyper-periods; ≤0 = 4.
	HyperPeriods int
	Seed         int64
	// Systems restricts the comparison; nil = AllSystemNames().
	Systems []string
	// Scenarios restricts the fault menu by name; nil = all.
	Scenarios []string
	// Workers/Metrics follow CaseStudyConfig: they change wall-clock
	// time only, never a byte of output.
	Workers int
	Metrics system.MetricsMode
}

// RobustnessPoint is one (scenario, system) cell.
type RobustnessPoint struct {
	Scenario string
	System   string
	Agg      *metrics.Aggregate
}

// Robustness runs the sweep: for each scenario every system executes
// the same trials — identical workload, release seed and fault
// realization — so cells differ only by architecture. Clean-scenario
// trials still opt into the accuracy recorder, putting all cells on
// the same metric footing. Cells fan across cfg.Workers goroutines
// with the deterministic fold of system.RunCells.
func Robustness(cfg RobustnessConfig) ([]RobustnessPoint, error) {
	return robustness(cfg, Builders())
}

// robustness is Robustness over the given builders.
func robustness(cfg RobustnessConfig, builders map[string]system.Builder) ([]RobustnessPoint, error) {
	if cfg.VMs <= 0 {
		return nil, fmt.Errorf("experiments: need VMs > 0")
	}
	if cfg.Util == 0 {
		cfg.Util = 0.7
	}
	if cfg.Trials <= 0 {
		cfg.Trials = 5
	}
	if cfg.HyperPeriods <= 0 {
		cfg.HyperPeriods = 4
	}
	names := cfg.Systems
	if names == nil {
		names = AllSystemNames()
	}
	scenarios := FaultScenarios(cfg.Seed)
	if cfg.Scenarios != nil {
		want := map[string]bool{}
		for _, s := range cfg.Scenarios {
			want[s] = true
		}
		var kept []FaultScenario
		for _, sc := range scenarios {
			if want[sc.Name] {
				kept = append(kept, sc)
				delete(want, sc.Name)
			}
		}
		for s := range want {
			return nil, fmt.Errorf("experiments: unknown fault scenario %q", s)
		}
		scenarios = kept
	}
	groups := make([]sweepGroup, len(scenarios))
	for i, sc := range scenarios {
		groups[i] = sweepGroup{util: cfg.Util, plan: sc.Plan, where: "under " + sc.Name}
	}
	aggs, err := sweep{
		vms:          cfg.VMs,
		trials:       cfg.Trials,
		hyperPeriods: cfg.HyperPeriods,
		seed:         cfg.Seed,
		names:        names,
		workers:      cfg.Workers,
		metrics:      cfg.Metrics,
		accuracy:     true,
	}.run(builders, groups)
	if err != nil {
		return nil, err
	}
	var out []RobustnessPoint
	for si, sc := range scenarios {
		for ni, name := range names {
			out = append(out, RobustnessPoint{Scenario: sc.Name, System: name, Agg: aggs[si][ni]})
		}
	}
	return out, nil
}

// RenderRobustness prints the robustness table: one block per
// scenario, one row per system, with the fault-conditioned miss
// counts and the timing-accuracy tail next to the classic success
// ratio.
func RenderRobustness(points []RobustnessPoint, vms int, util float64) string {
	type keyT struct{ sc, sys string }
	cells := map[keyT]*metrics.Aggregate{}
	var scOrder []string
	scSeen := map[string]bool{}
	sysSeen := map[string]bool{}
	for _, p := range points {
		cells[keyT{p.Scenario, p.System}] = p.Agg
		if !scSeen[p.Scenario] {
			scSeen[p.Scenario] = true
			scOrder = append(scOrder, p.Scenario)
		}
		sysSeen[p.System] = true
	}
	var b strings.Builder
	fmt.Fprintf(&b, "Robustness — fault-conditioned timing metrics, %d VMs, util %.2f\n", vms, util)
	for _, sc := range scOrder {
		fmt.Fprintf(&b, "scenario: %s\n", sc)
		fmt.Fprintf(&b, "  %-14s %8s %9s %9s %8s %8s %10s %10s\n",
			"system", "success", "misses/t", "fmiss/t", "drops/t", "dups/t", "acc-mean", "acc-p99")
		for _, name := range AllSystemNames() {
			if !sysSeen[name] {
				continue
			}
			agg := cells[keyT{sc, name}]
			if agg == nil {
				continue
			}
			fmt.Fprintf(&b, "  %-14s %7.1f%% %9.1f %9.1f %8.1f %8.1f %10.2f %10.0f\n",
				name,
				100*agg.SuccessRatio(),
				agg.Misses.Mean(),
				agg.FaultedMisses.Mean(),
				agg.FaultDropped.Mean(),
				agg.DupDelivered.Mean(),
				agg.Accuracy.Mean(),
				agg.Accuracy.Quantile(0.99))
		}
	}
	return b.String()
}
