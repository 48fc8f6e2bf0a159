package experiments

import (
	"fmt"
	"math/rand"
	"testing"

	"ioguard/internal/slot"
	"ioguard/internal/system"
	"ioguard/internal/workload"
)

// TestDecoupledEquivalenceTelemetry pits dense stepping against the
// decoupled per-device clocks on the bursty-telemetry family — sparse
// multi-device sets and the one-hot-device skew cell, the regimes the
// decoupling exists for — across every case-study system and baseline.
func TestDecoupledEquivalenceTelemetry(t *testing.T) {
	cfgs := []workload.TelemetryConfig{
		{VMs: 4},
		{VMs: 4, Sensors: 2, Seed: 5},
		{VMs: 4, HotDevice: "can", HotUtil: 0.6, Seed: 9},
		{VMs: 6, Sensors: 2, HotDevice: "uart", HotUtil: 0.8, Seed: 13},
	}
	builders := Builders()
	for _, name := range SystemNames() {
		build := builders[name]
		for ci, cfg := range cfgs {
			t.Run(fmt.Sprintf("%s/cfg%d", name, ci), func(t *testing.T) {
				ts, err := workload.GenerateTelemetry(cfg)
				if err != nil {
					t.Fatal(err)
				}
				tr := system.Trial{VMs: cfg.VMs, Tasks: ts, Horizon: ts.Hyperperiod(), Seed: int64(31 + ci)}
				dense, ff := runBoth(t, build, tr)
				requireEqual(t, dense, ff)
			})
		}
	}
}

// TestDecoupledEquivalenceWorkloads checks that dense stepping and the
// decoupled shard clocks agree byte-for-byte on both the case-study
// and telemetry workloads, for every system.
func TestDecoupledEquivalenceWorkloads(t *testing.T) {
	caseTS, err := workload.Generate(workload.Config{VMs: 4, TargetUtil: 0.7, Seed: 101})
	if err != nil {
		t.Fatal(err)
	}
	telTS, err := workload.GenerateTelemetry(workload.TelemetryConfig{VMs: 4, HotDevice: "spi", HotUtil: 0.5, Seed: 3})
	if err != nil {
		t.Fatal(err)
	}
	workloads := []struct {
		name string
		tr   system.Trial
	}{
		{"case-study", system.Trial{VMs: 4, Tasks: caseTS, Horizon: caseTS.Hyperperiod() * 2, Seed: 101}},
		{"telemetry", system.Trial{VMs: 4, Tasks: telTS, Horizon: telTS.Hyperperiod(), Seed: 3}},
	}
	builders := Builders()
	for _, name := range SystemNames() {
		build := builders[name]
		for _, w := range workloads {
			t.Run(fmt.Sprintf("%s/%s", name, w.name), func(t *testing.T) {
				dense, sharded := runBoth(t, build, w.tr)
				requireEqual(t, dense, sharded)
			})
		}
	}
}

// TestDecoupledEquivalenceRandomized fuzzes the contract: random VM
// counts, utilizations and seeds over the case-study generator, every
// system, dense vs decoupled.
func TestDecoupledEquivalenceRandomized(t *testing.T) {
	rng := rand.New(rand.NewSource(20240805))
	builders := Builders()
	const trials = 4
	for i := 0; i < trials; i++ {
		vms := 1 + rng.Intn(8)
		util := 0.40 + 0.60*rng.Float64()
		seed := rng.Int63()
		ts, err := workload.Generate(workload.Config{
			VMs: vms, TargetUtil: util, Seed: seed,
			SyntheticJitter: slot.Time(rng.Intn(200)),
		})
		if err != nil {
			t.Fatal(err)
		}
		tr := system.Trial{VMs: vms, Tasks: ts, Horizon: ts.Hyperperiod() * 2, Seed: seed}
		for _, name := range SystemNames() {
			build := builders[name]
			t.Run(fmt.Sprintf("t%d/%s", i, name), func(t *testing.T) {
				dense, ff := runBoth(t, build, tr)
				requireEqual(t, dense, ff)
			})
		}
	}
}
