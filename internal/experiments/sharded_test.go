package experiments

import (
	"fmt"
	"math/rand"
	"runtime"
	"testing"

	"ioguard/internal/faults"
	"ioguard/internal/system"
	"ioguard/internal/task"
	"ioguard/internal/workload"
)

// workerCounts are the trial-level fan-outs the deterministic-fold
// contract is pinned at: one worker, the smallest real split, and
// every core the host offers.
func workerCounts() []int {
	counts := []int{1, 2}
	if p := runtime.GOMAXPROCS(0); p > 2 {
		counts = append(counts, p)
	}
	return counts
}

// idleGapTasks releases rarely enough that the gaps between releases
// run far past the sharded executor's 4096-slot epoch span, so whole
// epochs stretch over idle time.
func idleGapTasks() task.Set {
	return task.Set{
		{ID: 0, VM: 0, Kind: task.Safety, Device: "can", Period: 50_000, WCET: 40, Deadline: 50_000, OpBytes: 64},
		{ID: 1, VM: 1, Kind: task.Function, Device: "spi", Period: 70_000, WCET: 60, Deadline: 70_000, OpBytes: 64, Jitter: 9_000},
		{ID: 2, VM: 1, Kind: task.Safety, Device: "can", Period: 90_000, WCET: 30, Deadline: 90_000, OpBytes: 32},
	}
}

// TestShardedEquivalence is the sharded executor's enforcement point:
// for every system, dense stepping and the epoch-drained shard clocks
// must produce byte-identical TrialResults — the same completions,
// misses, drops and bytes, and the same response/tardiness samples in
// the same order. The delay row's transport delays run past the epoch
// span, so delayed jobs wait in their mailboxes across epoch
// boundaries; the idle-gap row stretches epochs over idle time.
func TestShardedEquivalence(t *testing.T) {
	caseTS, err := workload.Generate(workload.Config{VMs: 4, TargetUtil: 0.7, Seed: 101})
	if err != nil {
		t.Fatal(err)
	}
	telTS, err := workload.GenerateTelemetry(workload.TelemetryConfig{VMs: 4, HotDevice: "can", HotUtil: 0.6, Seed: 9})
	if err != nil {
		t.Fatal(err)
	}
	gapTS := idleGapTasks()
	delay := faults.Plan{Seed: 3, DelayProb: 0.3, DelayMax: 10_000}
	workloads := []struct {
		name string
		tr   system.Trial
	}{
		{"case-study", system.Trial{VMs: 4, Tasks: caseTS, Horizon: caseTS.Hyperperiod() * 2, Seed: 101}},
		{"telemetry", system.Trial{VMs: 4, Tasks: telTS, Horizon: telTS.Hyperperiod(), Seed: 9}},
		{"delay-past-epoch", system.Trial{VMs: 4, Tasks: caseTS, Horizon: caseTS.Hyperperiod() * 2, Seed: 101, Faults: delay}},
		{"idle-gap", system.Trial{VMs: 2, Tasks: gapTS, Horizon: 600_000, Seed: 5}},
	}
	builders := Builders()
	for _, name := range SystemNames() {
		build := builders[name]
		for _, w := range workloads {
			t.Run(fmt.Sprintf("%s/%s", name, w.name), func(t *testing.T) {
				dense, sharded := runBoth(t, build, w.tr)
				requireEqual(t, dense, sharded)
				if dense.Completed == 0 {
					t.Fatal("trial completed nothing")
				}
				if w.tr.Faults.Enabled() && dense.Faults.Delayed == 0 {
					t.Fatal("delay plan delayed nothing")
				}
			})
		}
	}
}

// TestShardedEquivalenceStream repeats the contract in streaming
// metrics mode: the sketches are order-sensitive, so they only agree
// if the sharded executor delivers completions in exactly the dense
// order.
func TestShardedEquivalenceStream(t *testing.T) {
	ts, err := workload.GenerateTelemetry(workload.TelemetryConfig{VMs: 4, Sensors: 2, Seed: 5})
	if err != nil {
		t.Fatal(err)
	}
	tr := system.Trial{VMs: 4, Tasks: ts, Horizon: ts.Hyperperiod(), Seed: 5, Metrics: system.MetricsStream}
	builders := Builders()
	for _, name := range SystemNames() {
		build := builders[name]
		t.Run(name, func(t *testing.T) {
			dense, sharded := runBoth(t, build, tr)
			requireEqual(t, dense, sharded)
		})
	}
}

// TestShardedEquivalenceRandomized fuzzes the contract: random VM
// counts, utilizations and seeds over the case-study generator, every
// system, dense vs sharded.
func TestShardedEquivalenceRandomized(t *testing.T) {
	rng := rand.New(rand.NewSource(20260805))
	builders := Builders()
	const trials = 3
	for i := 0; i < trials; i++ {
		vms := 1 + rng.Intn(8)
		util := 0.40 + 0.60*rng.Float64()
		seed := rng.Int63()
		ts, err := workload.Generate(workload.Config{VMs: vms, TargetUtil: util, Seed: seed})
		if err != nil {
			t.Fatal(err)
		}
		tr := system.Trial{VMs: vms, Tasks: ts, Horizon: ts.Hyperperiod() * 2, Seed: seed}
		for _, name := range SystemNames() {
			build := builders[name]
			t.Run(fmt.Sprintf("t%d/%s", i, name), func(t *testing.T) {
				dense, sharded := runBoth(t, build, tr)
				requireEqual(t, dense, sharded)
			})
		}
	}
}
