package experiments

import (
	"fmt"
	"reflect"
	"testing"

	"ioguard/internal/faults"
	"ioguard/internal/metrics"
	"ioguard/internal/system"
	"ioguard/internal/task"
	"ioguard/internal/workload"
)

// stormPlan exercises every fault point at once.
func stormPlan(seed int64) faults.Plan {
	return faults.Plan{
		Seed:          seed,
		ReleaseJitter: 120,
		DropProb:      0.02,
		DupProb:       0.02,
		DelayProb:     0.05,
		DelayMax:      48,
	}
}

// TestFaultedEquivalence extends the dense/fast-forward equivalence
// contract to faulted trials: the fault realization is a pure per-job
// hash, so for every system and fault plan dense and fast-forward runs
// must produce identical TrialResults — including
// the fault summary and the timing-accuracy distribution.
func TestFaultedEquivalence(t *testing.T) {
	ts, err := workload.Generate(workload.Config{VMs: 4, TargetUtil: 0.7, Seed: 31})
	if err != nil {
		t.Fatal(err)
	}
	plans := []struct {
		name string
		plan faults.Plan
	}{
		{"storm", stormPlan(77)},
		{"drop-only", faults.Plan{Seed: 77, DropProb: 0.05}},
	}
	builders := Builders()
	for _, name := range SystemNames() {
		build := builders[name]
		for _, p := range plans {
			t.Run(fmt.Sprintf("%s/%s", name, p.name), func(t *testing.T) {
				tr := system.Trial{VMs: 4, Tasks: ts, Horizon: ts.Hyperperiod() * 2, Seed: 31, Faults: p.plan}
				dense, ff := runBoth(t, build, tr)
				requireEqual(t, dense, ff)
				if dense.Faults == nil {
					t.Fatal("faulted trial carried no fault summary")
				}
				if dense.Accuracy == nil {
					t.Fatal("faulted trial tracked no timing accuracy")
				}
			})
		}
	}
}

// TestFaultSeedReplayAndDivergence pins the -fault-seed contract: the
// same (seed, fault seed) replays the trial exactly; a different fault
// seed realizes different faults on the same workload.
func TestFaultSeedReplayAndDivergence(t *testing.T) {
	ts, err := workload.Generate(workload.Config{VMs: 4, TargetUtil: 0.8, Seed: 12})
	if err != nil {
		t.Fatal(err)
	}
	build := Builders()["I/O-GUARD-70"]
	tr := system.Trial{VMs: 4, Tasks: ts, Horizon: ts.Hyperperiod() * 2, Seed: 12, Faults: stormPlan(1)}
	a, err := system.Run(build, tr)
	if err != nil {
		t.Fatal(err)
	}
	b, err := system.Run(build, tr)
	if err != nil {
		t.Fatal(err)
	}
	if !reflect.DeepEqual(a, b) {
		t.Fatal("identical fault seed did not replay the trial")
	}
	tr.Faults.Seed = 2
	c, err := system.Run(build, tr)
	if err != nil {
		t.Fatal(err)
	}
	if reflect.DeepEqual(a.Faults, c.Faults) && reflect.DeepEqual(a.Response, c.Response) {
		t.Fatal("different fault seeds realized identical faults")
	}
}

// TestCleanPlanLeavesResultsUntouched is the zero-fault guard: a zero
// plan must not move a byte of the trial result relative to a build
// that never heard of faults, and the accuracy opt-in must add only
// the accuracy recorder.
func TestCleanPlanLeavesResultsUntouched(t *testing.T) {
	ts, err := workload.Generate(workload.Config{VMs: 4, TargetUtil: 0.7, Seed: 3})
	if err != nil {
		t.Fatal(err)
	}
	build := Builders()["BS|BV"]
	base := system.Trial{VMs: 4, Tasks: ts, Horizon: ts.Hyperperiod() * 2, Seed: 3}
	plain, err := system.Run(build, base)
	if err != nil {
		t.Fatal(err)
	}
	zero := base
	zero.Faults = faults.Plan{Seed: 99} // a seed alone enables nothing
	withZero, err := system.Run(build, zero)
	if err != nil {
		t.Fatal(err)
	}
	requireEqual(t, plain, withZero)

	acc := base
	acc.Accuracy = true
	withAcc, err := system.Run(build, acc)
	if err != nil {
		t.Fatal(err)
	}
	if withAcc.Accuracy == nil {
		t.Fatal("accuracy opt-in tracked nothing")
	}
	if withAcc.Faults != nil {
		t.Fatal("clean accuracy run grew a fault summary")
	}
	withAcc.Accuracy = nil
	requireEqual(t, plain, withAcc)
}

// TestFaultPlanValidationSurfacesInRun pins that Run rejects a bad
// plan before building the system.
func TestFaultPlanValidationSurfacesInRun(t *testing.T) {
	ts, err := workload.Generate(workload.Config{VMs: 2, TargetUtil: 0.5, Seed: 1})
	if err != nil {
		t.Fatal(err)
	}
	tr := system.Trial{VMs: 2, Tasks: ts, Horizon: 100, Seed: 1,
		Faults: faults.Plan{DropProb: 2}}
	if _, err := system.Run(Builders()["BS|Legacy"], tr); err == nil {
		t.Fatal("invalid fault plan accepted")
	}
}

// TestDelayedPastHorizonIsScored: a request the fault layer still
// holds in transport when the trial ends is unfinished work like any
// other — censored, or a (fault-conditioned) miss once its deadline
// has passed — never silently absent from the score. With every
// request delayed by up to 5000 slots, some trials end with both jobs
// of the one safety task still in transit.
func TestDelayedPastHorizonIsScored(t *testing.T) {
	ts := task.Set{{ID: 0, Name: "brake", Kind: task.Safety, Period: 1000, WCET: 2, Deadline: 50, Device: "can0", OpBytes: 8}}
	plan := faults.Plan{Seed: 3, DelayProb: 1, DelayMax: 5000}
	build := Builders()["BS|BV"]
	stranded := 0
	for seed := int64(1); seed <= 8; seed++ {
		tr := system.Trial{VMs: 1, Tasks: ts, Horizon: 2000, Seed: seed, Faults: plan}
		dense, ff := runBoth(t, build, tr)
		requireEqual(t, dense, ff)
		for _, res := range []*metrics.TrialResult{dense, ff} {
			if res.Completed+res.Unfinished != res.Released {
				t.Fatalf("seed %d: released %d = completed %d + unfinished %d does not hold", seed, res.Released, res.Completed, res.Unfinished)
			}
			if res.Faults.FaultedMisses != res.CriticalMisses {
				t.Errorf("seed %d: %d faulted misses, %d critical misses (every request was delayed)", seed, res.Faults.FaultedMisses, res.CriticalMisses)
			}
		}
		if dense.Completed == 0 {
			stranded++
			if dense.Success() {
				t.Errorf("seed %d: no job completed, yet the trial succeeded", seed)
			}
		}
	}
	if stranded == 0 {
		t.Fatal("no seed left every request in transit; the scenario tests nothing")
	}
}
