package experiments

import (
	"testing"

	"ioguard/internal/system"
	"ioguard/internal/workload"
)

// TestPartitionEquivalence extends the dense/sharded byte-identity
// contract to the BS|PART baseline, clean and under the fault storm:
// windows gate service on absolute slots, so the shard clocks must
// land on exactly the dense schedule.
func TestPartitionEquivalence(t *testing.T) {
	build := Builders()["BS|PART"]
	for _, util := range []float64{0.5, 0.9} {
		ts, err := workload.Generate(workload.Config{VMs: 4, TargetUtil: util, Seed: 17})
		if err != nil {
			t.Fatal(err)
		}
		base := system.Trial{VMs: 4, Tasks: ts, Horizon: ts.Hyperperiod() * 2, Seed: 17}
		faulted := base
		faulted.Faults = stormPlan(5)
		for _, tr := range []system.Trial{base, faulted} {
			dense, ff := runBoth(t, build, tr)
			requireEqual(t, dense, ff)
			if dense.Completed == 0 {
				t.Fatal("partition baseline completed nothing")
			}
		}
	}
}
