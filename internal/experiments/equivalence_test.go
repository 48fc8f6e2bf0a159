package experiments

import (
	"cmp"
	"fmt"
	"reflect"
	"slices"
	"testing"

	"ioguard/internal/core"
	"ioguard/internal/hypervisor"
	"ioguard/internal/metrics"
	"ioguard/internal/slot"
	"ioguard/internal/system"
	"ioguard/internal/system/systemtest"
	"ioguard/internal/task"
	"ioguard/internal/workload"
)

// runBoth executes the identical trial twice — dense slot stepping
// through systemtest.Dense and idle-slot fast-forward — and returns
// both results.
func runBoth(t *testing.T, build system.Builder, tr system.Trial) (dense, ff *metrics.TrialResult) {
	t.Helper()
	dense, err := system.Run(systemtest.Dense(build), tr)
	if err != nil {
		t.Fatalf("dense run: %v", err)
	}
	ff, err = system.Run(build, tr)
	if err != nil {
		t.Fatalf("fast-forward run: %v", err)
	}
	return dense, ff
}

// denseBuilders is Builders with every builder wrapped in
// systemtest.Dense.
func denseBuilders() map[string]system.Builder {
	out := Builders()
	for name, build := range out {
		out[name] = systemtest.Dense(build)
	}
	return out
}

func requireEqual(t *testing.T, dense, ff *metrics.TrialResult) {
	t.Helper()
	if !reflect.DeepEqual(dense, ff) {
		t.Errorf("dense and fast-forward results diverge:\ndense: %+v\nff:    %+v", dense, ff)
	}
}

// TestDenseFastForwardEquivalence is the determinism contract's
// enforcement point: for every case-study system, across randomized
// seeded workloads, dense stepping and fast-forward must produce
// identical TrialResults — the same completions, misses, drops and
// bytes, and the same response/tardiness samples in the same order.
func TestDenseFastForwardEquivalence(t *testing.T) {
	utils := []float64{0.40, 1.00}
	seeds := []int64{1, 7919, 424243}
	builders := Builders()
	for _, name := range SystemNames() {
		build := builders[name]
		for _, util := range utils {
			for _, seed := range seeds {
				t.Run(fmt.Sprintf("%s/u%.2f/s%d", name, util, seed), func(t *testing.T) {
					ts, err := workload.Generate(workload.Config{VMs: 4, TargetUtil: util, Seed: seed})
					if err != nil {
						t.Fatal(err)
					}
					tr := system.Trial{VMs: 4, Tasks: ts, Horizon: ts.Hyperperiod() * 2, Seed: seed}
					dense, ff := runBoth(t, build, tr)
					requireEqual(t, dense, ff)
				})
			}
		}
	}
}

// pendingState is one job still inside a system at the horizon.
type pendingState struct {
	task, seq         int
	release           slot.Time
	remaining, finish slot.Time
}

// runPending runs tr on build and returns the state of every job the
// system still holds at the horizon, sorted (the mesh baselines visit
// their in-flight jobs in map order).
func runPending(t *testing.T, build system.Builder, tr system.Trial) []pendingState {
	t.Helper()
	var sys system.System
	capture := func(tr system.Trial, col *system.Collector) (system.System, error) {
		s, err := build(tr, col)
		sys = s
		return s, err
	}
	if _, err := system.Run(capture, tr); err != nil {
		t.Fatal(err)
	}
	var out []pendingState
	sys.Pending(func(j *task.Job) {
		out = append(out, pendingState{j.Task.ID, j.Seq, j.Release, j.Remaining, j.Finish})
	})
	slices.SortFunc(out, func(a, b pendingState) int {
		return cmp.Or(cmp.Compare(a.task, b.task), cmp.Compare(a.seq, b.seq), cmp.Compare(a.release, b.release),
			cmp.Compare(a.remaining, b.remaining), cmp.Compare(a.finish, b.finish))
	})
	return out
}

// TestDenseFastForwardPendingState: a skipped slot changes nothing, so
// the jobs every system still holds at the horizon — queued, in
// service or part-executed — carry the same Remaining and Finish
// whether the run loop stepped every slot or jumped between events.
// The horizon falls mid-hyper-period so that work is left in flight.
func TestDenseFastForwardPendingState(t *testing.T) {
	ts, err := workload.Generate(workload.Config{VMs: 4, TargetUtil: 1.0, Seed: 1})
	if err != nil {
		t.Fatal(err)
	}
	tr := system.Trial{VMs: 4, Tasks: ts, Horizon: ts.Hyperperiod() + 777, Seed: 1}
	builders := Builders()
	for _, name := range AllSystemNames() {
		build := builders[name]
		t.Run(name, func(t *testing.T) {
			dense, ff := runPending(t, systemtest.Dense(build), tr), runPending(t, build, tr)
			if len(dense) == 0 {
				t.Fatal("no job pending at the horizon; the test is vacuous")
			}
			if !reflect.DeepEqual(dense, ff) {
				t.Errorf("pending jobs diverge:\ndense: %+v\nff:    %+v", dense, ff)
			}
		})
	}
}

// TestDenseFastForwardEquivalenceModes covers the scheduler modes the
// case study does not exercise: ServerEDF with synthesized servers
// (strict budget polling) and work-conserving slack reclaiming, both
// of which have their own NextWork logic.
func TestDenseFastForwardEquivalenceModes(t *testing.T) {
	light := task.Set{
		{ID: 0, VM: 0, Kind: task.Safety, Device: "spi", Period: 512, WCET: 8, Deadline: 512, OpBytes: 64, Jitter: 32},
		{ID: 1, VM: 1, Kind: task.Function, Device: "spi", Period: 1024, WCET: 16, Deadline: 1024, OpBytes: 64, Jitter: 64},
	}
	modes := []struct {
		name string
		cfg  core.Config
	}{
		{"server-edf", core.Config{VMs: 2, Mode: hypervisor.ServerEDF, AutoServers: true}},
		{"server-edf+reclaim", core.Config{VMs: 2, Mode: hypervisor.ServerEDF, AutoServers: true, WorkConserving: true}},
		{"direct-edf+reclaim", core.Config{VMs: 2, PreloadFrac: 0.5, Mode: hypervisor.DirectEDF, WorkConserving: true}},
	}
	for _, m := range modes {
		cfg := m.cfg
		build := func(tr system.Trial, col *system.Collector) (system.System, error) {
			return core.New(cfg, tr.Tasks, col)
		}
		for _, seed := range []int64{3, 17} {
			t.Run(fmt.Sprintf("%s/s%d", m.name, seed), func(t *testing.T) {
				tr := system.Trial{VMs: 2, Tasks: light, Horizon: 8192, Seed: seed}
				dense, ff := runBoth(t, build, tr)
				requireEqual(t, dense, ff)
			})
		}
	}
}

// TestDenseFastForwardEquivalenceSparse exercises deep skips: the
// stretched case-study workload leaves most slots idle, so nearly all
// of the horizon is jumped over rather than stepped — exactly the
// regime the fast-forward exists for.
func TestDenseFastForwardEquivalenceSparse(t *testing.T) {
	ts, err := workload.Generate(workload.Config{VMs: 4, TargetUtil: 0.4, Seed: 11})
	if err != nil {
		t.Fatal(err)
	}
	ts, err = workload.Stretch(ts, 8)
	if err != nil {
		t.Fatal(err)
	}
	tr := system.Trial{VMs: 4, Tasks: ts, Horizon: ts.Hyperperiod(), Seed: 11}
	for _, name := range []string{"I/O-GUARD-70", "BS|RT-XEN"} {
		build := Builders()[name]
		t.Run(name, func(t *testing.T) {
			dense, ff := runBoth(t, build, tr)
			requireEqual(t, dense, ff)
		})
	}
}
