package experiments

// Dense-vs-fast-forward equality of the drop counters: pool drops
// (full queue) and admission rejections. These tests drive the two
// regimes that actually increment those counters (a drop-heavy
// bounded-pool trial and an admission-enabled ServerEDF trial) and
// require dense and fast-forward execution to agree byte-for-byte,
// counters included: a skipped slot must never be one a job would have
// been dropped or refused in.

import (
	"testing"

	"ioguard/internal/core"
	"ioguard/internal/hypervisor"
	"ioguard/internal/metrics"
	"ioguard/internal/system"
	"ioguard/internal/system/systemtest"
	"ioguard/internal/task"
	"ioguard/internal/workload"
)

// TestDropHeavyCounterEquivalence overloads depth-1 I/O pools at full
// utilization so Pool.Admit's drop counter fires constantly, then pins
// dense/fast-forward equality.
func TestDropHeavyCounterEquivalence(t *testing.T) {
	ts, err := workload.Generate(workload.Config{VMs: 4, TargetUtil: 1.0, Seed: 5})
	if err != nil {
		t.Fatal(err)
	}
	build := func(tr system.Trial, col *system.Collector) (system.System, error) {
		return core.New(core.Config{
			VMs:          tr.VMs,
			PreloadFrac:  0.7,
			Mode:         hypervisor.DirectEDF,
			PoolCapacity: 1,
		}, tr.Tasks, col)
	}
	tr := system.Trial{VMs: 4, Tasks: ts, Horizon: ts.Hyperperiod(), Seed: 5}

	ff, err := system.Run(build, tr)
	if err != nil {
		t.Fatal(err)
	}
	if ff.Dropped == 0 {
		t.Fatal("depth-1 pools dropped nothing: the test lost its trigger")
	}

	dense, err := system.Run(systemtest.Dense(build), tr)
	if err != nil {
		t.Fatal(err)
	}
	requireEqual(t, ff, dense)
}

// admissionTasks spreads four run-time tasks across two devices and
// two VMs; only VM 0's tasks get registered, so every VM 1 job is
// refused at submit time and the admission counter fires.
func admissionTasks() task.Set {
	return task.Set{
		{ID: 0, VM: 0, Kind: task.Safety, Device: "spi", Period: 512, WCET: 8, Deadline: 512, OpBytes: 64, Jitter: 32},
		{ID: 1, VM: 1, Kind: task.Function, Device: "spi", Period: 1024, WCET: 16, Deadline: 1024, OpBytes: 64, Jitter: 64},
		{ID: 2, VM: 0, Kind: task.Safety, Device: "uart", Period: 512, WCET: 8, Deadline: 512, OpBytes: 32, Jitter: 32},
		{ID: 3, VM: 1, Kind: task.Function, Device: "uart", Period: 1024, WCET: 16, Deadline: 1024, OpBytes: 32, Jitter: 64},
	}
}

// runAdmission executes one admission-enabled ServerEDF trial, its
// builder passed through wrap, and returns its result plus the summed
// RejectedAtAdmission counter.
func runAdmission(t *testing.T, tr system.Trial, wrap func(system.Builder) system.Builder) (*metrics.TrialResult, int64) {
	t.Helper()
	var captured *core.System
	build := func(tr system.Trial, col *system.Collector) (system.System, error) {
		s, err := core.New(core.Config{VMs: tr.VMs, Mode: hypervisor.ServerEDF, AutoServers: true}, tr.Tasks, col)
		if err != nil {
			return nil, err
		}
		hv := s.Hypervisor()
		for _, dev := range hv.Devices() {
			m, err := hv.Manager(dev)
			if err != nil {
				return nil, err
			}
			if err := m.EnableAdmission(); err != nil {
				return nil, err
			}
			for _, spec := range tr.Tasks {
				if spec.VM == 0 && spec.Device == dev {
					if err := m.RegisterTask(spec); err != nil {
						return nil, err
					}
				}
			}
		}
		captured = s
		return s, nil
	}
	res, err := system.Run(wrap(build), tr)
	if err != nil {
		t.Fatalf("admission run: %v", err)
	}
	var rejected int64
	hv := captured.Hypervisor()
	for _, dev := range hv.Devices() {
		m, err := hv.Manager(dev)
		if err != nil {
			t.Fatal(err)
		}
		rejected += m.RejectedAtAdmission()
	}
	return res, rejected
}

// TestAdmissionCounterEquivalence pins the admission-rejection
// counter across dense and fast-forward execution: the same jobs must
// be refused, in the same quantity.
func TestAdmissionCounterEquivalence(t *testing.T) {
	base := system.Trial{VMs: 2, Tasks: admissionTasks(), Horizon: 8192, Seed: 3}

	ff, rejFF := runAdmission(t, base, func(b system.Builder) system.Builder { return b })
	if rejFF == 0 {
		t.Fatal("admission control rejected nothing: the test lost its trigger")
	}
	if ff.Dropped == 0 {
		t.Fatal("rejected jobs did not surface as drops in the trial result")
	}

	dense, rejDense := runAdmission(t, base, systemtest.Dense)
	requireEqual(t, ff, dense)
	if rejDense != rejFF {
		t.Fatalf("dense rejected %d, fast-forward %d", rejDense, rejFF)
	}
}
