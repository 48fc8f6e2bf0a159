package baseline

import (
	"testing"

	"ioguard/internal/slot"
	"ioguard/internal/system"
	"ioguard/internal/task"
	"ioguard/internal/workload"
)

// meshBuilders returns the two baselines that carry I/O over the mesh.
func meshBuilders() map[string]system.Builder {
	return map[string]system.Builder{
		"legacy": func(tr system.Trial, col *system.Collector) (system.System, error) {
			return NewLegacy(tr.VMs, tr.Tasks, col)
		},
		"rtxen": func(tr system.Trial, col *system.Collector) (system.System, error) {
			return NewRTXen(tr.VMs, tr.Tasks, col, 0)
		},
	}
}

// TestMeshTransportWideTaskIDs: the transport must keep apart the jobs
// of tasks whose IDs agree in their low 16 bits. Tasks 1 and 65537
// share a device and release jobs with the same sequence numbers;
// every one of the 20 released jobs completes and none is dropped.
func TestMeshTransportWideTaskIDs(t *testing.T) {
	ts := task.Set{
		{ID: 1, VM: 0, Kind: task.Safety, Device: "ethernet", Period: 1000, WCET: 5, Deadline: 1000, OpBytes: 64},
		{ID: 65537, VM: 1, Kind: task.Safety, Device: "ethernet", Period: 1000, WCET: 5, Deadline: 1000, OpBytes: 64},
	}
	for name, build := range meshBuilders() {
		res, err := system.Run(build, system.Trial{VMs: 2, Tasks: ts, Horizon: 10000, Seed: 1})
		if err != nil {
			t.Fatalf("%s: %v", name, err)
		}
		if res.Released != 20 || res.Completed != 20 || res.Dropped != 0 {
			t.Errorf("%s: released %d, completed %d, dropped %d; want 20, 20, 0",
				name, res.Released, res.Completed, res.Dropped)
		}
	}
}

// TestMeshRoundTripAllocs carries TestMeshHopAllocs (noc) up to the
// transport: once the queues on its path have grown, a Legacy or
// RT-Xen request/response round trip (request path, hops both ways,
// station service) allocates nothing beyond the job itself.
func TestMeshRoundTripAllocs(t *testing.T) {
	ts := task.Set{{ID: 0, VM: 0, Kind: task.Safety, Device: "ethernet", Period: 100000, WCET: 5, Deadline: 100000, OpBytes: 64}}
	for name, build := range meshBuilders() {
		sys, err := build(system.Trial{VMs: 1, Tasks: ts}, nil)
		if err != nil {
			t.Fatalf("%s: %v", name, err)
		}
		sh := sys.(system.Shard)
		var now slot.Time
		var j *task.Job
		allocs := testing.AllocsPerRun(20, func() {
			j = task.NewJob(&ts[0], 0, now)
			sh.Submit(now, j)
			for next := sh.NextWork(now); next != slot.Never; next = sh.NextWork(now) {
				now = next
				sh.Step(now)
				now++
			}
		})
		if j.Remaining != 0 {
			t.Fatalf("%s: round trip ended with %d slots of service left", name, j.Remaining)
		}
		sys.Pending(func(j *task.Job) { t.Errorf("%s: job %v still pending", name, j) })
		if allocs > 1 {
			t.Errorf("%s: a round trip allocated %.1f times, want 1 (the job)", name, allocs)
		}
	}
}

// TestPendingAccountsForEveryJob: at the horizon each released job is
// completed, pending or dropped, so Released == Completed + Unfinished
// + Dropped, and Pending visits no job twice. The seeded clean trials
// span 2–4 VMs and utilizations 0.5–1.0, with horizons that cut jobs
// off on the request path, in the mesh and at the stations.
func TestPendingAccountsForEveryJob(t *testing.T) {
	builders := meshBuilders()
	builders["bluevisor"] = func(tr system.Trial, col *system.Collector) (system.System, error) {
		return NewBlueVisor(tr.VMs, tr.Tasks, col)
	}
	builders["partition"] = func(tr system.Trial, col *system.Collector) (system.System, error) {
		return NewPartition(tr.VMs, tr.Tasks, col)
	}
	for name, build := range builders {
		unfinished := int64(0)
		for i := 0; i < 6; i++ {
			vms, util, seed := 2+i%3, 0.5+0.1*float64(i), int64(60+i)
			ts, err := workload.Generate(workload.Config{VMs: vms, TargetUtil: util, Seed: seed})
			if err != nil {
				t.Fatal(err)
			}
			var sys system.System
			capture := func(tr system.Trial, col *system.Collector) (system.System, error) {
				s, err := build(tr, col)
				sys = s
				return s, err
			}
			tr := system.Trial{VMs: vms, Tasks: ts, Horizon: ts.Hyperperiod() + 997*slot.Time(i+1), Seed: seed}
			res, err := system.Run(capture, tr)
			if err != nil {
				t.Fatalf("%s: %v", name, err)
			}
			if res.Released != res.Completed+res.Unfinished+res.Dropped {
				t.Errorf("%s cell %d: released %d ≠ completed %d + unfinished %d + dropped %d",
					name, i, res.Released, res.Completed, res.Unfinished, res.Dropped)
			}
			seen := map[*task.Job]bool{}
			sys.Pending(func(j *task.Job) {
				if seen[j] {
					t.Errorf("%s cell %d: job %v visited twice", name, i, j)
				}
				seen[j] = true
			})
			unfinished += res.Unfinished
		}
		if unfinished == 0 {
			t.Errorf("%s: no trial ended with a job in flight", name)
		}
	}
}
