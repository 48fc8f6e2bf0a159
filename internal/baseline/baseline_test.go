package baseline

import (
	"testing"

	"ioguard/internal/rtos"
	"ioguard/internal/slot"
	"ioguard/internal/system"
	"ioguard/internal/task"
)

func lightWorkload() task.Set {
	return task.Set{
		{ID: 0, VM: 0, Kind: task.Safety, Device: "ethernet", Period: 256, WCET: 8, Deadline: 256, OpBytes: 256},
		{ID: 1, VM: 1, Kind: task.Function, Device: "flexray", Period: 512, WCET: 16, Deadline: 512, OpBytes: 128},
	}
}

func TestStationGlobalFIFOOrder(t *testing.T) {
	var done []*task.Job
	st, err := newStation("dev", false, 0, 0, func(j *task.Job, at slot.Time) {
		done = append(done, j)
	})
	if err != nil {
		t.Fatal(err)
	}
	tk := &task.Sporadic{ID: 0, VM: 0, Period: 100, WCET: 2, Deadline: 100}
	j1 := task.NewJob(tk, 0, 0)
	j2 := task.NewJob(tk, 1, 0)
	st.enqueue(j1)
	st.enqueue(j2)
	if st.backlog() != 2 {
		t.Errorf("backlog = %d", st.backlog())
	}
	for now := slot.Time(0); now < 4; now++ {
		st.step(now)
	}
	if len(done) != 2 || done[0] != j1 || done[1] != j2 {
		t.Errorf("FIFO order violated: %v", done)
	}
	if st.served != 2 {
		t.Errorf("served = %d", st.served)
	}
}

func TestStationNonPreemptive(t *testing.T) {
	// A long op in service is never preempted by a later short one.
	var doneOrder []int
	st, _ := newStation("dev", false, 0, 0, func(j *task.Job, at slot.Time) {
		doneOrder = append(doneOrder, j.Task.ID)
	})
	long := &task.Sporadic{ID: 0, VM: 0, Period: 1000, WCET: 10, Deadline: 1000}
	short := &task.Sporadic{ID: 1, VM: 0, Period: 1000, WCET: 1, Deadline: 5}
	st.enqueue(task.NewJob(long, 0, 0))
	st.step(0) // long starts
	st.enqueue(task.NewJob(short, 0, 1))
	for now := slot.Time(1); now < 20; now++ {
		st.step(now)
	}
	if len(doneOrder) != 2 || doneOrder[0] != 0 {
		t.Errorf("long op should finish first (non-preemptive): %v", doneOrder)
	}
}

func TestStationRoundRobinFairness(t *testing.T) {
	var done []int // VM ids in completion order
	st, err := newStation("dev", true, 3, 0, func(j *task.Job, at slot.Time) {
		done = append(done, j.Task.VM)
	})
	if err != nil {
		t.Fatal(err)
	}
	for vm := 0; vm < 3; vm++ {
		tk := &task.Sporadic{ID: vm, VM: vm, Period: 100, WCET: 1, Deadline: 100}
		st.enqueue(task.NewJob(tk, 0, 0))
		st.enqueue(task.NewJob(tk, 1, 0))
	}
	for now := slot.Time(0); now < 6; now++ {
		st.step(now)
	}
	want := []int{0, 1, 2, 0, 1, 2}
	for i := range want {
		if done[i] != want[i] {
			t.Fatalf("round-robin order %v, want %v", done, want)
		}
	}
}

func TestStationValidation(t *testing.T) {
	if _, err := newStation("d", true, 0, 0, nil); err == nil {
		t.Error("round-robin without VMs accepted")
	}
	st, _ := newStation("d", true, 1, 0, func(*task.Job, slot.Time) {})
	tk := &task.Sporadic{ID: 0, VM: 5, Period: 10, WCET: 1, Deadline: 10}
	if st.enqueue(task.NewJob(tk, 0, 0)) {
		t.Error("out-of-range VM accepted")
	}
}

func TestStationPendingJobs(t *testing.T) {
	st, _ := newStation("d", false, 0, 0, func(*task.Job, slot.Time) {})
	tk := &task.Sporadic{ID: 0, VM: 0, Period: 100, WCET: 5, Deadline: 100}
	st.enqueue(task.NewJob(tk, 0, 0))
	st.enqueue(task.NewJob(tk, 1, 0))
	st.step(0) // first moves into service
	n := 0
	st.pendingJobs(func(*task.Job) { n++ })
	if n != 2 {
		t.Errorf("pending = %d, want 2 (1 in service + 1 queued)", n)
	}
}

func runTrial(t *testing.T, build system.Builder, ts task.Set, horizon slot.Time) *metricsResult {
	t.Helper()
	res, err := system.Run(build, system.Trial{VMs: 2, Tasks: ts, Horizon: horizon, Seed: 11})
	if err != nil {
		t.Fatal(err)
	}
	return &metricsResult{res.Completed, res.CriticalMisses, res.Response.Mean()}
}

type metricsResult struct {
	completed int64
	misses    int64
	respMean  float64
}

func TestLegacyEndToEnd(t *testing.T) {
	build := func(tr system.Trial, col *system.Collector) (system.System, error) {
		return NewLegacy(tr.VMs, tr.Tasks, col)
	}
	got := runTrial(t, build, lightWorkload(), 8192)
	if got.completed < 30 {
		t.Fatalf("legacy completed only %d jobs", got.completed)
	}
	if got.misses != 0 {
		t.Errorf("light load should not miss: %d", got.misses)
	}
	// Response time must include the NoC traversal: well above WCET.
	if got.respMean < 10 {
		t.Errorf("legacy response mean %.1f suspiciously low", got.respMean)
	}
}

func TestLegacyProperties(t *testing.T) {
	l, err := NewLegacy(2, lightWorkload(), nil)
	if err != nil {
		t.Fatal(err)
	}
	if l.Name() != "BS|Legacy" || l.Arch() != rtos.Legacy {
		t.Error("identity wrong")
	}
	if len(l.Residual()) != 2 {
		t.Error("legacy must drive all tasks externally")
	}
	if l.Dropped() != 0 {
		t.Error("fresh system should have no drops")
	}
	if _, err := NewLegacy(2, task.Set{{ID: 0, Period: -1, WCET: 1, Deadline: 1}}, nil); err == nil {
		t.Error("invalid workload accepted")
	}
}

func TestRTXenEndToEnd(t *testing.T) {
	build := func(tr system.Trial, col *system.Collector) (system.System, error) {
		return NewRTXen(tr.VMs, tr.Tasks, col, 0)
	}
	got := runTrial(t, build, lightWorkload(), 8192)
	if got.completed < 30 {
		t.Fatalf("rt-xen completed only %d jobs", got.completed)
	}
}

func TestRTXenSlowerThanLegacy(t *testing.T) {
	buildL := func(tr system.Trial, col *system.Collector) (system.System, error) {
		return NewLegacy(tr.VMs, tr.Tasks, col)
	}
	buildX := func(tr system.Trial, col *system.Collector) (system.System, error) {
		return NewRTXen(tr.VMs, tr.Tasks, col, 0)
	}
	leg := runTrial(t, buildL, lightWorkload(), 8192)
	xen := runTrial(t, buildX, lightWorkload(), 8192)
	if xen.respMean <= leg.respMean {
		t.Errorf("rt-xen mean response %.1f should exceed legacy %.1f (trap + VMM + VCPU windows)",
			xen.respMean, leg.respMean)
	}
}

func TestRTXenVCPUWindow(t *testing.T) {
	x, err := NewRTXen(4, lightWorkload(), nil, 50)
	if err != nil {
		t.Fatal(err)
	}
	// At slot 0 VM0's window is open.
	if got := x.nextWindow(0, 0); got != 0 {
		t.Errorf("nextWindow(0,0) = %d", got)
	}
	// VM2's first window starts at quantum*2.
	if got := x.nextWindow(2, 0); got != 100 {
		t.Errorf("nextWindow(2,0) = %d, want 100", got)
	}
	// Wrap-around: VM0 after its window passed.
	if got := x.nextWindow(0, 60); got != 200 {
		t.Errorf("nextWindow(0,60) = %d, want 200", got)
	}
	// Single VM: always open.
	x1, _ := NewRTXen(1, lightWorkload().Filter(func(tk task.Sporadic) bool { return tk.VM == 0 }), nil, 50)
	if got := x1.nextWindow(0, 123); got != 123 {
		t.Errorf("single-VM window = %d", got)
	}
}

func TestRTXenValidation(t *testing.T) {
	if _, err := NewRTXen(0, lightWorkload(), nil, 0); err == nil {
		t.Error("zero VMs accepted")
	}
	if _, err := NewRTXen(2, task.Set{{ID: 0, Period: -1, WCET: 1, Deadline: 1}}, nil, 0); err == nil {
		t.Error("invalid workload accepted")
	}
	x, _ := NewRTXen(2, lightWorkload(), nil, 0)
	if x.Name() != "BS|RT-XEN" || x.Arch() != rtos.RTXen {
		t.Error("identity wrong")
	}
}

func TestBlueVisorEndToEnd(t *testing.T) {
	build := func(tr system.Trial, col *system.Collector) (system.System, error) {
		return NewBlueVisor(tr.VMs, tr.Tasks, col)
	}
	got := runTrial(t, build, lightWorkload(), 8192)
	if got.completed < 30 {
		t.Fatalf("bluevisor completed only %d jobs", got.completed)
	}
	if got.misses != 0 {
		t.Errorf("light load should not miss: %d", got.misses)
	}
}

func TestBlueVisorFasterThanLegacy(t *testing.T) {
	buildL := func(tr system.Trial, col *system.Collector) (system.System, error) {
		return NewLegacy(tr.VMs, tr.Tasks, col)
	}
	buildB := func(tr system.Trial, col *system.Collector) (system.System, error) {
		return NewBlueVisor(tr.VMs, tr.Tasks, col)
	}
	leg := runTrial(t, buildL, lightWorkload(), 8192)
	bv := runTrial(t, buildB, lightWorkload(), 8192)
	if bv.respMean >= leg.respMean {
		t.Errorf("bluevisor bypasses the NoC: response %.1f should beat legacy %.1f",
			bv.respMean, leg.respMean)
	}
}

func TestBlueVisorValidation(t *testing.T) {
	if _, err := NewBlueVisor(0, lightWorkload(), nil); err == nil {
		t.Error("zero VMs accepted")
	}
	if _, err := NewBlueVisor(2, task.Set{{ID: 0, Period: -1, WCET: 1, Deadline: 1}}, nil); err == nil {
		t.Error("invalid workload accepted")
	}
	b, _ := NewBlueVisor(2, lightWorkload(), nil)
	if b.Name() != "BS|BV" || b.Arch() != rtos.BlueVisor {
		t.Error("identity wrong")
	}
	// A one-VM BlueVisor has no pool for VM 1: a job of VM 1
	// submitted by hand is dropped at the controller.
	ts := lightWorkload()
	b1, _ := NewBlueVisor(1, ts, nil)
	b1.Submit(0, task.NewJob(&ts[1], 0, 0))
	for now := slot.Time(0); now < 100; now++ {
		b1.Step(now)
	}
	if b1.Dropped() != 1 {
		t.Errorf("1-VM BlueVisor dropped %d jobs of VM 1, want 1", b1.Dropped())
	}
}

func TestBaselinesPendingTracksInFlight(t *testing.T) {
	builders := map[string]system.Builder{
		"legacy": func(tr system.Trial, col *system.Collector) (system.System, error) {
			return NewLegacy(tr.VMs, tr.Tasks, col)
		},
		"rtxen": func(tr system.Trial, col *system.Collector) (system.System, error) {
			return NewRTXen(tr.VMs, tr.Tasks, col, 0)
		},
		"bluevisor": func(tr system.Trial, col *system.Collector) (system.System, error) {
			return NewBlueVisor(tr.VMs, tr.Tasks, col)
		},
	}
	heavy := task.Set{{ID: 0, VM: 0, Kind: task.Safety, Device: "spi", Period: 10000, WCET: 5000, Deadline: 10000}}
	for name, build := range builders {
		col := &system.Collector{}
		sys, err := build(system.Trial{VMs: 2, Tasks: heavy}, col)
		if err != nil {
			t.Fatalf("%s: %v", name, err)
		}
		sys.Submit(0, task.NewJob(&heavy[0], 0, 0))
		for now := slot.Time(0); now < 100; now++ {
			sys.Step(now)
		}
		n := 0
		sys.Pending(func(*task.Job) { n++ })
		if n != 1 {
			t.Errorf("%s: pending = %d, want 1 (job still in service)", name, n)
		}
	}
}

// TestFIFOPriorityInversion demonstrates the paper's hardware-level
// dilemma: a conventional FIFO controller lets a long low-urgency
// operation block a short tight-deadline one past its deadline. The
// same scenario on the preemptive I/O-GUARD hypervisor (exercised in
// internal/hypervisor's TestDirectEDFOrdering) meets the deadline.
func TestFIFOPriorityInversion(t *testing.T) {
	var observed []slot.Time
	st, _ := newStation("dev", false, 0, 0, func(j *task.Job, at slot.Time) {
		observed = append(observed, at)
	})
	long := &task.Sporadic{ID: 0, VM: 0, Period: 1000, WCET: 50, Deadline: 1000}
	tight := &task.Sporadic{ID: 1, VM: 1, Period: 1000, WCET: 2, Deadline: 10}
	st.enqueue(task.NewJob(long, 0, 0))
	jTight := task.NewJob(tight, 0, 0)
	st.enqueue(jTight)
	for now := slot.Time(0); now < 60; now++ {
		st.step(now)
	}
	if len(observed) != 2 {
		t.Fatalf("completions = %d", len(observed))
	}
	if observed[1] <= jTight.Deadline {
		t.Errorf("FIFO should have blocked the tight job past its deadline (done %d, deadline %d)",
			observed[1], jTight.Deadline)
	}
}
