package system

import (
	"errors"
	"testing"

	"ioguard/internal/rtos"
	"ioguard/internal/slot"
	"ioguard/internal/task"
)

// fakeSystem completes every job a fixed delay after submission.
type fakeSystem struct {
	tasks   task.Set
	col     *Collector
	delay   slot.Time
	queue   []*task.Job
	at      []slot.Time
	dropped int64
}

func (f *fakeSystem) Name() string       { return "fake" }
func (f *fakeSystem) Arch() rtos.Arch    { return rtos.Legacy }
func (f *fakeSystem) Residual() task.Set { return f.tasks }
func (f *fakeSystem) Dropped() int64     { return f.dropped }
func (f *fakeSystem) Submit(now slot.Time, j *task.Job) {
	f.queue = append(f.queue, j)
	f.at = append(f.at, now+f.delay)
}
func (f *fakeSystem) Step(now slot.Time) {
	var keepJ []*task.Job
	var keepT []slot.Time
	for i, j := range f.queue {
		if f.at[i] <= now {
			for !j.Done() {
				j.Tick(now)
			}
			f.col.Complete(j, f.at[i])
		} else {
			keepJ = append(keepJ, j)
			keepT = append(keepT, f.at[i])
		}
	}
	f.queue, f.at = keepJ, keepT
}
func (f *fakeSystem) Pending(visit func(*task.Job)) {
	for _, j := range f.queue {
		visit(j)
	}
}

func workload() task.Set {
	return task.Set{
		{ID: 0, VM: 0, Kind: task.Safety, Period: 20, WCET: 1, Deadline: 10, OpBytes: 100},
		{ID: 1, VM: 1, Kind: task.Synthetic, Period: 30, WCET: 1, Deadline: 15, OpBytes: 50},
	}
}

func builder(delay slot.Time) Builder {
	return func(tr Trial, col *Collector) (System, error) {
		return &fakeSystem{tasks: tr.Tasks, col: col, delay: delay}, nil
	}
}

func TestCollectorRecords(t *testing.T) {
	c := &Collector{}
	tk := &task.Sporadic{ID: 0, Period: 10, WCET: 1, Deadline: 10}
	j := task.NewJob(tk, 0, 0)
	seen := 0
	c.Observe(func(jj *task.Job, at slot.Time) {
		seen++
		if jj != j || at != 5 {
			t.Error("observed completion wrong")
		}
	})
	c.Complete(j, 5)
	if c.Completed() != 1 {
		t.Fatal("Completed != 1")
	}
	if seen != 1 {
		t.Error("observer saw wrong count")
	}
}

func TestResultScoring(t *testing.T) {
	c := &Collector{}
	safety := &task.Sporadic{ID: 0, Kind: task.Safety, Period: 20, WCET: 1, Deadline: 10, OpBytes: 7}
	synth := &task.Sporadic{ID: 1, Kind: task.Synthetic, Period: 20, WCET: 1, Deadline: 10}
	onTime := task.NewJob(safety, 0, 0) // deadline 10
	late := task.NewJob(safety, 1, 20)  // deadline 30
	lateSyn := task.NewJob(synth, 0, 0) // deadline 10
	c.Complete(onTime, 8)
	c.Complete(late, 35)
	c.Complete(lateSyn, 12)
	fs := &fakeSystem{}
	// Pending: one safety job past deadline, one with future deadline.
	pend1 := task.NewJob(safety, 2, 40) // deadline 50 < horizon 100 → miss
	pend2 := task.NewJob(safety, 3, 95) // deadline 105 ≥ horizon → censored
	fs.queue = append(fs.queue, pend1, pend2)
	fs.at = append(fs.at, 1000, 1000)
	res := c.Result(fs, 100)
	if res.Completed != 3 {
		t.Errorf("Completed = %d", res.Completed)
	}
	if res.CriticalMisses != 2 { // late + pend1
		t.Errorf("CriticalMisses = %d, want 2", res.CriticalMisses)
	}
	if res.OtherMisses != 1 {
		t.Errorf("OtherMisses = %d, want 1", res.OtherMisses)
	}
	if res.Unfinished != 2 {
		t.Errorf("Unfinished = %d, want 2", res.Unfinished)
	}
	if res.BytesServed != 14 {
		t.Errorf("BytesServed = %d, want 14", res.BytesServed)
	}
	if res.Success() {
		t.Error("trial with critical misses cannot succeed")
	}
}

func TestRunValidation(t *testing.T) {
	if _, err := Run(builder(1), Trial{VMs: 1, Horizon: 0}); err == nil {
		t.Error("zero horizon accepted")
	}
	bad := task.Set{{ID: 0, VM: 0, Period: -1, WCET: 1, Deadline: 1}}
	if _, err := Run(builder(1), Trial{VMs: 1, Tasks: bad, Horizon: 10}); err == nil {
		t.Error("invalid workload accepted")
	}
	failing := func(tr Trial, col *Collector) (System, error) {
		return nil, errors.New("boom")
	}
	if _, err := Run(failing, Trial{VMs: 1, Tasks: workload(), Horizon: 10}); err == nil {
		t.Error("builder error swallowed")
	}
}

func TestRunFastSystemSucceeds(t *testing.T) {
	res, err := Run(builder(2), Trial{VMs: 2, Tasks: workload(), Horizon: 500, Seed: 1})
	if err != nil {
		t.Fatal(err)
	}
	if res.Completed == 0 {
		t.Fatal("no completions")
	}
	if !res.Success() {
		t.Errorf("delay-2 system should meet all deadlines: %+v", res)
	}
	if res.Response.Mean() != 2 {
		t.Errorf("response mean = %v, want 2", res.Response.Mean())
	}
}

func TestRunSlowSystemMisses(t *testing.T) {
	res, err := Run(builder(12), Trial{VMs: 2, Tasks: workload(), Horizon: 500, Seed: 1})
	if err != nil {
		t.Fatal(err)
	}
	if res.CriticalMisses == 0 {
		t.Error("delay-12 system must miss the D=10 safety task")
	}
}

func TestRunDeterministic(t *testing.T) {
	tr := Trial{VMs: 2, Tasks: workload(), Horizon: 300, Seed: 7}
	a, err := Run(builder(3), tr)
	if err != nil {
		t.Fatal(err)
	}
	b, err := Run(builder(3), tr)
	if err != nil {
		t.Fatal(err)
	}
	if a.Completed != b.Completed || a.CriticalMisses != b.CriticalMisses || a.BytesServed != b.BytesServed {
		t.Error("same trial must be reproducible")
	}
}

func TestSweepAggregates(t *testing.T) {
	agg, err := Sweep(builder(2), Trial{VMs: 2, Tasks: workload(), Horizon: 300, Seed: 1}, 5)
	if err != nil {
		t.Fatal(err)
	}
	if agg.Trials != 5 || agg.SuccessRatio() != 1 {
		t.Errorf("aggregate = %+v", agg)
	}
	if _, err := Sweep(builder(2), Trial{VMs: 1, Horizon: 0}, 2); err == nil {
		t.Error("sweep should propagate run errors")
	}
}
