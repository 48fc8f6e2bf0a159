// Package system defines the common harness under which all four
// architectures of the evaluation (Sec. V) execute identical
// workloads: a ShardedSystem's shards accept released I/O jobs and
// are stepped by the global timer; a Collector records observed
// completions; Run drives one trial and scores it with the paper's
// metrics.
package system

import (
	"fmt"
	"math/rand"

	"ioguard/internal/faults"
	"ioguard/internal/metrics"
	"ioguard/internal/queue"
	"ioguard/internal/rtos"
	"ioguard/internal/slot"
	"ioguard/internal/task"
	"ioguard/internal/vm"
)

// System is one complete architecture under test. Run executes
// systems that also implement ShardedSystem and drives only their
// shards; Submit and Step drive the whole system by hand.
type System interface {
	// Name identifies the system (and its configuration) in reports.
	Name() string
	// Arch returns the underlying architecture class.
	Arch() rtos.Arch
	// Residual returns the tasks an external release engine must
	// drive. Systems that pre-load tasks internally (the I/O-GUARD
	// P-channel) exclude those from the residual.
	Residual() task.Set
	// Submit delivers a job released by its VM at slot now.
	Submit(now slot.Time, j *task.Job)
	// Step advances the system by one slot; call once per slot.
	Step(now slot.Time)
	// Pending visits jobs still buffered inside the system.
	Pending(visit func(j *task.Job))
	// Dropped returns the count of jobs rejected by full queues.
	Dropped() int64
}

// Trial parameterizes one execution.
type Trial struct {
	VMs     int
	Tasks   task.Set
	Horizon slot.Time
	Seed    int64
	// Metrics selects the collector's recorder implementation: the
	// zero value (MetricsExact) buffers every completion and renders
	// byte-identical to the historical collector; MetricsStream keeps
	// collector memory independent of the horizon at the cost of
	// ε-approximate percentiles.
	Metrics MetricsMode
	// Faults configures the deterministic fault-injection layer: release
	// jitter at the workload layer, drop/duplicate/delay at the
	// submission boundary. The zero value is a clean run — the fault
	// path is skipped entirely and output is identical to a build
	// without the layer. Every decision is a pure per-job hash of
	// (Faults.Seed, Seed), so faulted runs stay byte-identical at any
	// -workers setting and whichever slots the run loop skips.
	Faults faults.Plan
	// Accuracy opts into the timing-accuracy recorder
	// (max(response − WCET, 0) per completion, TrialResult.Accuracy)
	// even for clean runs; any enabled fault plan implies it.
	Accuracy bool
}

// Builder constructs a system wired to a collector. It receives the
// full workload; the returned system's Residual() tells the runner
// which tasks to drive externally.
type Builder func(tr Trial, col *Collector) (System, error)

// expectedCompletions bounds how many jobs a trial can complete, for
// pre-sizing the collector: one job per task period within the
// horizon, plus the partial period.
func expectedCompletions(ts task.Set, horizon slot.Time) int {
	var n slot.Time
	for _, t := range ts {
		if t.Period > 0 {
			n += horizon/t.Period + 1
		}
	}
	return int(n)
}

// Run executes one trial: a deterministic VM fleet releases the
// system's residual tasks while the run loop steps the system's
// shards on one global clock, then the collector scores the outcome.
// Each shard fast-forwards through its own idle regions, so one busy
// device never throttles idle peers. A skipped slot is one nothing
// observable happens in, so the result is byte-identical to stepping
// every shard in every slot (systemtest.Dense) — an invariant enforced
// by the equivalence tests. The system must be a ShardedSystem whose
// shards own every residual task's device.
func Run(build Builder, tr Trial) (*metrics.TrialResult, error) {
	if tr.Horizon <= 0 {
		return nil, fmt.Errorf("system: non-positive horizon %d", tr.Horizon)
	}
	if err := tr.Tasks.Validate(); err != nil {
		return nil, err
	}
	if err := tr.Faults.Validate(); err != nil {
		return nil, err
	}
	col := NewSeededCollectorFor(tr.Metrics, expectedCompletions(tr.Tasks, tr.Horizon), tr.Seed)
	if tr.Accuracy || tr.Faults.Enabled() {
		col.TrackAccuracy()
	}
	fs := faults.New(tr.Faults, tr.Seed)
	if fs != nil {
		col.SetFaultStream(fs)
	}
	sys, err := build(tr, col)
	if err != nil {
		return nil, err
	}
	ss, ok := sys.(ShardedSystem)
	if !ok {
		return nil, fmt.Errorf("system: %s has no shards to run", sys.Name())
	}
	shards := ss.Shards()
	route := make(map[string]int, len(shards))
	for i, sh := range shards {
		for _, d := range sh.Devices() {
			route[d] = i
		}
	}
	for _, t := range sys.Residual() {
		if _, ok := route[t.Device]; !ok {
			return nil, fmt.Errorf("system: %s: no shard owns device %q of task %d", sys.Name(), t.Device, t.ID)
		}
	}
	rng := rand.New(rand.NewSource(tr.Seed))
	fleet, err := vm.NewFleet(tr.VMs, sys.Residual(), rng)
	if err != nil {
		return nil, err
	}
	if fs != nil {
		fleet.SetReleaseJitter(fs.ReleaseJitter)
	}
	delayed := run(shards, route, fleet, tr.Horizon, fs)
	res := col.Result(inTransit{sys, delayed}, tr.Horizon)
	res.Released = fleet.Released()
	return res, nil
}

// inTransit adds the jobs a fault delay still holds at the horizon to
// a system's pending jobs, so the censoring sweep scores them like any
// other unfinished request.
type inTransit struct {
	System
	delayed *queue.PQ[*task.Job]
}

// Pending visits the system's pending jobs, then the in-transit ones.
func (t inTransit) Pending(visit func(j *task.Job)) {
	t.System.Pending(visit)
	t.delayed.Each(func(_ slot.Time, j *task.Job) { visit(j) })
}

// Sweep runs `trials` independent seeds of one configuration and
// aggregates them (the paper repeats each configuration 1000 times;
// callers choose how many fit their budget). It is the single-worker
// special case of ParallelSweep.
func Sweep(build Builder, tr Trial, trials int) (*metrics.Aggregate, error) {
	return ParallelSweep(build, tr, trials, 1)
}
