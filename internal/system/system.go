// Package system defines the common harness under which all four
// architectures of the evaluation (Sec. V) execute identical
// workloads: a System accepts released I/O jobs and is stepped by the
// global timer; a Collector records observed completions; Run drives
// one trial and scores it with the paper's metrics.
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

// System is one complete architecture under test.
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
	// Dense forces slot-by-slot stepping even when the system under
	// test is a ShardedSystem. The zero value lets Run fast-forward
	// each shard over its idle regions; both modes produce
	// byte-identical results — an invariant enforced by the equivalence
	// tests and the CI cmp job.
	Dense bool
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
	// -workers / -dense setting.
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
// system's residual tasks while the system steps, then the collector
// scores the outcome.
//
// A ShardedSystem runs on the sharded executor (runSharded): every
// shard owns a local virtual clock and fast-forwards independently
// through its own idle regions, so one busy device never throttles
// idle peers. Any other system — and every system when tr.Dense is set
// — runs the dense reference loop, stepping every slot. A skipped slot
// is one nothing observable happens in, so both loops produce
// byte-identical results — an invariant enforced by the equivalence
// tests and the CI cmp.
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
	rng := rand.New(rand.NewSource(tr.Seed))
	fleet, err := vm.NewFleet(tr.VMs, sys.Residual(), rng)
	if err != nil {
		return nil, err
	}
	if fs != nil {
		fleet.SetReleaseJitter(fs.ReleaseJitter)
	}
	var shards []Shard
	if ss, ok := sys.(ShardedSystem); ok && !tr.Dense {
		shards = ss.Shards()
	}
	if len(shards) > 0 {
		runSharded(shards, fleet, tr.Horizon, fs, func(j *task.Job) { sys.Submit(j.Release, j) })
	} else {
		runDense(sys, fleet, tr.Horizon, fs)
	}
	res := col.Result(sys, tr.Horizon)
	res.Released = fleet.Released()
	return res, nil
}

// runDense is the reference loop: every slot, due delayed requests
// and then the slot's releases are submitted, and the system steps.
func runDense(sys System, fleet *vm.Fleet, horizon slot.Time, fs *faults.Stream) {
	// One closure for the whole trial: a per-slot closure would
	// allocate on every iteration of the hot loop.
	var now slot.Time
	submit := func(j *task.Job) { sys.Submit(now, j) }
	// Faulted trials route releases through the transport layer:
	// delayed requests park in a due-ordered queue until their
	// delivery slot.
	var delayed *queue.PQ[*task.Job]
	if fs != nil {
		delayed = queue.NewPQ[*task.Job](0)
		submit = faultedEmit(fs, func(due slot.Time, j *task.Job) {
			if due > now {
				delayed.Push(due, j)
				return
			}
			sys.Submit(now, j)
		})
	}
	for now = 0; now < horizon; now++ {
		if delayed != nil {
			// Deliver delayed requests first: a sharded run's mailboxes
			// order same-slot submissions by due then emission, which
			// puts earlier-released (delayed) jobs ahead of this slot's
			// fresh releases.
			for {
				_, due, dj, ok := delayed.Min()
				if !ok || due > now {
					break
				}
				delayed.PopMin()
				sys.Submit(now, dj)
			}
		}
		fleet.Release(now, submit)
		sys.Step(now)
	}
}

// Sweep runs `trials` independent seeds of one configuration and
// aggregates them (the paper repeats each configuration 1000 times;
// callers choose how many fit their budget). It is the single-worker
// special case of ParallelSweep.
func Sweep(build Builder, tr Trial, trials int) (*metrics.Aggregate, error) {
	return ParallelSweep(build, tr, trials, 1)
}
