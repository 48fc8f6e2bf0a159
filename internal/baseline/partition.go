// BS|PART: Jailhouse-style static hardware partitioning (Ramsauer et
// al., "Look Mum, no VM Exits!" — see PAPERS.md). Each device's time
// is carved into fixed per-VM windows assigned round-robin over a
// static cycle; a VM's I/O is served only inside its own windows.
// There is no VMM on the data path and no interference between VMs —
// but also *no slack reclamation*: a window whose owner is idle is
// wasted even while other VMs queue, and an operation that outlives
// its window freezes until the owner's next turn. The baseline
// isolates exactly the property I/O-GUARD's two-channel design keeps
// without paying for it: partitioning buys isolation by forfeiting
// work conservation.
package baseline

import (
	"fmt"

	"ioguard/internal/queue"
	"ioguard/internal/rtos"
	"ioguard/internal/slot"
	"ioguard/internal/system"
	"ioguard/internal/task"
)

// partitionWindowSlots is the width of one VM's device window. The
// static cycle is vms*partitionWindowSlots; slot t belongs to VM
// (t/window) mod vms on every device (Jailhouse configures one global
// static schedule, not per-device ones).
const partitionWindowSlots slot.Time = 32

// partSetupSlots is the per-operation controller setup inside a
// window; the partitioned controller is as thin as BlueVisor's
// hardware translator.
const partSetupSlots slot.Time = 2

// partShard is one device under static partitioning: the bounded
// partition-trap path (a delay line toward the queues) in front
// of per-VM queues that are only served inside the owning VM's
// windows. Devices share nothing, so each shard may advance on its
// own virtual clock.
type partShard struct {
	owner   *PartitionSystem
	dev     string
	pending delayLine // partition trap, toward the per-VM queues
	perVM   []*queue.FIFO[*task.Job]
	// inProg[vm] is the operation VM vm has started but not finished.
	// It survives window switches frozen — the partitioned controller
	// neither preempts nor migrates it, and no other VM may use the
	// residual window time (the no-reclamation property under test).
	inProg []*task.Job
	// dropped counts jobs naming a VM outside the static
	// configuration: Jailhouse has no cell to run them.
	dropped int64
}

// Devices returns the single device this shard owns.
func (s *partShard) Devices() []string { return []string{s.dev} }

// Submit forwards the job over the partition trap into the device's
// arrival queue.
func (s *partShard) Submit(now slot.Time, j *task.Job) {
	s.pending.push(now+s.owner.path.Request, j)
}

// ownerAt returns the VM owning slot t of the static cycle.
func (s *partShard) ownerAt(t slot.Time) int {
	return int((t / partitionWindowSlots) % slot.Time(len(s.perVM)))
}

// nextOwnedSlot returns the earliest slot ≥ now inside one of vm's
// windows.
func (s *partShard) nextOwnedSlot(vm int, now slot.Time) slot.Time {
	cycle := partitionWindowSlots * slot.Time(len(s.perVM))
	pos := now % cycle
	start := partitionWindowSlots * slot.Time(vm)
	switch {
	case pos >= start && pos < start+partitionWindowSlots:
		return now
	case pos < start:
		return now + (start - pos)
	default:
		return now + (cycle - pos) + start
	}
}

// Step admits due jobs to their VM queues and serves the slot owner's
// queue — and only it. Admission is a catch-up loop over everything
// due ≤ now, so skipped idle slots admit in the same (arrival,
// submission) order a dense run would.
func (s *partShard) Step(now slot.Time) {
	for j, ok := s.pending.popDue(now); ok; j, ok = s.pending.popDue(now) {
		vm := j.Task.VM
		if vm < 0 || vm >= len(s.perVM) {
			s.dropped++
			continue
		}
		s.perVM[vm].Push(j)
	}
	vm := s.ownerAt(now)
	cur := s.inProg[vm]
	if cur == nil {
		if j, ok := s.perVM[vm].Pop(); ok {
			j.Remaining += partSetupSlots
			cur = j
			s.inProg[vm] = j
		}
	}
	if cur == nil {
		return // owner idle: the window slot is wasted, never lent out
	}
	cur.Tick(now)
	if cur.Done() {
		s.inProg[vm] = nil
		s.complete(cur, now+1)
	}
}

// complete delivers one finished operation — response-path cost added
// — to the collector.
func (s *partShard) complete(j *task.Job, finished slot.Time) {
	if s.owner.col != nil {
		s.owner.col.Complete(j, finished+s.owner.path.Response)
	}
}

// NextWork implements the sim.Quiescer protocol on the shard's local
// clock: the earliest slot some VM with pending or frozen work owns,
// or the next queue arrival. Arrival wakeups are conservative — the
// arriving VM's window may be later — but admission is order-stable,
// so the extra step changes nothing observable.
func (s *partShard) NextWork(now slot.Time) slot.Time {
	next := slot.Never
	for vm := range s.perVM {
		if s.inProg[vm] == nil && s.perVM[vm].Len() == 0 {
			continue
		}
		t := s.nextOwnedSlot(vm, now)
		if t <= now {
			return now
		}
		if t < next {
			next = t
		}
	}
	at := s.pending.next()
	if at <= now {
		return now
	}
	return min(next, at)
}

// Pending visits jobs on the trap path, queued, or frozen
// mid-service.
func (s *partShard) Pending(visit func(j *task.Job)) {
	s.pending.each(visit)
	for vm, q := range s.perVM {
		if s.inProg[vm] != nil {
			visit(s.inProg[vm])
		}
		q.Each(visit)
	}
}

// Dropped returns the jobs rejected for unconfigured VMs.
func (s *partShard) Dropped() int64 { return s.dropped }

// PartitionSystem is the BS|PART baseline: one partShard per device,
// all following the same static window cycle. Partitioned devices
// share only the slot clock, so the per-device decoupling is exact.
type PartitionSystem struct {
	system.PerDevice[*partShard]
	tasks task.Set
	path  rtos.PathCost
	col   *system.Collector
}

var _ system.ShardedSystem = (*PartitionSystem)(nil)

// NewPartition builds the static-partitioning baseline.
func NewPartition(vms int, ts task.Set, col *system.Collector) (*PartitionSystem, error) {
	if vms <= 0 {
		return nil, fmt.Errorf("baseline: partition needs at least one VM")
	}
	if err := ts.Validate(); err != nil {
		return nil, err
	}
	p := &PartitionSystem{
		tasks: ts,
		path:  rtos.Costs(rtos.Partition),
		col:   col,
	}
	var shards []*partShard
	for _, dev := range devicesOf(ts) {
		sh := &partShard{
			owner:  p,
			dev:    dev,
			inProg: make([]*task.Job, vms),
		}
		for i := 0; i < vms; i++ {
			sh.perVM = append(sh.perVM, queue.NewFIFO[*task.Job](0))
		}
		shards = append(shards, sh)
	}
	p.PerDevice = system.NewPerDevice(shards)
	return p, nil
}

// Name returns "BS|PART".
func (p *PartitionSystem) Name() string { return rtos.Partition.String() }

// Arch returns rtos.Partition.
func (p *PartitionSystem) Arch() rtos.Arch { return rtos.Partition }

// Residual returns the full workload.
func (p *PartitionSystem) Residual() task.Set { return p.tasks }
