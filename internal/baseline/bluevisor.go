// BS|BV: BlueVisor-style hardware-assisted virtualization (Jiang &
// Audsley, RTAS'18). The hypervisor is a dedicated coprocessor, so
// I/O requests bypass both the software VMM and the NoC routers and
// reach the I/O hardware over a short bounded path — but the I/O
// buffering "remains the FIFO structure at I/O hardware level, which
// hence cannot guarantee the I/O predictability" (Sec. I): per-VM
// FIFO pools served round-robin, non-preemptively, with no deadline
// awareness.
package baseline

import (
	"fmt"
	"sync/atomic"

	"ioguard/internal/queue"
	"ioguard/internal/rtos"
	"ioguard/internal/slot"
	"ioguard/internal/system"
	"ioguard/internal/task"
)

// bvShard is one device's controller pipeline: the bounded hardware
// path (a delay queue keyed by pool-arrival slot) in front of the
// device's round-robin station. Devices never touch each other's
// state — there is no shared mesh in BlueVisor — so each shard may
// advance on its own virtual clock.
type bvShard struct {
	owner   *BlueVisor
	dev     string
	st      *station
	pending *queue.PQ[*task.Job] // keyed by pool-arrival slot
	// dropped counts this shard's full-queue rejections. Kept per
	// shard (summed by BlueVisor.Dropped) so shards never write a
	// shared counter.
	dropped int64
}

// Devices returns the single device this shard owns.
func (s *bvShard) Devices() []string { return []string{s.dev} }

// Submit forwards the job over the bounded hardware path into its
// VM's FIFO pool at the device.
func (s *bvShard) Submit(now slot.Time, j *task.Job) {
	s.pending.Push(now+s.owner.path.Request, j)
}

// Step admits due jobs to their pools and services the controller.
func (s *bvShard) Step(now slot.Time) {
	for {
		_, at, j, ok := s.pending.Min()
		if !ok || at > now {
			break
		}
		s.pending.PopMin()
		if err := s.st.enqueue(j); err != nil {
			s.dropped++
		}
	}
	s.st.step(now)
}

// complete delivers one finished job — response-path cost added — to
// the collector.
func (s *bvShard) complete(j *task.Job, finished slot.Time) {
	if s.owner.col != nil {
		s.owner.col.Complete(j, finished+s.owner.path.Response)
	}
}

// NextWork implements the sim.Quiescer protocol on the shard's local
// clock: now while the station holds work, otherwise the earliest
// pool-arrival slot.
func (s *bvShard) NextWork(now slot.Time) slot.Time {
	if s.st.busy() {
		return now
	}
	if _, at, _, ok := s.pending.Min(); ok {
		if at <= now {
			return now
		}
		return at
	}
	return slot.Never
}

// pendingJobs visits jobs on the hardware path or queued at the
// controller.
func (s *bvShard) pendingJobs(visit func(j *task.Job)) {
	s.pending.Each(func(_ queue.Handle, _ slot.Time, j *task.Job) { visit(j) })
	s.st.pendingJobs(visit)
}

// BlueVisor is the BS|BV baseline: one bvShard per device.
type BlueVisor struct {
	tasks  task.Set
	path   rtos.PathCost
	col    *system.Collector
	shards []*bvShard
	byDev  map[string]*bvShard
	// dropped counts jobs for unknown devices. Atomic: Submit is the
	// sharded executor's fallback path and may interleave with
	// concurrent Dropped snapshots; per-shard full-queue drops stay in
	// bvShard.dropped (shard-confined, summed below).
	dropped atomic.Int64
}

var _ system.System = (*BlueVisor)(nil)
var _ system.ShardedSystem = (*BlueVisor)(nil)

// NewBlueVisor builds the BlueVisor baseline.
func NewBlueVisor(vms int, ts task.Set, col *system.Collector) (*BlueVisor, error) {
	if vms <= 0 {
		return nil, fmt.Errorf("baseline: bluevisor needs at least one VM")
	}
	if err := ts.Validate(); err != nil {
		return nil, err
	}
	b := &BlueVisor{
		tasks: ts,
		path:  rtos.Costs(rtos.BlueVisor),
		col:   col,
		byDev: make(map[string]*bvShard),
	}
	// BlueVisor's hardware translators program the controller faster
	// than a software driver but still occupy it per operation.
	const bvSetupSlots = 2
	for _, dev := range devicesOf(ts) {
		sh := &bvShard{owner: b, dev: dev, pending: queue.NewPQ[*task.Job](0)}
		st, err := newStation(dev, perVMRoundRobin, vms, bvSetupSlots, sh.complete)
		if err != nil {
			return nil, err
		}
		sh.st = st
		b.shards = append(b.shards, sh)
		b.byDev[dev] = sh
	}
	return b, nil
}

// Name returns "BS|BV".
func (b *BlueVisor) Name() string { return rtos.BlueVisor.String() }

// Arch returns rtos.BlueVisor.
func (b *BlueVisor) Arch() rtos.Arch { return rtos.BlueVisor }

// Residual returns the full workload.
func (b *BlueVisor) Residual() task.Set { return b.tasks }

// Submit routes the job to its device's shard (jobs for unknown
// devices are dropped — there is no controller to serve them).
func (b *BlueVisor) Submit(now slot.Time, j *task.Job) {
	sh, ok := b.byDev[j.Task.Device]
	if !ok {
		b.dropped.Add(1)
		return
	}
	sh.Submit(now, j)
}

// Step advances every shard one slot, in sorted device order (the
// same order the decoupled scheduler preserves per slot).
func (b *BlueVisor) Step(now slot.Time) {
	for _, sh := range b.shards {
		sh.Step(now)
	}
}

// Shards implements system.ShardedSystem: one shard per device, in
// sorted device order. BlueVisor has no cross-device coupling, so the
// per-device decoupling is exact.
func (b *BlueVisor) Shards() []system.Shard {
	out := make([]system.Shard, len(b.shards))
	for i, sh := range b.shards {
		out[i] = sh
	}
	return out
}

// Pending visits jobs on the hardware path or queued at controllers.
func (b *BlueVisor) Pending(visit func(j *task.Job)) {
	for _, sh := range b.shards {
		sh.pendingJobs(visit)
	}
}

// Dropped returns jobs lost at unknown devices or full queues.
func (b *BlueVisor) Dropped() int64 {
	n := b.dropped.Load()
	for _, sh := range b.shards {
		n += sh.dropped
	}
	return n
}
