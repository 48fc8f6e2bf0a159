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

	"ioguard/internal/rtos"
	"ioguard/internal/slot"
	"ioguard/internal/system"
	"ioguard/internal/task"
)

// bvShard is one device's controller pipeline: the bounded hardware
// path (a delay line toward the pools) in front of the
// device's round-robin station. Devices never touch each other's
// state — there is no shared mesh in BlueVisor — so each shard may
// advance on its own virtual clock.
type bvShard struct {
	owner   *BlueVisor
	dev     string
	st      *station
	pending delayLine // hardware path, toward the pools
	dropped int64     // jobs of a VM without a pool
}

// Devices returns the single device this shard owns.
func (s *bvShard) Devices() []string { return []string{s.dev} }

// Submit forwards the job over the bounded hardware path into its
// VM's FIFO pool at the device.
func (s *bvShard) Submit(now slot.Time, j *task.Job) {
	s.pending.push(now+s.owner.path.Request, j)
}

// Step admits due jobs to their pools and services the controller.
func (s *bvShard) Step(now slot.Time) {
	for j, ok := s.pending.popDue(now); ok; j, ok = s.pending.popDue(now) {
		if !s.st.enqueue(j) {
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
// clock: the station's next service start or end, or the earliest
// pool-arrival slot.
func (s *bvShard) NextWork(now slot.Time) slot.Time {
	return min(s.st.nextWork(now), s.pending.next())
}

// Pending visits jobs on the hardware path or queued at the
// controller.
func (s *bvShard) Pending(visit func(j *task.Job)) {
	s.pending.each(visit)
	s.st.pendingJobs(visit)
}

// Dropped returns the jobs full queues rejected.
func (s *bvShard) Dropped() int64 { return s.dropped }

// BlueVisor is the BS|BV baseline: one bvShard per device. BlueVisor
// has no cross-device coupling, so the per-device decoupling is exact.
type BlueVisor struct {
	system.PerDevice[*bvShard]
	tasks task.Set
	path  rtos.PathCost
	col   *system.Collector
}

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
	}
	// BlueVisor's hardware translators program the controller faster
	// than a software driver but still occupy it per operation.
	const bvSetupSlots = 2
	var shards []*bvShard
	for _, dev := range devicesOf(ts) {
		sh := &bvShard{owner: b, dev: dev}
		st, err := newStation(dev, true, vms, bvSetupSlots, sh.complete)
		if err != nil {
			return nil, err
		}
		sh.st = st
		shards = append(shards, sh)
	}
	b.PerDevice = system.NewPerDevice(shards)
	return b, nil
}

// Name returns "BS|BV".
func (b *BlueVisor) Name() string { return rtos.BlueVisor.String() }

// Arch returns rtos.BlueVisor.
func (b *BlueVisor) Arch() rtos.Arch { return rtos.BlueVisor }

// Residual returns the full workload.
func (b *BlueVisor) Residual() task.Set { return b.tasks }
