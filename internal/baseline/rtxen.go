// BS|RT-XEN: a virtualized system on a Xen-style software hypervisor
// with real-time patches and I/O enhancement (Xi et al., EMSOFT'14).
// Every I/O operation pays the software access path: the guest kernel
// and virtual front-end driver, a trap into the VMM, and serialized
// back-end processing inside the hypervisor before the request ever
// reaches the NoC. Guests only interact with the VMM during their
// VCPU scheduling windows, so adding VMs stretches the path — the
// mechanism behind Obs. 4's collapse at higher VM counts.
package baseline

import (
	"fmt"

	"ioguard/internal/queue"
	"ioguard/internal/rtos"
	"ioguard/internal/slot"
	"ioguard/internal/system"
	"ioguard/internal/task"
)

// DefaultVCPUQuantum is the VMM scheduler quantum in slots (50 µs at
// the platform clock), the granularity at which VCPUs are multiplexed.
const DefaultVCPUQuantum slot.Time = 50

// RTXen is the BS|RT-XEN baseline.
type RTXen struct {
	t       *meshTransport
	tasks   task.Set
	path    rtos.PathCost
	devices []string
	vms     int
	quantum slot.Time

	pending   queue.PQ[*task.Job] // guest-side path, keyed by VMM-arrival slot
	vmmQueues []*queue.FIFO[*task.Job]
	vmmJob    *task.Job
	vmmBusyAt slot.Time // slot at which the VMM finishes the current op
}

var (
	_ system.ShardedSystem = (*RTXen)(nil)
	_ system.Shard         = (*RTXen)(nil)
)

// NewRTXen builds the RT-Xen baseline. quantum ≤ 0 selects
// DefaultVCPUQuantum.
func NewRTXen(vms int, ts task.Set, col *system.Collector, quantum slot.Time) (*RTXen, error) {
	if vms <= 0 {
		return nil, fmt.Errorf("baseline: rt-xen needs at least one VM")
	}
	if err := ts.Validate(); err != nil {
		return nil, err
	}
	if quantum <= 0 {
		quantum = DefaultVCPUQuantum
	}
	path := rtos.Costs(rtos.RTXen)
	devices := devicesOf(ts)
	t, err := newMeshTransport(vms, devices, col, path.Response)
	if err != nil {
		return nil, err
	}
	x := &RTXen{
		t:       t,
		tasks:   ts,
		path:    path,
		devices: devices,
		vms:     vms,
		quantum: quantum,
	}
	for i := 0; i < vms; i++ {
		x.vmmQueues = append(x.vmmQueues, queue.NewFIFO[*task.Job](0))
	}
	// Completions are delivered through the event channel of the I/O
	// enhancement [14] and do not wait for the VCPU window; only
	// outgoing requests do.
	return x, nil
}

// nextWindow returns the first slot ≥ at inside VM vmID's VCPU
// scheduling window (round-robin quantum multiplexing).
func (x *RTXen) nextWindow(vmID int, at slot.Time) slot.Time {
	if x.vms == 1 {
		return at
	}
	cur := int((at / x.quantum) % slot.Time(x.vms))
	if cur == vmID {
		return at
	}
	d := (vmID - cur + x.vms) % x.vms
	return (at/x.quantum + slot.Time(d)) * x.quantum
}

// Name returns "BS|RT-XEN".
func (x *RTXen) Name() string { return rtos.RTXen.String() }

// Arch returns rtos.RTXen.
func (x *RTXen) Arch() rtos.Arch { return rtos.RTXen }

// Residual returns the full workload.
func (x *RTXen) Residual() task.Set { return x.tasks }

// Submit runs the guest-side path: front-end driver work, then the
// wait for the VM's VCPU window before the request traps into the VMM.
func (x *RTXen) Submit(now slot.Time, j *task.Job) {
	at := x.nextWindow(j.Task.VM, now+x.path.Request)
	x.pending.Push(at, j)
}

// injectDue advances the VMM pipeline at slot now.
func (x *RTXen) injectDue(now slot.Time) {
	// Trapped requests reach their VM's backend queue.
	for {
		at, j, ok := x.pending.Min()
		if !ok || at > now {
			break
		}
		x.pending.PopMin()
		x.vmmQueues[j.Task.VM].Push(j)
	}
	// The VMM backend is a single software resource: it processes one
	// operation at a time (earliest deadline among the per-VM queue
	// heads — the real-time patch) and injects it into the NoC when
	// the backend work completes.
	if x.vmmJob != nil && now >= x.vmmBusyAt {
		x.t.sendRequest(now, x.vmmJob)
		x.vmmJob = nil
	}
	if x.vmmJob == nil {
		bestVM := -1
		bestD := slot.Never
		for vmID, q := range x.vmmQueues {
			if j, ok := q.Peek(); ok && j.Deadline < bestD {
				bestD = j.Deadline
				bestVM = vmID
			}
		}
		if bestVM >= 0 {
			j, _ := x.vmmQueues[bestVM].Pop()
			x.vmmJob = j
			x.vmmBusyAt = now + x.path.VMMRequest
		}
	}
}

// Step advances the VMM pipeline, then the mesh and controllers.
func (x *RTXen) Step(now slot.Time) {
	x.injectDue(now)
	x.t.step(now)
}

// Shards implements system.ShardedSystem: the whole system is one
// shard on one clock.
func (x *RTXen) Shards() []system.Shard { return []system.Shard{x} }

// Devices implements system.Shard: the one shard owns every device.
func (x *RTXen) Devices() []string { return x.devices }

// NextWork implements system.Shard: the VMM pipeline's next event or
// the transport's next pull, hop or service event.
func (x *RTXen) NextWork(now slot.Time) slot.Time {
	return min(x.pipeNextWork(now), x.t.nextWork(now))
}

// pipeNextWork returns the VMM pipeline's next event: vmmBusyAt for
// the operation inside the serialized backend, now when the idle
// backend must pick from a non-empty queue, and the head arrival slot
// of the guest-side path.
func (x *RTXen) pipeNextWork(now slot.Time) slot.Time {
	next := slot.Never
	if x.vmmJob != nil {
		if x.vmmBusyAt <= now {
			return now
		}
		next = x.vmmBusyAt
	} else {
		for _, q := range x.vmmQueues {
			if q.Len() > 0 {
				return now
			}
		}
	}
	if at, _, ok := x.pending.Min(); ok {
		next = min(next, at)
	}
	return next
}

// Pending visits jobs anywhere in the software or transport pipeline.
func (x *RTXen) Pending(visit func(j *task.Job)) {
	x.pending.Each(func(_ slot.Time, j *task.Job) { visit(j) })
	for _, q := range x.vmmQueues {
		q.Each(visit)
	}
	if x.vmmJob != nil {
		visit(x.vmmJob)
	}
	x.t.pendingJobs(visit)
}

// Dropped returns jobs lost in transport.
func (x *RTXen) Dropped() int64 { return x.t.dropped }
