// BS|Legacy: an NoC system without virtualization support. Each
// processor is deemed a VM; I/O requests cross the legacy kernel
// path, then the mesh routers — whose FIFO arbiters are the only
// "scheduling" the system has — and queue at a conventional
// non-preemptive I/O controller.
package baseline

import (
	"sort"

	"ioguard/internal/queue"
	"ioguard/internal/rtos"
	"ioguard/internal/slot"
	"ioguard/internal/system"
	"ioguard/internal/task"
)

// Legacy is the BS|Legacy baseline.
type Legacy struct {
	t       *meshTransport
	tasks   task.Set
	path    rtos.PathCost
	devices []string
	pending delayLine // kernel path, toward mesh injection
}

var (
	_ system.ShardedSystem = (*Legacy)(nil)
	_ system.Shard         = (*Legacy)(nil)
)

// devicesOf returns the sorted device names used by a workload.
func devicesOf(ts task.Set) []string {
	seen := map[string]bool{}
	for _, t := range ts {
		seen[t.Device] = true
	}
	out := make([]string, 0, len(seen))
	for d := range seen {
		out = append(out, d)
	}
	sort.Strings(out)
	return out
}

// arrival is a job on a constant-latency request path, due at slot at.
type arrival struct {
	at  slot.Time
	job *task.Job
}

// delayLine is a bounded request path with one constant latency.
// Precondition: jobs are pushed at non-decreasing submission slots, as
// the run loop submits them. With a constant latency they then fall
// due in push order, so a FIFO is already ordered by (due slot,
// submission). The zero value is an empty path.
type delayLine struct{ q queue.FIFO[arrival] }

// push puts j on the path, due at slot at.
func (d *delayLine) push(at slot.Time, j *task.Job) { d.q.Push(arrival{at: at, job: j}) }

// popDue removes and returns the head job if it is due by now.
func (d *delayLine) popDue(now slot.Time) (*task.Job, bool) {
	if a, ok := d.q.Peek(); !ok || a.at > now {
		return nil, false
	}
	a, _ := d.q.Pop()
	return a.job, true
}

// next returns the head job's due slot, or slot.Never when empty.
func (d *delayLine) next() slot.Time {
	if a, ok := d.q.Peek(); ok {
		return a.at
	}
	return slot.Never
}

// each visits the jobs on the path.
func (d *delayLine) each(visit func(j *task.Job)) {
	d.q.Each(func(a arrival) { visit(a.job) })
}

// NewLegacy builds the legacy baseline for the workload.
func NewLegacy(vms int, ts task.Set, col *system.Collector) (*Legacy, error) {
	if err := ts.Validate(); err != nil {
		return nil, err
	}
	path := rtos.Costs(rtos.Legacy)
	devices := devicesOf(ts)
	t, err := newMeshTransport(vms, devices, col, path.Response)
	if err != nil {
		return nil, err
	}
	return &Legacy{t: t, tasks: ts, path: path, devices: devices}, nil
}

// Name returns "BS|Legacy".
func (l *Legacy) Name() string { return rtos.Legacy.String() }

// Arch returns rtos.Legacy.
func (l *Legacy) Arch() rtos.Arch { return rtos.Legacy }

// Residual returns the full workload: the legacy system has no
// P-channel, every task is driven externally.
func (l *Legacy) Residual() task.Set { return l.tasks }

// Submit runs the kernel I/O path and schedules the request packet's
// injection into the mesh.
func (l *Legacy) Submit(now slot.Time, j *task.Job) {
	l.pending.push(now+l.path.Request, j)
}

// injectDue injects every pending request whose kernel path has
// completed.
func (l *Legacy) injectDue(now slot.Time) {
	for j, ok := l.pending.popDue(now); ok; j, ok = l.pending.popDue(now) {
		l.t.sendRequest(now, j)
	}
}

// Step injects due requests and advances the mesh and controllers.
func (l *Legacy) Step(now slot.Time) {
	l.injectDue(now)
	l.t.step(now)
}

// Shards implements system.ShardedSystem: the whole system is one
// shard on one clock.
func (l *Legacy) Shards() []system.Shard { return []system.Shard{l} }

// Devices implements system.Shard: the one shard owns every device.
func (l *Legacy) Devices() []string { return l.devices }

// NextWork implements system.Shard: the earliest scheduled request
// injection, or the transport's next pull, hop or service event.
func (l *Legacy) NextWork(now slot.Time) slot.Time {
	return min(l.t.nextWork(now), l.pending.next())
}

// Pending visits jobs still inside the system.
func (l *Legacy) Pending(visit func(j *task.Job)) {
	l.pending.each(visit)
	l.t.pendingJobs(visit)
}

// Dropped returns jobs lost in transport.
func (l *Legacy) Dropped() int64 { return l.t.dropped }
