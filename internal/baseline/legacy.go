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
	"ioguard/internal/sim"
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
	pending *queue.PQ[*task.Job] // keyed by injection slot
}

var (
	_ system.ShardedSystem = (*Legacy)(nil)
	_ system.Shard         = (*Legacy)(nil)
	_ sim.Skipper          = (*Legacy)(nil)
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
	return &Legacy{t: t, tasks: ts, path: path, devices: devices, pending: queue.NewPQ[*task.Job](0)}, nil
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
	l.pending.Push(now+l.path.Request, j)
}

// injectDue injects every pending request whose kernel path has
// completed.
func (l *Legacy) injectDue(now slot.Time) {
	for {
		_, at, j, ok := l.pending.Min()
		if !ok || at > now {
			break
		}
		l.pending.PopMin()
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
	next := l.t.nextWork(now)
	if _, at, _, ok := l.pending.Min(); ok {
		next = min(next, at)
	}
	return next
}

// SkipTo implements sim.Skipper over a span NextWork proved idle.
func (l *Legacy) SkipTo(from, to slot.Time) { l.t.skipTo(from, to) }

// Pending visits jobs still inside the system.
func (l *Legacy) Pending(visit func(j *task.Job)) {
	l.pending.Each(func(_ queue.Handle, _ slot.Time, j *task.Job) { visit(j) })
	l.t.pendingJobs(visit)
}

// Dropped returns jobs lost in transport.
func (l *Legacy) Dropped() int64 { return l.t.dropped }
