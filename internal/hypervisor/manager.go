// Package hypervisor implements the I/O-GUARD hardware hypervisor of
// Sec. III (Jiang et al., DAC'21): per connected I/O device, a
// virtualization manager decides the execution order of I/O tasks
// (P-channel for pre-defined tasks driven by the Time Slot Table,
// R-channel for run-time tasks under the two-layer preemptive-EDF
// scheduler), and a virtualization driver translates operations for
// the device's controller with bounded latency.
//
// The manager executes at time-slot granularity: one slot of the
// shared I/O device is granted per Step, preemption happens at slot
// boundaries, and the response channel is pass-through.
package hypervisor

import (
	"errors"
	"fmt"
	"slices"
	"sort"

	"ioguard/internal/queue"
	"ioguard/internal/slot"
	"ioguard/internal/task"
)

// Mode selects the global scheduler's policy for free slots.
type Mode uint8

// Global scheduling modes.
const (
	// ServerEDF is the paper's two-layer design: free slots are
	// allocated to per-VM periodic servers Γi=(Πi,Θi) by EDF on
	// server deadlines; the granted VM runs its earliest-deadline job.
	ServerEDF Mode = iota
	// DirectEDF skips the server layer: free slots go to the
	// globally earliest deadline across all shadow registers. Used
	// for ablation; it maximizes raw schedulability but gives up the
	// per-VM bandwidth isolation of the servers.
	DirectEDF
)

// String returns the mode name.
func (m Mode) String() string {
	switch m {
	case ServerEDF:
		return "server-edf"
	case DirectEDF:
		return "direct-edf"
	default:
		return fmt.Sprintf("mode(%d)", uint8(m))
	}
}

// Config parameterizes one virtualization manager.
type Config struct {
	VMs          int         // number of I/O pools
	PoolCapacity int         // per-pool priority-queue depth; ≤0 = unbounded
	Table        *slot.Table // σ*: nil means an all-free table of length 1
	Servers      []task.Server
	Mode         Mode
	// WorkConserving lets the R-channel reclaim table slots whose
	// pre-defined task has no pending work. The paper's design is
	// non-work-conserving (run-time tasks execute only "when the
	// pre-defined tasks are not occupying the I/O"); the flag exists
	// for the ablation benchmarks.
	WorkConserving bool
	// ReqLatency is the bounded request-path cost: I/O driver forward
	// plus request translator (Sec. III-B), in slots.
	ReqLatency slot.Time
	// RespLatency is the bounded response-path cost (pass-through
	// response channel plus response translator), in slots.
	RespLatency slot.Time
}

// Stats aggregates one manager's execution counters.
type Stats struct {
	PSlotsUsed  int64 // table-owned slots that executed their task
	PSlotsIdle  int64 // table-owned slots whose task had no work
	RSlotsUsed  int64 // free slots granted to run-time jobs
	SlotsIdle   int64 // slots with no work at all
	Reclaimed   int64 // table slots reclaimed by the R-channel
	Completed   int64 // jobs finished (both channels)
	Preemptions int64 // job switches while the previous job was unfinished
	Dropped     int64 // jobs lost: rejected at full pools or discarded at task retirement
	BytesServed int64 // payload bytes of completed jobs
}

// VMStats aggregates one VM's R-channel counters, the per-tenant view
// of the hardware isolation (each VM can audit its own pool).
type VMStats struct {
	Admitted  int64 // jobs that entered the VM's I/O pool
	Completed int64 // jobs finished through the R-channel
	Dropped   int64 // jobs lost: rejected at the full pool or discarded at task retirement
	SlotsUsed int64 // device slots granted to this VM
}

// preTask is one pre-defined task registered with the P-channel.
type preTask struct {
	spec        *task.Sporadic
	id          slot.TaskID
	offset      slot.Time
	nextRelease slot.Time
	seq         int
	pending     *queue.FIFO[*task.Job] // released, unfinished jobs (in order)
	owned       []slot.Run             // maximal table runs owned by id, ascending in [0,H)
	// relIdx is the task's position in the release heap, or -1 while
	// it waits on the not-yet-started list.
	relIdx int
	// busyIdx is the task's position in the manager's busy list (tasks
	// with pending jobs), or -1 while its backlog is empty.
	busyIdx int
}

// firstRelease returns the task's first release at or after now when
// it starts there: a task loaded mid-run begins at its next
// table-aligned release and must not back-fill jobs from before it was
// loaded.
func (pt *preTask) firstRelease(now slot.Time) slot.Time {
	nr := pt.nextRelease
	if nr < now {
		nr += ((now - nr + pt.spec.Period - 1) / pt.spec.Period) * pt.spec.Period
	}
	return nr
}

// nextOwned returns the first slot ≥ from of the infinite table σ that
// this task owns — the next slot at which a pending P-channel job can
// execute. The binary search runs over the task's owned runs (whole
// spans, not per-slot lists), so its cost follows the run count. h is
// the table hyper-period; owned is never empty (Preload rejects tasks
// without table slots).
func (pt *preTask) nextOwned(from, h slot.Time) slot.Time {
	idx := from % h
	i := sort.Search(len(pt.owned), func(k int) bool { return pt.owned[k].Start+pt.owned[k].Length > idx })
	if i < len(pt.owned) {
		if pt.owned[i].Start <= idx {
			return from // from lies inside an owned run
		}
		return from + (pt.owned[i].Start - idx)
	}
	return from + (h - idx) + pt.owned[0].Start
}

// releaseHeap orders started pre-defined tasks by (next release, task
// id), so Step touches only the tasks due this slot and NextWork reads
// the earliest release at the head. Every element's relIdx tracks its
// position, so a retired task is removed in place.
type releaseHeap []*preTask

func (h releaseHeap) before(i, j int) bool {
	if h[i].nextRelease != h[j].nextRelease {
		return h[i].nextRelease < h[j].nextRelease
	}
	return h[i].id < h[j].id
}

func (h releaseHeap) swap(i, j int) {
	h[i], h[j] = h[j], h[i]
	h[i].relIdx = i
	h[j].relIdx = j
}

func (h releaseHeap) up(i int) {
	for i > 0 {
		p := (i - 1) / 2
		if !h.before(i, p) {
			return
		}
		h.swap(i, p)
		i = p
	}
}

// down restores the heap property below position i after the key at
// i increased (a released task's next release only moves later).
func (h releaseHeap) down(i int) {
	for {
		l, r := 2*i+1, 2*i+2
		m := i
		if l < len(h) && h.before(l, m) {
			m = l
		}
		if r < len(h) && h.before(r, m) {
			m = r
		}
		if m == i {
			return
		}
		h.swap(i, m)
		i = m
	}
}

func (h *releaseHeap) push(pt *preTask) {
	pt.relIdx = len(*h)
	*h = append(*h, pt)
	h.up(pt.relIdx)
}

// remove deletes pt, which must be in the heap.
func (h *releaseHeap) remove(pt *preTask) {
	i, last := pt.relIdx, len(*h)-1
	if i != last {
		h.swap(i, last)
	}
	(*h)[last] = nil
	*h = (*h)[:last]
	pt.relIdx = -1
	if i < last {
		h.down(i)
		h.up(i)
	}
}

// serverState is the run-time state of one periodic server.
type serverState struct {
	cfg      task.Server
	budget   slot.Time
	deadline slot.Time // absolute deadline of the current period
}

// delivery is a job travelling the request path toward its pool.
type delivery struct {
	at  slot.Time
	job *task.Job
}

// Manager is one device's virtualization manager. It implements
// sim.Stepper: call Step exactly once per slot.
type Manager struct {
	cfg     Config
	pools   []*Pool
	servers []*serverState
	// P-channel registry: pre holds every pre-defined task sorted by
	// id (lookup, deterministic iteration). Started tasks sit in the
	// release heap; a task loaded since the last Step waits on
	// unstarted until that Step fast-forwards its first release. busy
	// holds the tasks with pending jobs, in no particular order.
	pre       []*preTask
	rel       releaseHeap
	unstarted []*preTask
	busy      []*preTask
	inbox     *queue.FIFO[delivery]
	stats     Stats
	vmStats   []VMStats
	lastJob   *task.Job
	adm       *admission

	// OnComplete, when non-nil, receives every finished job after the
	// response path: at is the slot at which the requester observes
	// completion. The job's Finish field holds the raw execution
	// completion; deadline accounting uses at.
	OnComplete func(j *task.Job, at slot.Time)
	// OnExecute, when non-nil, is called for every slot granted to a
	// job (both channels) before the slot executes. Used by tracing.
	OnExecute func(now slot.Time, j *task.Job)
}

// New builds a manager. Servers are required in ServerEDF mode and
// must reference VMs within range, at most one per VM.
func New(cfg Config) (*Manager, error) {
	if cfg.VMs <= 0 {
		return nil, errors.New("hypervisor: need at least one VM")
	}
	if cfg.Table == nil {
		cfg.Table = slot.NewTable(1)
	}
	if cfg.ReqLatency < 0 || cfg.RespLatency < 0 {
		return nil, errors.New("hypervisor: negative path latency")
	}
	m := &Manager{
		cfg:   cfg,
		inbox: queue.NewFIFO[delivery](0),
	}
	m.vmStats = make([]VMStats, cfg.VMs)
	for vm := 0; vm < cfg.VMs; vm++ {
		m.pools = append(m.pools, NewPool(vm, cfg.PoolCapacity))
	}
	if cfg.Mode == ServerEDF {
		seen := make(map[int]bool)
		for _, s := range cfg.Servers {
			if err := s.Validate(); err != nil {
				return nil, err
			}
			if s.VM >= cfg.VMs {
				return nil, fmt.Errorf("hypervisor: server for vm %d out of range (%d VMs)", s.VM, cfg.VMs)
			}
			if seen[s.VM] {
				return nil, fmt.Errorf("hypervisor: duplicate server for vm %d", s.VM)
			}
			seen[s.VM] = true
			m.servers = append(m.servers, &serverState{cfg: s, budget: s.Budget, deadline: s.Period})
		}
		sort.Slice(m.servers, func(i, j int) bool { return m.servers[i].cfg.VM < m.servers[j].cfg.VM })
	}
	return m, nil
}

// Config returns the manager's configuration.
func (m *Manager) Config() Config { return m.cfg }

// Stats returns a snapshot of the execution counters.
func (m *Manager) Stats() Stats { return m.stats }

// BankBytes estimates the P-channel memory-bank usage: the Time Slot
// Table entries plus each pre-defined task's descriptor and timing
// record (task parameters, start times, WCET — the "timing
// information" of Sec. III-A). Feeds the RAM column of the hardware
// model.
func (m *Manager) BankBytes() int {
	const (
		tableEntryBytes = 2  // task id per slot
		descriptorBytes = 32 // period, wcet, deadline, offset, device op
	)
	return m.cfg.Table.Len()*tableEntryBytes + len(m.pre)*descriptorBytes
}

// VMStats returns one VM's R-channel counters.
func (m *Manager) VMStats(vm int) (VMStats, error) {
	if vm < 0 || vm >= len(m.vmStats) {
		return VMStats{}, fmt.Errorf("hypervisor: vm %d out of range", vm)
	}
	return m.vmStats[vm], nil
}

// Pool returns the I/O pool of the given VM.
func (m *Manager) Pool(vm int) (*Pool, error) {
	if vm < 0 || vm >= len(m.pools) {
		return nil, fmt.Errorf("hypervisor: vm %d out of range", vm)
	}
	return m.pools[vm], nil
}

// Preload registers a pre-defined task with the P-channel. The task
// must already own slots in the manager's Time Slot Table under id
// (built with slot.Build); the manager releases its jobs periodically
// from offset and executes them in the owned slots.
func (m *Manager) Preload(spec *task.Sporadic, id slot.TaskID, offset slot.Time) error {
	if err := spec.Validate(); err != nil {
		return err
	}
	i, dup := m.preIndex(id)
	if dup {
		return fmt.Errorf("hypervisor: pre-defined task %d already loaded", id)
	}
	owned := m.cfg.Table.OwnedRuns(id)
	if len(owned) == 0 {
		return fmt.Errorf("hypervisor: task %d owns no slot in the table", id)
	}
	pt := &preTask{
		spec:        spec,
		id:          id,
		offset:      offset,
		nextRelease: offset,
		pending:     queue.NewFIFO[*task.Job](0),
		owned:       owned,
		relIdx:      -1,
		busyIdx:     -1,
	}
	m.pre = slices.Insert(m.pre, i, pt)
	m.unstarted = append(m.unstarted, pt)
	return nil
}

// preIndex binary-searches the id-sorted registry: the position of id,
// or where it would be inserted, and whether it is loaded.
func (m *Manager) preIndex(id slot.TaskID) (int, bool) {
	i := sort.Search(len(m.pre), func(k int) bool { return m.pre[k].id >= id })
	return i, i < len(m.pre) && m.pre[i].id == id
}

// lookupPre returns the loaded pre-defined task with the given id, or
// nil.
func (m *Manager) lookupPre(id slot.TaskID) *preTask {
	if i, ok := m.preIndex(id); ok {
		return m.pre[i]
	}
	return nil
}

// setBusy keeps the busy list in step with pt's backlog after a push
// or pop on pt.pending.
func (m *Manager) setBusy(pt *preTask) {
	switch busy := pt.pending.Len() > 0; {
	case busy && pt.busyIdx < 0:
		pt.busyIdx = len(m.busy)
		m.busy = append(m.busy, pt)
	case !busy && pt.busyIdx >= 0:
		last := len(m.busy) - 1
		moved := m.busy[last]
		m.busy[pt.busyIdx] = moved
		moved.busyIdx = pt.busyIdx
		m.busy[last] = nil
		m.busy = m.busy[:last]
		pt.busyIdx = -1
	}
}

// Submit hands a run-time I/O job to the hypervisor at slot now. The
// job reaches its VM's pool after the bounded request path latency.
// Jobs for out-of-range VMs are dropped and counted.
func (m *Manager) Submit(now slot.Time, j *task.Job) {
	if j.Task.VM < 0 || j.Task.VM >= len(m.pools) {
		m.stats.Dropped++
		return
	}
	if !m.admitted(j) {
		m.stats.Dropped++
		return
	}
	m.inbox.Push(delivery{at: now + m.cfg.ReqLatency, job: j})
}

// PendingJobs visits every job currently buffered anywhere in the
// manager (pools, request path, P-channel backlog).
func (m *Manager) PendingJobs(visit func(j *task.Job)) {
	for _, p := range m.pools {
		p.Each(visit)
	}
	m.inbox.Each(func(d delivery) { visit(d.job) })
	for _, pt := range m.pre {
		pt.pending.Each(func(j *task.Job) { visit(j) })
	}
}

// Step advances the manager one slot:
//  1. deliver due request-path jobs into their pools, refreshing each
//     admitting pool's shadow register (L-Sched),
//  2. release due jobs of pre-defined tasks,
//  3. replenish server budgets at period boundaries,
//  4. run the executor for this slot (P-channel owner or G-Sched pick).
//
// Pools and pre-defined tasks with nothing due this slot are not
// touched: a shadow register changes only when its pool's queue does
// (here on admission, in Pool.Remove on completion), and the release
// heap yields only the tasks whose release is due.
func (m *Manager) Step(now slot.Time) {
	for {
		d, ok := m.inbox.Peek()
		if !ok || d.at > now {
			break
		}
		m.inbox.Pop()
		p := m.pools[d.job.Task.VM]
		if p.Admit(d.job) {
			p.Schedule()
			m.vmStats[d.job.Task.VM].Admitted++
		} else {
			m.stats.Dropped++
			m.vmStats[d.job.Task.VM].Dropped++
		}
	}
	for _, pt := range m.unstarted {
		pt.nextRelease = pt.firstRelease(now)
		m.rel.push(pt)
	}
	clear(m.unstarted)
	m.unstarted = m.unstarted[:0]
	for len(m.rel) > 0 && m.rel[0].nextRelease <= now {
		pt := m.rel[0]
		for pt.nextRelease <= now {
			pt.pending.Push(task.NewJob(pt.spec, pt.seq, pt.nextRelease))
			pt.seq++
			pt.nextRelease += pt.spec.Period
		}
		m.rel.down(0)
		m.setBusy(pt)
	}
	for _, s := range m.servers {
		if now%s.cfg.Period == 0 {
			s.budget = s.cfg.Budget
			s.deadline = now + s.cfg.Period
		}
	}
	m.execute(now)
}

// execute grants this slot to at most one job.
func (m *Manager) execute(now slot.Time) {
	if owner := m.cfg.Table.Owner(now); owner != slot.Free {
		if pt := m.lookupPre(owner); pt != nil {
			if j, ok := pt.pending.Peek(); ok {
				m.runPre(now, pt, j)
				return
			}
		}
		// Owned slot with no pending work.
		if !m.cfg.WorkConserving {
			m.stats.PSlotsIdle++
			m.lastJob = nil
			return
		}
		if m.runRChannel(now) {
			m.stats.Reclaimed++
		} else {
			m.stats.PSlotsIdle++
		}
		return
	}
	if !m.runRChannel(now) {
		m.stats.SlotsIdle++
	}
}

// runPre executes one slot of a P-channel job.
func (m *Manager) runPre(now slot.Time, pt *preTask, j *task.Job) {
	m.account(j)
	m.notifyExecute(now, j)
	j.Tick(now)
	m.stats.PSlotsUsed++
	if j.Done() {
		pt.pending.Pop()
		m.setBusy(pt)
		m.complete(j)
	}
}

// runRChannel lets the global scheduler grant the slot to one VM's
// shadow-register job. It reports whether any job ran.
func (m *Manager) runRChannel(now slot.Time) bool {
	var pick *Pool
	switch m.cfg.Mode {
	case ServerEDF:
		// Strict polling periodic server: the slot belongs to the
		// earliest-deadline server with remaining budget, and the
		// budget drains whether or not the VM has pending work. This
		// realizes exactly the periodic resource model of Sec. IV-B
		// (supply to VM i = the slots where Γi is scheduled), keeping
		// the simulation inside the analysis' guarantees. A deferring
		// or slot-stealing variant would be more work-conserving but
		// voids Theorems 1/3 in corner cases.
		var best *serverState
		for _, s := range m.servers {
			if s.budget <= 0 {
				continue
			}
			if best == nil || s.deadline < best.deadline {
				best = s
			}
		}
		if best == nil {
			return false
		}
		best.budget--
		if _, _, ok := m.pools[best.cfg.VM].Shadow(); !ok {
			return false // the granted VM is idle; its slot is wasted
		}
		pick = m.pools[best.cfg.VM]
	case DirectEDF:
		bestD := slot.Never
		for _, p := range m.pools {
			d, _, ok := p.Shadow()
			if !ok {
				continue
			}
			if d < bestD {
				bestD = d
				pick = p
			}
		}
		if pick == nil {
			return false
		}
	}
	_, j, _ := pick.Shadow()
	m.account(j)
	m.notifyExecute(now, j)
	j.Tick(now)
	m.stats.RSlotsUsed++
	m.vmStats[pick.VM()].SlotsUsed++
	if j.Done() {
		if err := pick.Remove(j); err != nil {
			panic(err) // invariant: shadow job is always pool-resident
		}
		m.vmStats[pick.VM()].Completed++
		m.complete(j)
	}
	return true
}

// NextWork implements the sim.Quiescer protocol: the earliest slot ≥
// now at which the manager must be stepped, assuming all earlier slots
// were stepped. The manager is busy (returns now) whenever a pool or a
// due delivery holds R-channel work; a pending P-channel job only
// pins its task's next owned table slot (it cannot execute anywhere
// else). The remaining candidates are the request path's head
// delivery, the earliest pre-defined release (the release heap's
// head, or the first release of a task loaded since the last Step),
// and — in ServerEDF mode — the next server period boundary
// (replenishment mutates budgets and deadlines) plus, while any budget
// remains, the next slot that would drain it. The bound is
// conservative, never optimistic: fast-forwarding on it is invisible
// in the execution results.
func (m *Manager) NextWork(now slot.Time) slot.Time {
	if d, ok := m.inbox.Peek(); ok && d.at <= now {
		return now
	}
	for _, p := range m.pools {
		if p.Len() > 0 {
			return now
		}
	}
	next := slot.Never
	// The inbox is FIFO over monotone delivery times, so its head is
	// the earliest future delivery.
	if d, ok := m.inbox.Peek(); ok && d.at < next {
		next = d.at
	}
	h := slot.Time(m.cfg.Table.Len())
	for _, pt := range m.busy {
		// A pending P-channel job executes only in slots its task
		// owns; the manager next touches it at the first such slot.
		no := pt.nextOwned(now, h)
		if no <= now {
			return now
		}
		if no < next {
			next = no
		}
	}
	if len(m.rel) > 0 {
		nr := m.rel[0].nextRelease
		if nr <= now {
			return now
		}
		if nr < next {
			next = nr
		}
	}
	for _, pt := range m.unstarted {
		// Mirror Step's start-up fast-forward without mutating.
		nr := pt.firstRelease(now)
		if nr <= now {
			return now
		}
		if nr < next {
			next = nr
		}
	}
	for _, s := range m.servers {
		// Replenishment fires only in a Step at the boundary slot, so
		// boundaries may never be skipped.
		if now%s.cfg.Period == 0 {
			return now
		}
		if b := (now/s.cfg.Period + 1) * s.cfg.Period; b < next {
			next = b
		}
		if s.budget > 0 {
			// Strict polling servers drain budget on every slot the
			// R-channel could be granted, pending work or not: free
			// slots always, and reclaimed table slots when
			// work-conserving.
			if m.cfg.WorkConserving {
				return now
			}
			nf := now
			if m.cfg.Table.Len() > 0 {
				nf = m.cfg.Table.NextFree(now)
			}
			if nf <= now {
				return now
			}
			if nf < next {
				next = nf
			}
		}
	}
	return next
}

// SkipTo accounts a fast-forwarded span [from, to) in bulk. The
// engine only skips slots NextWork declared idle, so per-slot
// execution state cannot change across the span; what remains is the
// idle bookkeeping Step would have done: free slots count as
// SlotsIdle, table-owned slots as PSlotsIdle, and (non-work-conserving
// only) an owned idle slot resets the preemption tracker exactly as
// execute() does densely.
func (m *Manager) SkipTo(from, to slot.Time) {
	span := to - from
	if span <= 0 {
		return
	}
	free := span
	if m.cfg.Table.Len() > 0 {
		free = m.cfg.Table.FreeIn(from, span)
	}
	m.stats.SlotsIdle += int64(free)
	owned := span - free
	m.stats.PSlotsIdle += int64(owned)
	if owned > 0 && !m.cfg.WorkConserving {
		m.lastJob = nil
	}
}

// account tracks preemptions: a switch away from an unfinished job.
func (m *Manager) account(j *task.Job) {
	if m.lastJob != nil && m.lastJob != j && !m.lastJob.Done() {
		m.stats.Preemptions++
	}
	m.lastJob = j
}

// notifyExecute fires the tracing hook for one granted slot.
func (m *Manager) notifyExecute(now slot.Time, j *task.Job) {
	if m.OnExecute != nil {
		m.OnExecute(now, j)
	}
}

// complete retires a finished job through the response path.
func (m *Manager) complete(j *task.Job) {
	m.stats.Completed++
	m.stats.BytesServed += int64(j.Task.OpBytes)
	if m.OnComplete != nil {
		m.OnComplete(j, j.Finish+m.cfg.RespLatency)
	}
}
