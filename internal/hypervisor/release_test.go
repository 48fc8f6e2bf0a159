package hypervisor

import (
	"fmt"
	"math/rand"
	"slices"
	"testing"

	"ioguard/internal/slot"
	"ioguard/internal/task"
)

// scanPre is the reference P-channel release engine the release heap
// replaced: every slot it walks every loaded task in id order,
// fast-forwarding a task's first release to the slot it is first
// stepped at and then emitting its due jobs. Kept here (test-only) as
// the oracle for the heap-vs-scan property test.
type scanPre struct {
	tasks []*scanTask // id order
}

type scanTask struct {
	id          slot.TaskID
	period      slot.Time
	nextRelease slot.Time
	started     bool
	seq         int
}

// relEvent is one released P-channel job.
type relEvent struct {
	id      slot.TaskID
	seq     int
	release slot.Time
}

func (s *scanPre) load(id slot.TaskID, period, offset slot.Time) {
	i, _ := slices.BinarySearchFunc(s.tasks, id, func(t *scanTask, id slot.TaskID) int { return int(t.id) - int(id) })
	s.tasks = slices.Insert(s.tasks, i, &scanTask{id: id, period: period, nextRelease: offset})
}

func (s *scanPre) unload(id slot.TaskID) {
	s.tasks = slices.DeleteFunc(s.tasks, func(t *scanTask) bool { return t.id == id })
}

func (s *scanPre) step(now slot.Time) []relEvent {
	var out []relEvent
	for _, t := range s.tasks {
		if !t.started {
			for t.nextRelease < now {
				t.nextRelease += t.period
			}
			t.started = true
		}
		for t.nextRelease <= now {
			out = append(out, relEvent{t.id, t.seq, t.nextRelease})
			t.seq++
			t.nextRelease += t.period
		}
	}
	return out
}

// nextRelease is the earliest release at or after now, mirroring the
// start-up fast-forward of a task not yet stepped.
func (s *scanPre) nextRelease(now slot.Time) slot.Time {
	next := slot.Never
	for _, t := range s.tasks {
		nr := t.nextRelease
		if !t.started {
			for nr < now {
				nr += t.period
			}
		}
		if nr < next {
			next = nr
		}
	}
	return next
}

// relOp is one scripted external action, applied between the Step of
// slot at-1 and the NextWork query / Step of slot at.
type relOp struct {
	at     slot.Time
	load   bool // LoadPre (else UnloadPre)
	submit bool // Submit an R-channel job instead
	id     slot.TaskID
	period slot.Time
	wcet   slot.Time
	offset slot.Time
	vm     int
}

const relTableLen = 240

// relPeriods divide relTableLen, as LoadPre requires.
var relPeriods = []slot.Time{8, 12, 16, 20, 24, 30, 40, 48, 60, 80, 120, 240}

// relScenario draws a sparse initial table, the matching preloads, and
// a script of loads, unloads (TaskID recycling included; some unloads
// land on the slot of their load, before the task's first Step) and
// R-channel submissions.
func relScenario(rng *rand.Rand, horizon slot.Time) (reqs []slot.Requirement, ops []relOp) {
	for id := slot.TaskID(0); id < slot.TaskID(2+rng.Intn(4)); id++ {
		p := relPeriods[rng.Intn(len(relPeriods))]
		reqs = append(reqs, slot.Requirement{ID: id, Period: p, WCET: 1 + slot.Time(rng.Intn(2)), Deadline: p, Offset: slot.Time(rng.Intn(int(p)))})
	}
	for at := slot.Time(1); at < horizon; at += 1 + slot.Time(rng.Intn(40)) {
		switch k := rng.Intn(10); {
		case k < 4:
			p := relPeriods[rng.Intn(len(relPeriods))]
			op := relOp{at: at, load: true, id: slot.TaskID(rng.Intn(8)), period: p, wcet: 1 + slot.Time(rng.Intn(3)), offset: slot.Time(rng.Intn(int(p)))}
			ops = append(ops, op)
			if rng.Intn(4) == 0 {
				ops = append(ops, relOp{at: at, id: op.id}) // retire before the first Step
			}
		case k < 8:
			ops = append(ops, relOp{at: at, id: slot.TaskID(rng.Intn(8))})
		default:
			ops = append(ops, relOp{at: at, submit: true, vm: rng.Intn(2), wcet: 1 + slot.Time(rng.Intn(4)), period: 32})
		}
	}
	return reqs, ops
}

// relRun drives one manager through the scenario, densely or by
// NextWork/SkipTo skipping (with the scripted op slots as horizon, the
// way system.Run bounds a shard by its mailbox), checking every
// released job against the scan oracle and the manager's internal
// invariants after every call. It returns the completion log and final
// stats for the dense-vs-skip comparison.
func relRun(t *testing.T, name string, reqs []slot.Requirement, ops []relOp, mode Mode, horizon slot.Time, skip bool) ([]slot.Time, Stats) {
	t.Helper()
	fail := func(format string, args ...any) {
		t.Helper()
		t.Fatalf("%s: %s", name, fmt.Sprintf(format, args...))
	}
	tab := slot.NewTable(relTableLen)
	var loaded []slot.Requirement
	for _, r := range reqs {
		if _, err := tab.AllocatePeriodic(r); err == nil {
			loaded = append(loaded, r)
		}
	}
	cfg := Config{VMs: 2, Table: tab, Mode: mode, ReqLatency: 1}
	if mode == ServerEDF {
		cfg.Servers = []task.Server{{VM: 0, Period: 10, Budget: 2}, {VM: 1, Period: 15, Budget: 3}}
	}
	m, err := New(cfg)
	if err != nil {
		t.Fatal(err)
	}
	var oracle scanPre
	ids := make(map[*task.Sporadic]slot.TaskID)
	seen := make(map[*task.Job]bool)
	var got []relEvent
	note := func(j *task.Job) {
		if id, ok := ids[j.Task]; ok && !seen[j] {
			seen[j] = true
			got = append(got, relEvent{id, j.Seq, j.Release})
		}
	}
	var log []slot.Time
	m.OnComplete = func(j *task.Job, at slot.Time) {
		note(j)
		log = append(log, at)
	}
	gen := 0
	newSpec := func(id slot.TaskID, period, wcet slot.Time, vm int) *task.Sporadic {
		gen++
		return &task.Sporadic{ID: 1000*gen + int(id), Name: "p", VM: vm, Period: period, WCET: wcet, Deadline: period}
	}
	for _, r := range loaded {
		spec := newSpec(r.ID, r.Period, r.WCET, 0)
		if err := m.Preload(spec, r.ID, r.Offset); err != nil {
			t.Fatal(err)
		}
		ids[spec] = r.ID
		oracle.load(r.ID, r.Period, r.Offset)
	}
	rjob := 0
	apply := func(now slot.Time) {
		for _, op := range ops {
			if op.at != now {
				continue
			}
			switch {
			case op.submit:
				spec := newSpec(0, op.period, op.wcet, op.vm)
				m.Submit(now, task.NewJob(spec, rjob, now))
				rjob++
			case op.load:
				spec := newSpec(op.id, op.period, op.wcet, 1)
				if m.LoadPre(spec, op.id, op.offset) == nil {
					ids[spec] = op.id
					oracle.load(op.id, op.period, op.offset)
				}
			default:
				// Everything the task released was observed after the
				// last Step; UnloadPre drops the rest.
				if m.UnloadPre(op.id) == nil {
					oracle.unload(op.id)
				}
			}
			checkRelInvariants(t, name, m)
		}
	}
	nextOp := func(after slot.Time) slot.Time {
		for _, op := range ops {
			if op.at > after {
				return op.at
			}
		}
		return slot.Never
	}
	apply(0)
	for now := slot.Time(0); now < horizon; {
		want := oracle.step(now)
		got = got[:0]
		m.Step(now)
		for _, pt := range m.pre {
			pt.pending.Each(note)
		}
		checkRelInvariants(t, name, m)
		slices.SortFunc(got, func(a, b relEvent) int {
			if a.id != b.id {
				return int(a.id) - int(b.id)
			}
			return a.seq - b.seq
		})
		if !slices.Equal(got, want) {
			fail("slot %d: released %v, scan oracle %v", now, got, want)
		}
		now++
		apply(now)
		if !skip {
			continue
		}
		nw := m.NextWork(now)
		if limit := oracle.nextRelease(now); nw > limit {
			fail("slot %d: NextWork %d is past the oracle's next release %d", now, nw, limit)
		}
		if op := nextOp(now); nw > op {
			nw = op
		}
		if nw > horizon {
			nw = horizon
		}
		if nw > now {
			m.SkipTo(now, nw)
			now = nw
			apply(now)
		}
	}
	return log, m.Stats()
}

// checkRelInvariants asserts the P-channel registry's internal
// consistency: pre is id-sorted, every task is on exactly one of the
// release heap and the not-yet-started list, the heap is ordered with
// correct back-indices, the busy list holds exactly the tasks with
// pending jobs, and every pool's shadow register shows its queue's
// earliest deadline (what a per-slot L-Sched refresh would load).
func checkRelInvariants(t *testing.T, name string, m *Manager) {
	t.Helper()
	for i := 1; i < len(m.pre); i++ {
		if m.pre[i-1].id >= m.pre[i].id {
			t.Fatalf("%s: pre not id-sorted at %d", name, i)
		}
	}
	if len(m.rel)+len(m.unstarted) != len(m.pre) {
		t.Fatalf("%s: %d heap + %d unstarted tasks, %d loaded", name, len(m.rel), len(m.unstarted), len(m.pre))
	}
	for i, pt := range m.rel {
		if m.lookupPre(pt.id) != pt {
			t.Fatalf("%s: heap holds task %d, which is not loaded", name, pt.id)
		}
		if pt.relIdx != i {
			t.Fatalf("%s: task %d at heap %d has relIdx %d", name, pt.id, i, pt.relIdx)
		}
		if i > 0 && m.rel.before(i, (i-1)/2) {
			t.Fatalf("%s: heap order broken at %d", name, i)
		}
	}
	for _, pt := range m.unstarted {
		if m.lookupPre(pt.id) != pt || pt.relIdx != -1 {
			t.Fatalf("%s: unstarted task %d is unloaded or in the heap", name, pt.id)
		}
	}
	busy := 0
	for _, pt := range m.pre {
		if pt.pending.Len() > 0 {
			busy++
			if pt.busyIdx < 0 || pt.busyIdx >= len(m.busy) || m.busy[pt.busyIdx] != pt {
				t.Fatalf("%s: task %d has pending jobs but is not on the busy list", name, pt.id)
			}
		}
	}
	if busy != len(m.busy) {
		t.Fatalf("%s: busy list holds %d tasks, %d have pending jobs", name, len(m.busy), busy)
	}
	for _, p := range m.pools {
		_, key, j, ok := p.pq.Min()
		d, sj, sok := p.Shadow()
		if ok != sok || j != sj || (ok && key != d) {
			t.Fatalf("%s: pool %d shadow (%d, %v, %v), queue min (%d, %v, %v)", name, p.VM(), d, sj, sok, key, j, ok)
		}
	}
}

// TestReleaseHeapVsScan: across random tables and scripts of
// Preload/LoadPre/UnloadPre at random slots (TaskID recycling, tasks
// retired before their first Step, R-channel traffic), the release
// heap must emit exactly the scan oracle's (task, seq, release) jobs
// at exactly the oracle's slots, both stepped densely and driven by
// NextWork/SkipTo. NextWork must never lie past the oracle's next
// release, and the skipping run must end with the dense run's
// completions and stats.
func TestReleaseHeapVsScan(t *testing.T) {
	const horizon = 4 * relTableLen
	for trial := int64(0); trial < 40; trial++ {
		rng := rand.New(rand.NewSource(trial))
		reqs, ops := relScenario(rng, horizon)
		for _, mode := range []Mode{DirectEDF, ServerEDF} {
			name := fmt.Sprintf("trial %d %v", trial, mode)
			denseLog, denseStats := relRun(t, name+" dense", reqs, ops, mode, horizon, false)
			skipLog, skipStats := relRun(t, name+" skip", reqs, ops, mode, horizon, true)
			if !slices.Equal(denseLog, skipLog) {
				t.Fatalf("%s: skipping completions %v, dense %v", name, skipLog, denseLog)
			}
			if denseStats != skipStats {
				t.Fatalf("%s: skipping stats %+v, dense %+v", name, skipStats, denseStats)
			}
		}
	}
}

// TestStepIdleSlotAllocatesNothing pins the event-driven P-channel: a
// Step on a slot with no due release or delivery, and the NextWork
// query after it, allocate nothing whatever the number of preloaded
// tasks.
func TestStepIdleSlotAllocatesNothing(t *testing.T) {
	var reqs []slot.Requirement
	for id := slot.TaskID(0); id < 16; id++ {
		reqs = append(reqs, slot.Requirement{ID: id, Period: 4000, WCET: 1, Deadline: 4000, Offset: slot.Time(id)})
	}
	tab, _, err := slot.Build(reqs)
	if err != nil {
		t.Fatal(err)
	}
	m, err := New(Config{
		VMs: 4, Table: tab, Mode: ServerEDF,
		Servers: []task.Server{{VM: 0, Period: 50, Budget: 5}, {VM: 1, Period: 50, Budget: 5}, {VM: 2, Period: 50, Budget: 5}, {VM: 3, Period: 50, Budget: 5}},
	})
	if err != nil {
		t.Fatal(err)
	}
	for _, r := range reqs {
		spec := &task.Sporadic{ID: int(r.ID), Name: "p", Period: r.Period, WCET: r.WCET, Deadline: r.Deadline}
		if err := m.Preload(spec, r.ID, r.Offset); err != nil {
			t.Fatal(err)
		}
	}
	now := slot.Time(0)
	for ; now < 100; now++ {
		m.Step(now) // release and run every task's first job
	}
	if len(m.busy) != 0 {
		t.Fatalf("%d tasks still pending after warm-up", len(m.busy))
	}
	allocs := testing.AllocsPerRun(100, func() {
		m.Step(now)
		now++
		m.NextWork(now)
	})
	if allocs != 0 {
		t.Fatalf("idle Step+NextWork allocates %.1f times per slot, want 0", allocs)
	}
}
