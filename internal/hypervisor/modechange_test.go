package hypervisor

import (
	"testing"

	"ioguard/internal/slot"
	"ioguard/internal/task"
)

func TestLoadPreAtRuntime(t *testing.T) {
	m, err := New(Config{VMs: 1, Table: slot.NewTable(16), Mode: DirectEDF})
	if err != nil {
		t.Fatal(err)
	}
	var log completionLog
	m.OnComplete = log.hook()
	// Run a while with an empty system.
	for now := slot.Time(0); now < 20; now++ {
		m.Step(now)
	}
	spec := &task.Sporadic{ID: 1, Name: "hot", VM: 0, Period: 8, WCET: 2, Deadline: 8}
	if err := m.LoadPre(20, spec, 0, 0); err != nil {
		t.Fatal(err)
	}
	for now := slot.Time(20); now < 100; now++ {
		m.Step(now)
	}
	// Releases resume at the next aligned point (24, 32, ...): the
	// task must not back-fill jobs from slots 0-16.
	if len(log.jobs) == 0 {
		t.Fatal("hot-loaded task never ran")
	}
	if log.jobs[0].Release < 20 {
		t.Errorf("first release %d back-filled before load time", log.jobs[0].Release)
	}
	if log.misses() != 0 {
		t.Errorf("hot-loaded task missed %d deadlines", log.misses())
	}
}

// TestLoadPreByNextWorkJumps loads a task into a manager driven only by
// NextWork jumps, the way system.Run steps a shard: nothing steps the
// slots between the load and the first release. That release is the
// first table-aligned one at or after the load slot, NextWork names it
// exactly, and the job runs to completion without a dense step.
func TestLoadPreByNextWorkJumps(t *testing.T) {
	cases := []struct {
		load, offset, period, want slot.Time
	}{
		{load: 0, offset: 7, period: 16, want: 7},
		{load: 5, offset: 0, period: 16, want: 16},
		{load: 16, offset: 0, period: 16, want: 16},
		{load: 17, offset: 3, period: 8, want: 19},
		{load: 100, offset: 4, period: 16, want: 100},
		{load: 101, offset: 4, period: 16, want: 116},
	}
	for _, tc := range cases {
		m, err := New(Config{VMs: 1, Table: slot.NewTable(48), Mode: DirectEDF})
		if err != nil {
			t.Fatal(err)
		}
		var log completionLog
		m.OnComplete = log.hook()
		m.Step(0)
		if nw := m.NextWork(1); nw != slot.Never {
			t.Fatalf("load at %d: empty manager NextWork = %d, want Never", tc.load, nw)
		}
		spec := &task.Sporadic{ID: 1, Name: "hot", VM: 0, Period: tc.period, WCET: 2, Deadline: tc.period}
		if err := m.LoadPre(tc.load, spec, 0, tc.offset); err != nil {
			t.Fatal(err)
		}
		if nw := m.NextWork(tc.load); nw != tc.want {
			t.Fatalf("load at %d: NextWork = %d, want first release %d", tc.load, nw, tc.want)
		}
		steps := 0
		for now := tc.want; len(log.jobs) == 0 && now < tc.want+tc.period; now = max(m.NextWork(now+1), now+1) {
			m.Step(now)
			steps++
		}
		if len(log.jobs) == 0 {
			t.Fatalf("load at %d: first job never completed", tc.load)
		}
		if got := log.jobs[0].Release; got != tc.want {
			t.Errorf("load at %d: first release %d, want %d", tc.load, got, tc.want)
		}
		if steps > 2*int(spec.WCET) {
			t.Errorf("load at %d: %d steps to finish a %d-slot job", tc.load, steps, spec.WCET)
		}
	}
}

func TestLoadPreRejectsConflicts(t *testing.T) {
	tab := slot.NewTable(16)
	m, _ := New(Config{VMs: 1, Table: tab, Mode: DirectEDF})
	spec := &task.Sporadic{ID: 1, VM: 0, Period: 8, WCET: 2, Deadline: 8}
	if err := m.LoadPre(0, spec, 0, 0); err != nil {
		t.Fatal(err)
	}
	if err := m.LoadPre(0, spec, 0, 0); err == nil {
		t.Error("duplicate id accepted")
	}
	bad := &task.Sporadic{ID: 2, VM: 0, Period: 0, WCET: 1, Deadline: 1}
	if err := m.LoadPre(0, bad, 1, 0); err == nil {
		t.Error("invalid spec accepted")
	}
	odd := &task.Sporadic{ID: 3, VM: 0, Period: 5, WCET: 1, Deadline: 5}
	if err := m.LoadPre(0, odd, 2, 0); err == nil {
		t.Error("non-dividing period accepted")
	}
	// Fill the remaining bandwidth so the next allocation fails and
	// must not leak slots.
	hog := &task.Sporadic{ID: 4, VM: 0, Period: 8, WCET: 6, Deadline: 8}
	if err := m.LoadPre(0, hog, 3, 0); err != nil {
		t.Fatal(err)
	}
	free := tab.FreeCount()
	full := &task.Sporadic{ID: 5, VM: 0, Period: 8, WCET: 2, Deadline: 8}
	if err := m.LoadPre(0, full, 4, 0); err == nil {
		t.Error("infeasible load accepted")
	}
	if tab.FreeCount() != free {
		t.Errorf("failed load leaked table slots: %d → %d", free, tab.FreeCount())
	}
}

func TestUnloadPreFreesEverything(t *testing.T) {
	tab := slot.NewTable(16)
	m, _ := New(Config{VMs: 1, Table: tab, Mode: DirectEDF})
	spec := &task.Sporadic{ID: 1, VM: 0, Period: 8, WCET: 4, Deadline: 8}
	if err := m.LoadPre(0, spec, 0, 0); err != nil {
		t.Fatal(err)
	}
	m.Step(0) // release one job
	if err := m.UnloadPre(0); err != nil {
		t.Fatal(err)
	}
	if tab.FreeCount() != 16 {
		t.Errorf("table not fully freed: %d", tab.FreeCount())
	}
	n := 0
	m.PendingJobs(func(*task.Job) { n++ })
	if n != 0 {
		t.Errorf("pending jobs leaked: %d", n)
	}
	if err := m.UnloadPre(0); err == nil {
		t.Error("double unload accepted")
	}
	// The freed slots are immediately available to the R-channel.
	rt := &task.Sporadic{ID: 9, VM: 0, Period: 100, WCET: 4, Deadline: 100}
	var log completionLog
	m.OnComplete = log.hook()
	m.Submit(1, task.NewJob(rt, 0, 1))
	for now := slot.Time(1); now < 10; now++ {
		m.Step(now)
	}
	if len(log.jobs) != 1 {
		t.Error("R-channel did not reclaim the freed slots")
	}
}

// TestUnloadPreCountsDroppedJobs is the drop-accounting regression
// test: retiring a task with queued jobs is a loss event, so both the
// manager-wide and the per-VM Dropped counters must cover every
// discarded pending job. On the pre-fix code the drain loop threw the
// jobs away silently and this test fails.
func TestUnloadPreCountsDroppedJobs(t *testing.T) {
	tab := slot.NewTable(16)
	m, _ := New(Config{VMs: 1, Table: tab, Mode: DirectEDF})
	spec := &task.Sporadic{ID: 1, Name: "doomed", VM: 0, Period: 16, WCET: 2, Deadline: 16}
	if err := m.LoadPre(0, spec, 0, 0); err != nil {
		t.Fatal(err)
	}
	// Step slot 0 to release the first job, then starve the P-channel
	// by never stepping a slot the task owns: jobs accumulate in the
	// pending queue and can never finish (WCET 2, at most one tick).
	m.Step(0)
	for now := slot.Time(1); now < 34; now++ {
		if tab.Owner(now) == 0 {
			continue
		}
		m.Step(now)
	}
	pending := 0
	m.PendingJobs(func(*task.Job) { pending++ })
	if pending != 2 {
		t.Fatalf("setup: %d pending jobs, want 2 (releases at 0 and 16)", pending)
	}
	if got := m.Stats(); got.Dropped != 0 || got.Completed != 0 {
		t.Fatalf("setup: dropped=%d completed=%d before unload", got.Dropped, got.Completed)
	}
	if err := m.UnloadPre(0); err != nil {
		t.Fatal(err)
	}
	if got := m.Stats().Dropped; got != int64(pending) {
		t.Errorf("Stats().Dropped = %d after unload, want %d (every discarded pending job)", got, pending)
	}
	vs, err := m.VMStats(0)
	if err != nil {
		t.Fatal(err)
	}
	if vs.Dropped != int64(pending) {
		t.Errorf("VMStats(0).Dropped = %d after unload, want %d", vs.Dropped, pending)
	}
	left := 0
	m.PendingJobs(func(*task.Job) { left++ })
	if left != 0 {
		t.Errorf("%d pending jobs survived the unload", left)
	}
}

// TestReloadRecyclesTaskIDCleanly pins the classification of
// completions across a load-unload-reload cycle that immediately
// recycles the TaskID: completions stay attributed to the *Sporadic
// that released them (jobs hold the spec pointer, not the table id),
// the retired task's discarded job is counted as dropped and never
// surfaces as a completion, and the reloaded task neither back-fills
// releases nor inherits its predecessor's backlog.
func TestReloadRecyclesTaskIDCleanly(t *testing.T) {
	tab := slot.NewTable(16)
	m, _ := New(Config{VMs: 1, Table: tab, Mode: DirectEDF})
	var log completionLog
	m.OnComplete = log.hook()
	alpha := &task.Sporadic{ID: 1, Name: "alpha", VM: 0, Period: 8, WCET: 2, Deadline: 8}
	if err := m.LoadPre(0, alpha, 0, 0); err != nil {
		t.Fatal(err)
	}
	for now := slot.Time(0); now < 16; now++ {
		m.Step(now)
	}
	alphaDone := len(log.jobs)
	if alphaDone != 2 {
		t.Fatalf("alpha completed %d jobs in one hyper-period, want 2", alphaDone)
	}
	// Slot 16 releases alpha's third job (WCET 2: one tick at most, so
	// it is still pending) — unload with that job in flight.
	m.Step(16)
	if err := m.UnloadPre(0); err != nil {
		t.Fatal(err)
	}
	if err := tab.CheckInvariants(); err != nil {
		t.Fatalf("table after unload: %v", err)
	}
	if got := m.Stats().Dropped; got != 1 {
		t.Fatalf("Stats().Dropped = %d, want 1 (alpha's in-flight job)", got)
	}
	// Recycle TaskID 0 immediately for a different spec.
	beta := &task.Sporadic{ID: 2, Name: "beta", VM: 0, Period: 16, WCET: 4, Deadline: 16}
	if err := m.LoadPre(17, beta, 0, 0); err != nil {
		t.Fatal(err)
	}
	if err := tab.CheckInvariants(); err != nil {
		t.Fatalf("table after reload: %v", err)
	}
	for now := slot.Time(17); now < 64; now++ {
		m.Step(now)
	}
	var alphaAfter, betaDone int
	for i, j := range log.jobs {
		switch j.Task {
		case alpha:
			if i >= alphaDone {
				alphaAfter++
			}
		case beta:
			betaDone++
			if j.Release < 17 {
				t.Errorf("beta release %d back-filled from before its load", j.Release)
			}
		default:
			t.Errorf("completion %d attributed to unknown spec %q", i, j.Task.Name)
		}
	}
	if alphaAfter != 0 {
		t.Errorf("%d completions attributed to the retired alpha after its unload", alphaAfter)
	}
	if betaDone == 0 {
		t.Error("recycled TaskID never completed a beta job")
	}
	if got := m.Stats(); got.Completed != int64(len(log.jobs)) {
		t.Errorf("Stats().Completed = %d, log has %d", got.Completed, len(log.jobs))
	}
	if log.misses() != 0 {
		t.Errorf("%d deadline misses across the reload cycle", log.misses())
	}
}

// TestModeChangeUnderLoad drives a GearV/T-Visor-style criticality
// switch on a live manager: R-channel traffic flows throughout while a
// second pre-defined task is hot-loaded, retired, and hot-loaded again
// with a different spec under the same TaskID. The table must pass the
// structural audit after every mode change, no run-time job may be
// lost, and the table must return to the base allocation at the end.
func TestModeChangeUnderLoad(t *testing.T) {
	tab := slot.NewTable(32)
	m, _ := New(Config{VMs: 2, Table: tab, Mode: DirectEDF})
	var log completionLog
	m.OnComplete = log.hook()
	base := &task.Sporadic{ID: 1, Name: "base", VM: 0, Period: 16, WCET: 2, Deadline: 16}
	if err := m.LoadPre(0, base, 0, 0); err != nil {
		t.Fatal(err)
	}
	baseFree := tab.FreeCount()
	rt := &task.Sporadic{ID: 10, Name: "rt", VM: 1, Period: 100, WCET: 1, Deadline: 100}
	hiA := &task.Sporadic{ID: 2, Name: "hi-a", VM: 0, Period: 16, WCET: 4, Deadline: 16}
	hiB := &task.Sporadic{ID: 3, Name: "hi-b", VM: 1, Period: 32, WCET: 6, Deadline: 32}
	submitted := 0
	for now := slot.Time(0); now < 200; now++ {
		switch now {
		case 40:
			if err := m.LoadPre(now, hiA, 1, 0); err != nil {
				t.Fatalf("slot %d: %v", now, err)
			}
		case 96:
			if err := m.UnloadPre(1); err != nil {
				t.Fatalf("slot %d: %v", now, err)
			}
		case 120:
			if err := m.LoadPre(now, hiB, 1, 0); err != nil {
				t.Fatalf("slot %d: %v", now, err)
			}
		}
		if now == 40 || now == 96 || now == 120 {
			if err := tab.CheckInvariants(); err != nil {
				t.Fatalf("table after mode change at slot %d: %v", now, err)
			}
		}
		if now%8 == 3 && now < 160 {
			m.Submit(now, task.NewJob(rt, submitted, now))
			submitted++
		}
		m.Step(now)
	}
	if err := m.UnloadPre(1); err != nil {
		t.Fatal(err)
	}
	if err := tab.CheckInvariants(); err != nil {
		t.Fatalf("table after final unload: %v", err)
	}
	if tab.FreeCount() != baseFree {
		t.Errorf("free slots %d after retiring the hot tasks, want %d", tab.FreeCount(), baseFree)
	}
	rtDone := 0
	for _, j := range log.jobs {
		if j.Task == rt {
			rtDone++
		}
	}
	if rtDone != submitted {
		t.Errorf("R-channel completed %d of %d submitted jobs across the mode changes", rtDone, submitted)
	}
	if log.misses() != 0 {
		t.Errorf("%d deadline misses under mode changes", log.misses())
	}
}

func TestModeChangeCycle(t *testing.T) {
	// Load/unload repeatedly; table must return to fully free.
	tab := slot.NewTable(32)
	m, _ := New(Config{VMs: 1, Table: tab, Mode: DirectEDF})
	for cycle := 0; cycle < 10; cycle++ {
		spec := &task.Sporadic{ID: cycle, VM: 0, Period: 16, WCET: 3, Deadline: 16}
		if err := m.LoadPre(0, spec, slot.TaskID(cycle), slot.Time(cycle)%16); err != nil {
			t.Fatalf("cycle %d: %v", cycle, err)
		}
		if err := m.UnloadPre(slot.TaskID(cycle)); err != nil {
			t.Fatalf("cycle %d: %v", cycle, err)
		}
	}
	if tab.FreeCount() != 32 {
		t.Errorf("table leaked slots across mode changes: free=%d", tab.FreeCount())
	}
}
