package hypervisor

import (
	"math/rand"
	"strings"
	"testing"

	"ioguard/internal/analysis"
	"ioguard/internal/slot"
	"ioguard/internal/task"
)

// completionLog collects OnComplete callbacks.
type completionLog struct {
	jobs []*task.Job
	at   []slot.Time
}

func (c *completionLog) hook() func(*task.Job, slot.Time) {
	return func(j *task.Job, at slot.Time) {
		c.jobs = append(c.jobs, j)
		c.at = append(c.at, at)
	}
}

func (c *completionLog) misses() int {
	n := 0
	for i, j := range c.jobs {
		if c.at[i] > j.Deadline {
			n++
		}
	}
	return n
}

func run(m *Manager, until slot.Time) {
	for now := slot.Time(0); now < until; now++ {
		m.Step(now)
	}
}

func TestModeString(t *testing.T) {
	if ServerEDF.String() != "server-edf" || DirectEDF.String() != "direct-edf" {
		t.Error("mode names wrong")
	}
	if !strings.Contains(Mode(9).String(), "9") {
		t.Error("unknown mode should show numerically")
	}
}

func TestNewValidation(t *testing.T) {
	if _, err := New(Config{VMs: 0}); err == nil {
		t.Error("zero VMs accepted")
	}
	if _, err := New(Config{VMs: 1, ReqLatency: -1}); err == nil {
		t.Error("negative latency accepted")
	}
	if _, err := New(Config{VMs: 1, Mode: ServerEDF,
		Servers: []task.Server{{VM: 3, Period: 4, Budget: 1}}}); err == nil {
		t.Error("server for out-of-range VM accepted")
	}
	if _, err := New(Config{VMs: 1, Mode: ServerEDF,
		Servers: []task.Server{{VM: 0, Period: 0, Budget: 1}}}); err == nil {
		t.Error("invalid server accepted")
	}
	if _, err := New(Config{VMs: 2, Mode: ServerEDF, Servers: []task.Server{
		{VM: 0, Period: 4, Budget: 1}, {VM: 0, Period: 8, Budget: 1}}}); err == nil {
		t.Error("duplicate server accepted")
	}
	m, err := New(Config{VMs: 2, Mode: DirectEDF})
	if err != nil {
		t.Fatal(err)
	}
	if m.Config().Table == nil || m.Config().Table.Len() != 1 {
		t.Error("nil table should default to length-1 all-free")
	}
	if _, err := m.Pool(1); err != nil {
		t.Error("pool lookup failed")
	}
	if _, err := m.Pool(5); err == nil {
		t.Error("out-of-range pool lookup accepted")
	}
}

func TestPChannelRunsInOwnedSlots(t *testing.T) {
	// Table of 4 slots: task 0 owns slots 0,1. Pre-defined task
	// (T=4,C=2,D=4) must complete every period exactly on time.
	tab, _, err := slot.Build([]slot.Requirement{{ID: 0, Period: 4, WCET: 2, Deadline: 4}})
	if err != nil {
		t.Fatal(err)
	}
	m, err := New(Config{VMs: 1, Table: tab, Mode: DirectEDF})
	if err != nil {
		t.Fatal(err)
	}
	var log completionLog
	m.OnComplete = log.hook()
	spec := &task.Sporadic{ID: 100, Name: "sensor", VM: 0, Period: 4, WCET: 2, Deadline: 4}
	if err := m.Preload(spec, 0, 0); err != nil {
		t.Fatal(err)
	}
	run(m, 16)
	if len(log.jobs) != 4 {
		t.Fatalf("completions = %d, want 4", len(log.jobs))
	}
	if log.misses() != 0 {
		t.Errorf("P-channel tasks missed deadlines: %v", log.at)
	}
	// Each job completes at the end of its 2nd slot: releases 0,4,8,12
	// complete at 2,6,10,14.
	for i, at := range log.at {
		want := slot.Time(4*i + 2)
		if at != want {
			t.Errorf("job %d completed at %d, want %d", i, at, want)
		}
	}
	st := m.Stats()
	if st.PSlotsUsed != 8 {
		t.Errorf("PSlotsUsed = %d, want 8", st.PSlotsUsed)
	}
}

func TestPreloadValidation(t *testing.T) {
	tab, _, _ := slot.Build([]slot.Requirement{{ID: 0, Period: 4, WCET: 1, Deadline: 4}})
	m, _ := New(Config{VMs: 1, Table: tab})
	bad := &task.Sporadic{ID: 1, Period: 0, WCET: 1, Deadline: 1}
	if err := m.Preload(bad, 0, 0); err == nil {
		t.Error("invalid spec accepted")
	}
	spec := &task.Sporadic{ID: 1, VM: 0, Period: 4, WCET: 1, Deadline: 4}
	if err := m.Preload(spec, 7, 0); err == nil {
		t.Error("task with no owned slots accepted")
	}
	if err := m.Preload(spec, 0, 0); err != nil {
		t.Fatal(err)
	}
	if err := m.Preload(spec, 0, 0); err == nil {
		t.Error("duplicate preload accepted")
	}
}

func TestDirectEDFOrdering(t *testing.T) {
	// Two VMs, all-free table, direct EDF: the later-submitted but
	// earlier-deadline job must preempt.
	m, _ := New(Config{VMs: 2, Mode: DirectEDF})
	var log completionLog
	m.OnComplete = log.hook()
	long := &task.Sporadic{ID: 0, VM: 0, Period: 100, WCET: 10, Deadline: 50}
	short := &task.Sporadic{ID: 1, VM: 1, Period: 100, WCET: 2, Deadline: 10}
	jLong := task.NewJob(long, 0, 0)
	m.Submit(0, jLong)
	var jShort *task.Job
	for now := slot.Time(0); now < 40; now++ {
		if now == 3 {
			jShort = task.NewJob(short, 0, now)
			m.Submit(now, jShort)
		}
		m.Step(now)
	}
	if len(log.jobs) != 2 {
		t.Fatalf("completions = %d, want 2", len(log.jobs))
	}
	if log.jobs[0] != jShort {
		t.Error("short-deadline job should finish first (preemption)")
	}
	// Short arrives at slot 3, runs 3,4 → finishes at 5.
	if log.at[0] != 5 {
		t.Errorf("short finished at %d, want 5", log.at[0])
	}
	// Long: 3 slots before preemption + 7 after → finishes at 12.
	if log.at[1] != 12 {
		t.Errorf("long finished at %d, want 12", log.at[1])
	}
	if m.Stats().Preemptions != 1 {
		t.Errorf("preemptions = %d, want 1", m.Stats().Preemptions)
	}
}

func TestRequestAndResponseLatency(t *testing.T) {
	m, _ := New(Config{VMs: 1, Mode: DirectEDF, ReqLatency: 3, RespLatency: 2})
	var log completionLog
	m.OnComplete = log.hook()
	tk := &task.Sporadic{ID: 0, VM: 0, Period: 100, WCET: 1, Deadline: 100}
	m.Submit(0, task.NewJob(tk, 0, 0))
	run(m, 10)
	if len(log.jobs) != 1 {
		t.Fatalf("completions = %d", len(log.jobs))
	}
	// Submitted at 0, enters pool at 3, runs slot 3, finishes at 4,
	// observed at 4+2=6.
	if log.at[0] != 6 {
		t.Errorf("observed completion at %d, want 6", log.at[0])
	}
}

func TestSubmitOutOfRangeVM(t *testing.T) {
	m, _ := New(Config{VMs: 1, Mode: DirectEDF})
	tk := &task.Sporadic{ID: 0, VM: 5, Period: 10, WCET: 1, Deadline: 10}
	m.Submit(0, task.NewJob(tk, 0, 0))
	if m.Stats().Dropped != 1 {
		t.Errorf("Dropped = %d, want 1", m.Stats().Dropped)
	}
}

func TestPoolOverflowCountsDropped(t *testing.T) {
	m, _ := New(Config{VMs: 1, Mode: DirectEDF, PoolCapacity: 1})
	tk := &task.Sporadic{ID: 0, VM: 0, Period: 100, WCET: 50, Deadline: 100}
	m.Submit(0, task.NewJob(tk, 0, 0))
	m.Submit(0, task.NewJob(tk, 1, 0))
	run(m, 2)
	if m.Stats().Dropped != 1 {
		t.Errorf("Dropped = %d, want 1", m.Stats().Dropped)
	}
}

func TestServerEDFBudgetIsolation(t *testing.T) {
	// VM0's server: Θ=2 per Π=4. VM0 floods; VM1 (Θ=2/Π=4) must
	// still get its share: in any period each VM runs at most Θ.
	m, _ := New(Config{
		VMs:  2,
		Mode: ServerEDF,
		Servers: []task.Server{
			{VM: 0, Period: 4, Budget: 2},
			{VM: 1, Period: 4, Budget: 2},
		},
	})
	flood := &task.Sporadic{ID: 0, VM: 0, Period: 1000, WCET: 500, Deadline: 1000}
	m.Submit(0, task.NewJob(flood, 0, 0))
	victim := &task.Sporadic{ID: 1, VM: 1, Period: 8, WCET: 2, Deadline: 8}
	var log completionLog
	m.OnComplete = log.hook()
	for now := slot.Time(0); now < 64; now++ {
		if now%8 == 0 {
			m.Submit(now, task.NewJob(victim, int(now/8), now))
		}
		m.Step(now)
	}
	victimDone := 0
	for i, j := range log.jobs {
		if j.Task == victim {
			victimDone++
			if log.at[i] > j.Deadline {
				t.Errorf("victim job %d missed: done %d deadline %d", j.Seq, log.at[i], j.Deadline)
			}
		}
	}
	if victimDone != 8 {
		t.Errorf("victim completions = %d, want 8", victimDone)
	}
}

func TestServerEDFWastesIdleGrant(t *testing.T) {
	// Strict polling server: a slot granted to an idle VM is wasted.
	m, _ := New(Config{
		VMs:     2,
		Mode:    ServerEDF,
		Servers: []task.Server{{VM: 0, Period: 2, Budget: 2}}, // VM0 owns everything
	})
	tk := &task.Sporadic{ID: 0, VM: 1, Period: 100, WCET: 1, Deadline: 100}
	m.Submit(0, task.NewJob(tk, 0, 0)) // VM1 has work but no server
	run(m, 10)
	if m.Stats().Completed != 0 {
		t.Error("VM without server must not run in ServerEDF mode")
	}
	if st := m.Stats(); st.PSlotsUsed+st.RSlotsUsed != 0 {
		t.Errorf("idle slots = %d, want 10 (%+v)", 10-st.PSlotsUsed-st.RSlotsUsed, st)
	}
}

func TestWorkConservingReclaim(t *testing.T) {
	// Table: task 0 owns half the slots but has no work (never
	// preloaded with a matching spec — we preload a task whose period
	// is long so the banked slots idle). Work-conserving mode lets
	// R-channel jobs reclaim them.
	tab := slot.NewTable(2)
	tab.Assign(0, 0)
	mWC, _ := New(Config{VMs: 1, Mode: DirectEDF, Table: tab, WorkConserving: true})
	mStrict, _ := New(Config{VMs: 1, Mode: DirectEDF, Table: tab.Clone()})
	tk := &task.Sporadic{ID: 0, VM: 0, Period: 1000, WCET: 10, Deadline: 1000}
	var logWC, logStrict completionLog
	mWC.OnComplete = logWC.hook()
	mStrict.OnComplete = logStrict.hook()
	mWC.Submit(0, task.NewJob(tk, 0, 0))
	mStrict.Submit(0, task.NewJob(tk, 0, 0))
	run(mWC, 30)
	run(mStrict, 30)
	if len(logWC.jobs) != 1 || len(logStrict.jobs) != 1 {
		t.Fatal("both systems should finish the job within 30 slots")
	}
	if logWC.at[0] >= logStrict.at[0] {
		t.Errorf("work-conserving (%d) should finish before strict (%d)", logWC.at[0], logStrict.at[0])
	}
	if mWC.Stats().Reclaimed == 0 {
		t.Error("work-conserving run should count reclaimed slots")
	}
	// No task ever runs in the owned slots, so the strict run idles
	// every one of them.
	owned := int64(30 - tab.FreeIn(0, 30))
	if st := mStrict.Stats(); st.PSlotsUsed != 0 || st.Reclaimed != 0 || owned != 15 {
		t.Errorf("strict run: %d owned slots, %+v; want 15 owned, none used or reclaimed", owned, st)
	}
}

// TestPreemptionAcrossIdleOwnedSlot: a job switch away from an
// unfinished job is a preemption even when an idle table-owned slot
// lies between the two jobs' slots.
func TestPreemptionAcrossIdleOwnedSlot(t *testing.T) {
	// Slot 0 of every 4 is owned; the pre-loaded task has period 8, so
	// the owned slots 4, 12, … idle.
	tab, _, err := slot.Build([]slot.Requirement{{ID: 0, Period: 4, WCET: 1, Deadline: 4}})
	if err != nil {
		t.Fatal(err)
	}
	m, err := New(Config{VMs: 2, Mode: DirectEDF, Table: tab})
	if err != nil {
		t.Fatal(err)
	}
	if err := m.Preload(&task.Sporadic{ID: 9, VM: 0, Period: 8, WCET: 1, Deadline: 8}, 0, 0); err != nil {
		t.Fatal(err)
	}
	var log completionLog
	m.OnComplete = log.hook()
	long := &task.Sporadic{ID: 1, VM: 0, Period: 100, WCET: 5, Deadline: 50}
	urgent := &task.Sporadic{ID: 2, VM: 1, Period: 100, WCET: 1, Deadline: 6}
	for now := slot.Time(0); now < 16; now++ {
		switch now {
		case 1:
			m.Submit(now, task.NewJob(long, 0, now)) // runs slots 1–3
		case 4:
			m.Submit(now, task.NewJob(urgent, 0, now)) // slot 4 idles; runs slot 5
		}
		m.Step(now)
	}
	// The pre-defined jobs finish at 1 and 9, the urgent job at 6 and
	// the long one, resumed in slots 6–7, at 8.
	var done []slot.Time
	for i, j := range log.jobs {
		if j.Task.ID != 9 {
			done = append(done, log.at[i])
		}
	}
	if len(done) != 2 || done[0] != 6 || done[1] != 8 {
		t.Fatalf("run-time completions at %v, want [6 8]", done)
	}
	if got := m.Stats().Preemptions; got != 1 {
		t.Errorf("Preemptions = %d, want 1: the urgent job preempts the unfinished long one", got)
	}
}

func TestPendingJobsVisitsEverything(t *testing.T) {
	tab, _, _ := slot.Build([]slot.Requirement{{ID: 0, Period: 8, WCET: 1, Deadline: 8}})
	m, _ := New(Config{VMs: 1, Mode: DirectEDF, Table: tab, ReqLatency: 5})
	spec := &task.Sporadic{ID: 9, VM: 0, Period: 8, WCET: 1, Deadline: 8}
	m.Preload(spec, 0, 0)
	tk := &task.Sporadic{ID: 0, VM: 0, Period: 100, WCET: 4, Deadline: 100}
	m.Submit(0, task.NewJob(tk, 0, 0)) // in request path
	m.Step(0)                          // releases pre job, runs it (slot 0 owned)
	n := 0
	m.PendingJobs(func(j *task.Job) { n++ })
	// Request-path job still in inbox (ReqLatency 5); pre-job done at
	// slot 0 (WCET 1) so not pending.
	if n != 1 {
		t.Errorf("pending = %d, want 1", n)
	}
}

// TestAnalysisSimulationAgreement is the load-bearing cross-check:
// whenever the two-layer analysis (Theorems 1-4) declares a
// configuration schedulable, the slot-accurate simulation of the
// hypervisor in ServerEDF mode must not miss a single deadline, even
// with adversarial (maximal-rate) sporadic releases.
func TestAnalysisSimulationAgreement(t *testing.T) {
	rng := rand.New(rand.NewSource(17))
	tested := 0
	for trial := 0; trial < 120 && tested < 40; trial++ {
		// Random pre-defined load.
		var reqs []slot.Requirement
		if rng.Intn(2) == 1 {
			reqs = append(reqs, slot.Requirement{ID: 0, Period: 8, WCET: slot.Time(1 + rng.Intn(2)), Deadline: 8})
		}
		tab, _, err := slot.Build(reqs)
		if err != nil {
			continue
		}
		if tab.Len() == 0 {
			tab = slot.NewTable(8)
		}
		// Random sporadic tasks over 2 VMs.
		var ts task.Set
		id := 0
		for vm := 0; vm < 2; vm++ {
			for k := 0; k < 1+rng.Intn(2); k++ {
				T := slot.Time([]int{16, 24, 32, 48}[rng.Intn(4)])
				C := slot.Time(1 + rng.Intn(2))
				D := C + slot.Time(rng.Intn(int(T-C)+1))
				ts = append(ts, task.Sporadic{ID: id, VM: vm, Period: T, WCET: C, Deadline: D})
				id++
			}
		}
		servers, res, err := analysis.SynthesizeServers(tab, ts, 8)
		if err != nil || !res.Schedulable {
			continue
		}
		tested++
		m, err := New(Config{VMs: 2, Mode: ServerEDF, Table: tab, Servers: servers})
		if err != nil {
			t.Fatal(err)
		}
		var log completionLog
		m.OnComplete = log.hook()
		// Adversarial release: every task releases at its maximal rate.
		specs := make([]*task.Sporadic, len(ts))
		for i := range ts {
			specs[i] = &ts[i]
		}
		next := make([]slot.Time, len(ts))
		seq := make([]int, len(ts))
		horizon := 6 * ts.Hyperperiod()
		if horizon > 4096 {
			horizon = 4096
		}
		for now := slot.Time(0); now < horizon; now++ {
			for i, spec := range specs {
				if next[i] <= now {
					m.Submit(now, task.NewJob(spec, seq[i], now))
					seq[i]++
					next[i] = now + spec.Period
				}
			}
			m.Step(now)
		}
		if n := log.misses(); n > 0 {
			t.Fatalf("trial %d: analysis said schedulable but simulation missed %d deadlines\ntable=%s servers=%v tasks=%v",
				trial, n, tab, servers, ts)
		}
	}
	if tested < 10 {
		t.Fatalf("only %d schedulable configurations generated", tested)
	}
}

func TestStatsSlotAccounting(t *testing.T) {
	// Every executed slot is counted once, in the channel whose supply
	// it came from; the rest of the horizon is idle.
	const horizon = 64
	tab, _, _ := slot.Build([]slot.Requirement{{ID: 0, Period: 4, WCET: 1, Deadline: 4}})
	m, _ := New(Config{VMs: 1, Mode: DirectEDF, Table: tab})
	spec := &task.Sporadic{ID: 9, VM: 0, Period: 8, WCET: 1, Deadline: 8} // every other owned slot idles
	m.Preload(spec, 0, 0)
	tk := &task.Sporadic{ID: 0, VM: 0, Period: 16, WCET: 2, Deadline: 16}
	for now := slot.Time(0); now < horizon; now++ {
		if now%16 == 0 {
			m.Submit(now, task.NewJob(tk, int(now/16), now))
		}
		m.Step(now)
	}
	st := m.Stats()
	free := int64(tab.FreeIn(0, horizon))
	owned := horizon - free
	// The pre-defined task runs one of every two owned slots; the four
	// run-time jobs take two free slots each and reclaim nothing.
	if owned != 16 || st.PSlotsUsed != 8 || st.RSlotsUsed != 8 || st.Reclaimed != 0 {
		t.Fatalf("owned = %d, %+v; want 16 owned, 8 P-slots, 8 R-slots, none reclaimed", owned, st)
	}
	if idle := horizon - st.PSlotsUsed - st.RSlotsUsed; idle != (owned-st.PSlotsUsed)+(free-st.RSlotsUsed) {
		t.Errorf("idle = %d, want the unused owned (%d) plus unused free (%d) slots",
			idle, owned-st.PSlotsUsed, free-st.RSlotsUsed)
	}
}
