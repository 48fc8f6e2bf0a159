package hypervisor

import (
	"reflect"
	"testing"

	"ioguard/internal/slot"
	"ioguard/internal/task"
)

// mixedManager builds a manager with a P-channel task (period 8, 2
// slots) plus one submitted R-channel job, so both channels and their
// idle spans are exercised.
func mixedManager(t *testing.T) *Manager {
	t.Helper()
	tab, _, err := slot.Build([]slot.Requirement{{ID: 0, Period: 8, WCET: 2, Deadline: 8}})
	if err != nil {
		t.Fatal(err)
	}
	m, err := New(Config{VMs: 1, Table: tab, Mode: DirectEDF})
	if err != nil {
		t.Fatal(err)
	}
	spec := &task.Sporadic{ID: 100, Name: "sensor", VM: 0, Period: 8, WCET: 2, Deadline: 8}
	if err := m.Preload(spec, 0, 0); err != nil {
		t.Fatal(err)
	}
	return m
}

// TestManagerSkipStatsMatchDense: a manager stepped only in the slots
// NextWork asks for, jumping straight over the rest, must end with
// exactly the Stats and the same completion trace as one stepped
// densely.
func TestManagerSkipStatsMatchDense(t *testing.T) {
	const horizon = 256

	dense := mixedManager(t)
	var denseLog completionLog
	dense.OnComplete = denseLog.hook()
	rj := &task.Sporadic{ID: 200, Name: "req", VM: 0, Period: 64, WCET: 3, Deadline: 64}
	for now := slot.Time(0); now < horizon; now++ {
		if now == 40 {
			dense.Submit(now, task.NewJob(rj, 0, now))
		}
		dense.Step(now)
	}

	skip := mixedManager(t)
	var skipLog completionLog
	skip.OnComplete = skipLog.hook()
	// Submit at the same slot; the protocol must step slot 40 anyway
	// (NextWork cannot know about future submissions, but slot 40 falls
	// inside a busy region of the P-channel period-8 task — submit
	// before stepping, as system.Run's release phase does).
	var stepped []slot.Time
	for now := slot.Time(0); now < horizon; {
		if now <= 40 {
			if now == 40 {
				skip.Submit(now, task.NewJob(rj, 0, now))
			}
		}
		skip.Step(now)
		stepped = append(stepped, now)
		now++
		if next := skip.NextWork(now); next > now {
			if next > slot.Time(horizon) {
				next = slot.Time(horizon)
			}
			// Never skip past the pending submission slot.
			if now <= 40 && next > 40 {
				next = 40
			}
			now = next
		}
	}
	if len(stepped) >= horizon {
		t.Fatalf("protocol stepped every slot (%d); nothing was skipped", len(stepped))
	}

	if !reflect.DeepEqual(dense.Stats(), skip.Stats()) {
		t.Errorf("stats diverge:\ndense: %+v\nskip:  %+v", dense.Stats(), skip.Stats())
	}
	if len(denseLog.jobs) == 0 {
		t.Fatal("dense run completed nothing; test is vacuous")
	}
	if len(denseLog.at) != len(skipLog.at) || !reflect.DeepEqual(denseLog.at, skipLog.at) {
		t.Errorf("completion times diverge: dense %v, skip %v", denseLog.at, skipLog.at)
	}
}

// TestManagerNextWorkDrained: with no pre-loaded tasks and no
// submissions the manager declares itself permanently idle.
func TestManagerNextWorkDrained(t *testing.T) {
	m, err := New(Config{VMs: 2, Mode: DirectEDF})
	if err != nil {
		t.Fatal(err)
	}
	if got := m.NextWork(0); got != slot.Never {
		t.Errorf("empty manager NextWork = %d, want Never", got)
	}
	rj := &task.Sporadic{ID: 1, Name: "req", VM: 0, Period: 64, WCET: 2, Deadline: 64}
	m.Submit(0, task.NewJob(rj, 0, 0))
	if got := m.NextWork(0); got != 0 {
		t.Errorf("manager with queued job NextWork = %d, want 0", got)
	}
	for now := slot.Time(0); now < 16 && m.NextWork(now) <= now; now++ {
		m.Step(now)
	}
	if got := m.NextWork(16); got != slot.Never {
		t.Errorf("drained manager NextWork = %d, want Never", got)
	}
}

// TestManagerNextWorkPendingPrePinsOwnedSlot: a pending P-channel job
// must wake the manager at its task's next owned table slot — not
// earlier (that would forfeit the skip) and never later (that would
// skip its execution slot).
func TestManagerNextWorkPendingPrePinsOwnedSlot(t *testing.T) {
	// Task 0 owns slots 0,1 of an 8-slot table.
	tab, _, err := slot.Build([]slot.Requirement{{ID: 0, Period: 8, WCET: 2, Deadline: 8}})
	if err != nil {
		t.Fatal(err)
	}
	m, err := New(Config{VMs: 1, Table: tab, Mode: DirectEDF})
	if err != nil {
		t.Fatal(err)
	}
	spec := &task.Sporadic{ID: 100, Name: "sensor", VM: 0, Period: 8, WCET: 2, Deadline: 8}
	if err := m.Preload(spec, 0, 0); err != nil {
		t.Fatal(err)
	}
	// Steps 0,1 execute release 0; at slot 2 the next release (slot 8)
	// is the only upcoming work.
	m.Step(0)
	m.Step(1)
	if got := m.NextWork(2); got != 8 {
		t.Errorf("after completing release 0, NextWork(2) = %d, want 8 (next release)", got)
	}
}
