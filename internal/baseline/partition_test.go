package baseline

import (
	"testing"

	"ioguard/internal/slot"
	"ioguard/internal/system"
	"ioguard/internal/task"
)

func partWorkload() task.Set {
	return task.Set{
		{ID: 0, VM: 0, Kind: task.Synthetic, Device: "spi", Period: 1000, WCET: 10, Deadline: 1000, OpBytes: 64},
		{ID: 1, VM: 1, Kind: task.Safety, Device: "spi", Period: 1000, WCET: 5, Deadline: 1000, OpBytes: 64},
	}
}

// TestPartitionQuiesce drives BS|PART through the quiescence protocol:
// idle when drained, never a horizon in the past, completion reached
// stepping only pinned slots.
func TestPartitionQuiesce(t *testing.T) {
	ts := task.Set{
		{ID: 0, VM: 0, Kind: task.Safety, Device: "ethernet", Period: 10000, WCET: 5, Deadline: 10000, OpBytes: 64},
	}
	col := &system.Collector{}
	sys, err := NewPartition(2, ts, col)
	if err != nil {
		t.Fatal(err)
	}
	shards := sys.Shards()
	if len(shards) != 1 {
		t.Fatalf("single-device partition has %d shards, want 1", len(shards))
	}
	q := shards[0]
	if got := q.NextWork(0); got != slot.Never {
		t.Fatalf("idle system NextWork = %d, want Never", got)
	}
	sys.Submit(0, task.NewJob(&ts[0], 0, 0))
	now := slot.Time(0)
	steps := 0
	for steps < 10000 {
		next := q.NextWork(now)
		if next == slot.Never {
			break
		}
		if next < now {
			t.Fatalf("NextWork went backwards: at %d got %d", now, next)
		}
		now = next
		sys.Step(now)
		steps++
		now++
	}
	if col.Completed() != 1 {
		t.Fatalf("completions = %d after %d pinned steps", col.Completed(), steps)
	}
	if got := q.NextWork(now); got != slot.Never {
		t.Errorf("drained system NextWork = %d, want Never", got)
	}
}

// TestPartitionNoReclamation pins the defining anti-property: a VM's
// request waits for its own window even while the device sits idle in
// another VM's window. VM1's job arrives during VM0's (idle) window
// and must not start before slot 32.
func TestPartitionNoReclamation(t *testing.T) {
	ts := partWorkload()
	col := &system.Collector{}
	var at slot.Time
	col.Observe(func(j *task.Job, t slot.Time) { at = t })
	p, err := NewPartition(2, ts, col)
	if err != nil {
		t.Fatal(err)
	}
	p.Submit(0, task.NewJob(&ts[1], 0, 0))
	for now := slot.Time(0); now < 200; now++ {
		p.Step(now)
	}
	if col.Completed() != 1 {
		t.Fatalf("completions = %d", col.Completed())
	}
	// Arrival at slot 2 (request path), frozen until VM1's window at
	// slot 32, setup 2 + WCET 5 finish at 39, +2 response ⇒ 41.
	if at != 41 {
		t.Errorf("VM1 completion at %d, want 41 (idle VM0 window must be wasted, not reclaimed)", at)
	}
}

// TestPartitionFreezesAcrossWindows: an operation outliving its window
// freezes — keeping its residual service — and resumes in the owner's
// next window, while the other VM's window runs undisturbed.
func TestPartitionFreezesAcrossWindows(t *testing.T) {
	ts := task.Set{
		{ID: 0, VM: 0, Kind: task.Synthetic, Device: "spi", Period: 10000, WCET: 40, Deadline: 10000, OpBytes: 64},
		{ID: 1, VM: 1, Kind: task.Safety, Device: "spi", Period: 10000, WCET: 5, Deadline: 10000, OpBytes: 64},
	}
	col := &system.Collector{}
	done := map[int]slot.Time{}
	col.Observe(func(j *task.Job, t slot.Time) { done[j.Task.ID] = t })
	p, err := NewPartition(2, ts, col)
	if err != nil {
		t.Fatal(err)
	}
	p.Submit(0, task.NewJob(&ts[0], 0, 0))
	p.Submit(0, task.NewJob(&ts[1], 0, 0))
	for now := slot.Time(0); now < 500; now++ {
		p.Step(now)
	}
	if col.Completed() != 2 {
		t.Fatalf("completions = %d", col.Completed())
	}
	// VM0: starts at slot 2 with 40+2 slots of service; 30 run in
	// window [2,32), the rest freeze through VM1's window and finish 12
	// slots into window [64,96): finish 76, +2 response ⇒ 78.
	if done[0] != 78 {
		t.Errorf("VM0 overrun completed at %d, want 78 (must freeze across the foreign window)", done[0])
	}
	// VM1 is untouched by VM0's overrun: same timeline as the
	// no-reclamation test.
	if done[1] != 41 {
		t.Errorf("VM1 completion at %d, want 41 (partition isolation)", done[1])
	}
}

// TestPartitionIsolationUnderFlood mirrors the BlueVisor starvation
// test: VM0 floods the device, VM1 submits one safety op. Under
// static partitioning the victim is served inside its own first
// window regardless of the flood — but never before that window.
func TestPartitionIsolationUnderFlood(t *testing.T) {
	ts := partWorkload()
	col := &system.Collector{}
	var victimDone slot.Time
	col.Observe(func(j *task.Job, at slot.Time) {
		if j.Task.ID == 1 {
			victimDone = at
		}
	})
	p, err := NewPartition(2, ts, col)
	if err != nil {
		t.Fatal(err)
	}
	for i := 0; i < 10; i++ {
		p.Submit(0, task.NewJob(&ts[0], i, 0))
	}
	p.Submit(0, task.NewJob(&ts[1], 0, 0))
	for now := slot.Time(0); now < 2000; now++ {
		p.Step(now)
	}
	if victimDone == 0 {
		t.Fatal("victim never completed")
	}
	if victimDone <= 32 {
		t.Errorf("victim finished at %d, before its first window — reclamation leaked in", victimDone)
	}
	if victimDone > 64 {
		t.Errorf("victim finished at %d; its own window should serve it by slot 64 despite the flood", victimDone)
	}
}
