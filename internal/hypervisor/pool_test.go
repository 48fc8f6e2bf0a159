package hypervisor

import (
	"math/rand"
	"testing"

	"ioguard/internal/slot"
	"ioguard/internal/task"
)

// TestPoolAdmitAndShadow: whatever order jobs are admitted in, the
// shadow register holds the earliest-deadline job (ties in admission
// order) and popping it exposes the next one.
func TestPoolAdmitAndShadow(t *testing.T) {
	tk := &task.Sporadic{ID: 0, VM: 0, Period: 10, WCET: 2, Deadline: 8}
	rng := rand.New(rand.NewSource(1))
	for trial := 0; trial < 50; trial++ {
		p := NewPool(0, 0)
		if p.VM() != 0 || p.Len() != 0 {
			t.Fatal("new pool state wrong")
		}
		for i, r := range rng.Perm(8) {
			j := task.NewJob(tk, i, 0)
			j.Deadline = 8 + 10*slot.Time(r/2) // pairs of equal deadlines
			if !p.Admit(j) {
				t.Fatal("admit failed")
			}
		}
		for p.Len() > 0 {
			var want *task.Job
			p.Each(func(j *task.Job) {
				if want == nil || j.Deadline < want.Deadline || (j.Deadline == want.Deadline && j.Seq < want.Seq) {
					want = j
				}
			})
			d, j, ok := p.Shadow()
			if !ok || j != want || d != want.Deadline {
				t.Fatalf("trial %d: shadow = %v/%d, want %v/%d", trial, j, d, want, want.Deadline)
			}
			p.Pop()
		}
	}
}

func TestPoolShadowEmptyAfterRemoveAll(t *testing.T) {
	p := NewPool(1, 0)
	tk := &task.Sporadic{ID: 0, VM: 1, Period: 10, WCET: 2, Deadline: 8}
	p.Admit(task.NewJob(tk, 0, 0))
	p.Pop()
	if _, _, ok := p.Shadow(); ok || p.Len() != 0 {
		t.Error("shadow should be clear after popping the only job")
	}
	n := 0
	p.Each(func(*task.Job) { n++ })
	if n != 0 {
		t.Errorf("Each visited %d jobs in an empty pool", n)
	}
}

func TestPoolRemoveRefreshesShadow(t *testing.T) {
	p := NewPool(0, 0)
	tk := &task.Sporadic{ID: 0, VM: 0, Period: 10, WCET: 2, Deadline: 8}
	j1 := task.NewJob(tk, 0, 0)
	j2 := task.NewJob(tk, 1, 4)
	p.Admit(j2)
	p.Admit(j1)
	p.Pop()
	_, j, ok := p.Shadow()
	if !ok || j != j2 {
		t.Error("shadow should move to the next job after the head is popped")
	}
}

func TestPoolCapacityDrops(t *testing.T) {
	p := NewPool(0, 1)
	tk := &task.Sporadic{ID: 0, VM: 0, Period: 10, WCET: 2, Deadline: 8}
	if !p.Admit(task.NewJob(tk, 0, 0)) {
		t.Fatal("first admit failed")
	}
	if p.Admit(task.NewJob(tk, 1, 1)) {
		t.Error("admit above capacity should fail")
	}
	if p.Dropped() != 1 || p.Len() != 1 {
		t.Errorf("Dropped = %d, Len = %d, want 1 and 1", p.Dropped(), p.Len())
	}
	p.Pop()
	if !p.Admit(task.NewJob(tk, 2, 2)) {
		t.Error("admit after a pop should find room")
	}
}

func TestPoolEach(t *testing.T) {
	p := NewPool(0, 0)
	tk := &task.Sporadic{ID: 0, VM: 0, Period: 10, WCET: 2, Deadline: 8}
	p.Admit(task.NewJob(tk, 0, 0))
	p.Admit(task.NewJob(tk, 1, 1))
	n := 0
	p.Each(func(j *task.Job) { n++ })
	if n != 2 {
		t.Errorf("Each visited %d, want 2", n)
	}
}
