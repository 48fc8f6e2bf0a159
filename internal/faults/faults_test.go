package faults

import (
	"math"
	"testing"

	"ioguard/internal/slot"
	"ioguard/internal/task"
)

func testPlan() Plan {
	return Plan{
		Seed:          7,
		ReleaseJitter: 50,
		DropProb:      0.1,
		DupProb:       0.1,
		DelayProb:     0.2,
		DelayMax:      32,
	}
}

func testSpec(id int) *task.Sporadic {
	return &task.Sporadic{ID: id, Name: "t", VM: 0, Period: 100, WCET: 3, Deadline: 100, Device: "ethernet"}
}

func TestPlanValidate(t *testing.T) {
	cases := []struct {
		name string
		p    Plan
		ok   bool
	}{
		{"zero", Plan{}, true},
		{"full", testPlan(), true},
		{"neg jitter", Plan{ReleaseJitter: -1}, false},
		{"neg delay max", Plan{DelayMax: -1}, false},
		{"drop prob > 1", Plan{DropProb: 1.5}, false},
		{"dup prob < 0", Plan{DupProb: -0.1}, false},
		{"drop prob NaN", Plan{DropProb: math.NaN()}, false},
		{"dup prob NaN", Plan{DupProb: math.NaN()}, false},
		{"delay prob NaN", Plan{DelayProb: math.NaN(), DelayMax: 4}, false},
		{"delay without bound", Plan{DelayProb: 0.5}, false},
		{"delay with bound", Plan{DelayProb: 0.5, DelayMax: 4}, true},
	}
	for _, c := range cases {
		if err := c.p.Validate(); (err == nil) != c.ok {
			t.Errorf("%s: Validate() = %v, want ok=%v", c.name, err, c.ok)
		}
	}
}

func TestNewNilForCleanPlan(t *testing.T) {
	if s := New(Plan{}, 1); s != nil {
		t.Fatal("clean plan must produce a nil stream")
	}
	if s := New(Plan{Seed: 99}, 1); s != nil {
		t.Fatal("a seed alone enables nothing")
	}
	if s := New(testPlan(), 1); s == nil {
		t.Fatal("enabled plan produced no stream")
	}
}

// Decisions must be pure functions of (plan seed, trial seed, task,
// seq): two streams over the same identity agree decision-for-decision
// regardless of query order, and a different trial seed diverges.
func TestDecisionsDeterministicAndOrderIndependent(t *testing.T) {
	plan := testPlan()
	a := New(plan, 42)
	b := New(plan, 42)
	spec := testSpec(3)
	// Query b in reverse order to prove order independence.
	type dec struct {
		jit slot.Time
		act Action
	}
	const n = 200
	da := make([]dec, n)
	db := make([]dec, n)
	for i := 0; i < n; i++ {
		da[i] = dec{a.jitterFor(spec, i), a.actionFor(spec, i)}
	}
	for i := n - 1; i >= 0; i-- {
		db[i] = dec{b.jitterFor(spec, i), b.actionFor(spec, i)}
	}
	diverged := false
	for i := range da {
		if da[i] != db[i] {
			t.Fatalf("seq %d: decisions diverged: %+v vs %+v", i, da[i], db[i])
		}
	}
	c := New(plan, 43)
	for i := 0; i < n; i++ {
		if (dec{c.jitterFor(spec, i), c.actionFor(spec, i)}) != da[i] {
			diverged = true
			break
		}
	}
	if !diverged {
		t.Error("trial seed 43 replayed seed 42's decisions exactly")
	}
}

func TestDrawBounds(t *testing.T) {
	s := New(testPlan(), 1)
	spec := testSpec(1)
	var jittered, dropped, delayed int
	for i := 0; i < 2000; i++ {
		j := s.jitterFor(spec, i)
		if j < 0 || j > 50 {
			t.Fatalf("jitter %d outside [0,50]", j)
		}
		if j > 0 {
			jittered++
		}
		a := s.actionFor(spec, i)
		if a.Delay < 0 || a.Delay > 32 {
			t.Fatalf("delay %d outside [0,32]", a.Delay)
		}
		if a.Drop {
			if a.Dup || a.Delay != 0 {
				t.Fatal("drop must preempt dup and delay")
			}
			dropped++
		}
		if a.Delay > 0 {
			delayed++
		}
	}
	if jittered == 0 || dropped == 0 || delayed == 0 {
		t.Fatalf("draws never hit: jittered=%d dropped=%d delayed=%d", jittered, dropped, delayed)
	}
	// Coarse rate check: 10% drop over 2000 draws should land well
	// inside [100, 300].
	if dropped < 100 || dropped > 300 {
		t.Errorf("drop rate badly off: %d/2000 at p=0.1", dropped)
	}
}

func TestFirstJobsNeverJittered(t *testing.T) {
	s := New(testPlan(), 1)
	for id := 0; id < 50; id++ {
		if j := s.jitterFor(testSpec(id), 0); j != 0 {
			t.Fatalf("task %d: first job drew jitter %d", id, j)
		}
	}
}

func TestDupJobIdentity(t *testing.T) {
	s := New(testPlan(), 1)
	spec := testSpec(2)
	j := task.NewJob(spec, 5, 120)
	d := s.DupJob(j)
	if !IsDup(d) || IsDup(j) {
		t.Fatal("dup marking wrong")
	}
	if d.Task != j.Task || d.Release != j.Release || d.Deadline != j.Deadline {
		t.Fatal("duplicate must mirror its original")
	}
	// The duplicate shares its original's decision identity.
	if s.jitterFor(spec, d.Seq) != s.jitterFor(spec, j.Seq) {
		t.Error("dup decision identity diverged from original")
	}
	if s.actionFor(spec, d.Seq) != s.actionFor(spec, j.Seq) {
		t.Error("dup action identity diverged from original")
	}
}

// Perturbed must re-derive exactly the jobs the stream touched, and a
// duplicate is perturbed by construction.
func TestPerturbedMatchesDecisions(t *testing.T) {
	s := New(testPlan(), 9)
	spec := testSpec(4)
	for i := 0; i < 500; i++ {
		j := task.NewJob(spec, i, slot.Time(i)*100)
		want := s.jitterFor(spec, i) > 0
		a := s.actionFor(spec, i)
		want = want || a.Drop || a.Dup || a.Delay > 0
		if got := s.Perturbed(j); got != want {
			t.Fatalf("seq %d: Perturbed=%v, decisions say %v", i, got, want)
		}
		if !s.Perturbed(s.DupJob(j)) {
			t.Fatalf("seq %d: duplicate not perturbed", i)
		}
	}
}

// Summary counters account exactly what Transport and ReleaseJitter
// handed out.
func TestSummaryCounts(t *testing.T) {
	s := New(testPlan(), 5)
	spec := testSpec(6)
	var want Summary
	for i := 0; i < 1000; i++ {
		if d := s.ReleaseJitter(spec, i); d > 0 {
			want.Jittered++
		}
		j := task.NewJob(spec, i, slot.Time(i))
		a := s.Transport(j)
		switch {
		case a.Drop:
			want.Dropped++
		default:
			if a.Dup {
				want.Duplicated++
			}
			if a.Delay > 0 {
				want.Delayed++
			}
		}
	}
	if got := s.Summary(); got != want {
		t.Fatalf("summary %+v, recount %+v", got, want)
	}
}
