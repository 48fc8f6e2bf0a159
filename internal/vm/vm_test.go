package vm

import (
	"math/rand"
	"testing"

	"ioguard/internal/slot"
	"ioguard/internal/task"
)

func set(vmID int) task.Set {
	return task.Set{
		{ID: 0, VM: vmID, Period: 10, WCET: 2, Deadline: 10},
		{ID: 1, VM: vmID, Period: 25, WCET: 3, Deadline: 20},
	}
}

func TestReleaseRespectsMinimumSeparation(t *testing.T) {
	rng := rand.New(rand.NewSource(2))
	g, err := NewFleet(1, set(0), rng)
	if err != nil {
		t.Fatal(err)
	}
	lastRelease := map[int]slot.Time{}
	for now := slot.Time(0); now < 500; now++ {
		g.Release(now, func(j *task.Job) {
			if j.Release != now {
				t.Fatalf("job released at %d but now is %d", j.Release, now)
			}
			if prev, ok := lastRelease[j.Task.ID]; ok {
				if gap := j.Release - prev; gap < j.Task.Period {
					t.Fatalf("task %d separation %d < period %d", j.Task.ID, gap, j.Task.Period)
				}
			}
			lastRelease[j.Task.ID] = j.Release
		})
	}
	if g.Released() < 40 {
		t.Errorf("released only %d jobs in 500 slots", g.Released())
	}
}

func TestReleaseJitterBounded(t *testing.T) {
	rng := rand.New(rand.NewSource(3))
	ts := task.Set{{ID: 0, VM: 0, Period: 10, WCET: 1, Deadline: 10, Jitter: 4}}
	g, err := NewFleet(1, ts, rng)
	if err != nil {
		t.Fatal(err)
	}
	var gaps []slot.Time
	var prev slot.Time = -1
	for now := slot.Time(0); now < 2000; now++ {
		g.Release(now, func(j *task.Job) {
			if prev >= 0 {
				gaps = append(gaps, j.Release-prev)
			}
			prev = j.Release
		})
	}
	sawJitter := false
	for _, gap := range gaps {
		if gap < 10 || gap > 14 {
			t.Fatalf("gap %d outside [10,14]", gap)
		}
		if gap > 10 {
			sawJitter = true
		}
	}
	if !sawJitter {
		t.Error("jitter never materialized in 2000 slots")
	}
}

func TestReleaseDeterministicPerSeed(t *testing.T) {
	releases := func(seed int64) []slot.Time {
		rng := rand.New(rand.NewSource(seed))
		g, err := NewFleet(1, set(0), rng)
		if err != nil {
			t.Fatal(err)
		}
		var out []slot.Time
		for now := slot.Time(0); now < 200; now++ {
			g.Release(now, func(j *task.Job) { out = append(out, j.Release) })
		}
		return out
	}
	a, b := releases(42), releases(42)
	if len(a) != len(b) {
		t.Fatal("same seed produced different release counts")
	}
	for i := range a {
		if a[i] != b[i] {
			t.Fatal("same seed produced different schedules")
		}
	}
	c := releases(43)
	same := len(a) == len(c)
	if same {
		for i := range a {
			if a[i] != c[i] {
				same = false
				break
			}
		}
	}
	if same {
		t.Error("different seeds produced identical schedules")
	}
}

func TestJobSequenceNumbers(t *testing.T) {
	rng := rand.New(rand.NewSource(4))
	ts := task.Set{{ID: 0, VM: 0, Period: 10, WCET: 1, Deadline: 10}}
	g, err := NewFleet(1, ts, rng)
	if err != nil {
		t.Fatal(err)
	}
	want := 0
	for now := slot.Time(0); now < 100; now++ {
		g.Release(now, func(j *task.Job) {
			if j.Seq != want {
				t.Fatalf("seq = %d, want %d", j.Seq, want)
			}
			want++
		})
	}
}

func TestFleet(t *testing.T) {
	rng := rand.New(rand.NewSource(5))
	ts := task.Set{
		{ID: 0, VM: 0, Period: 10, WCET: 1, Deadline: 10},
		{ID: 1, VM: 2, Period: 10, WCET: 1, Deadline: 10},
	}
	fleet, err := NewFleet(3, ts, rng)
	if err != nil {
		t.Fatal(err)
	}
	n := 0
	byVM := map[int]int{}
	for now := slot.Time(0); now < 100; now++ {
		fleet.Release(now, func(j *task.Job) {
			n++
			byVM[j.Task.VM]++
		})
	}
	if byVM[0] == 0 || byVM[2] == 0 || len(byVM) != 2 {
		t.Errorf("releases per VM = %v, want VMs 0 and 2 only", byVM)
	}
	if int64(n) != fleet.Released() {
		t.Errorf("emitted %d ≠ Released() %d", n, fleet.Released())
	}
	if n < 18 {
		t.Errorf("too few releases: %d", n)
	}
}

// TestNewGuestValidation: NewFleet checks each VM's tasks as a guest's
// were checked: it refuses a nil random source, an invalid task and a
// task of a VM outside the fleet; a VM without tasks never releases.
func TestNewGuestValidation(t *testing.T) {
	rng := rand.New(rand.NewSource(1))
	if _, err := NewFleet(1, set(0), nil); err == nil {
		t.Error("nil rng accepted")
	}
	if _, err := NewFleet(1, set(1), rng); err == nil {
		t.Error("task of vm 1 accepted by a 1-VM fleet")
	}
	bad := task.Set{{ID: 0, VM: 0, Period: 0, WCET: 1, Deadline: 1}}
	if _, err := NewFleet(1, bad, rng); err == nil {
		t.Error("invalid task accepted")
	}
	f, err := NewFleet(4, nil, rng)
	if err != nil {
		t.Fatalf("fleet without tasks refused: %v", err)
	}
	f.Release(0, func(*task.Job) { t.Error("fleet without tasks released a job") })
	if got := f.NextRelease(); got != slot.Never || f.Released() != 0 {
		t.Errorf("fleet without tasks: NextRelease %d, Released %d; want Never, 0", got, f.Released())
	}
}

// TestFleetValidation: NewFleet refuses an empty fleet, a task beyond
// the fleet and a task of a negative VM.
func TestFleetValidation(t *testing.T) {
	rng := rand.New(rand.NewSource(6))
	if _, err := NewFleet(0, nil, rng); err == nil {
		t.Error("zero VMs accepted")
	}
	ts := task.Set{{ID: 0, VM: 5, Period: 10, WCET: 1, Deadline: 10}}
	if _, err := NewFleet(2, ts, rng); err == nil {
		t.Error("task beyond fleet accepted")
	}
	if _, err := NewFleet(2, set(-1), rng); err == nil {
		t.Error("task of a negative vm accepted")
	}
}
