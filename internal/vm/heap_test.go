package vm

import (
	"math/rand"
	"testing"

	"ioguard/internal/slot"
	"ioguard/internal/task"
)

// scanGuest is one VM of the reference release engine the fleet's
// heap replaced: it scans every task on every call, emitting a task's
// due jobs in task order. Kept here (test-only) as the oracle for the heap-vs-scan
// property test.
type scanGuest struct {
	specs []*task.Sporadic
	next  []slot.Time
	seq   []int
	rng   *rand.Rand
}

func newScanGuest(id int, ts task.Set, rng *rand.Rand) *scanGuest {
	g := &scanGuest{rng: rng}
	for i := range ts {
		spec := ts[i]
		g.specs = append(g.specs, &spec)
		g.next = append(g.next, slot.Time(rng.Int63n(int64(spec.Period))))
		g.seq = append(g.seq, 0)
	}
	return g
}

func (g *scanGuest) release(now slot.Time, emit func(j *task.Job)) {
	for i, spec := range g.specs {
		for g.next[i] <= now {
			j := task.NewJob(spec, g.seq[i], g.next[i])
			g.seq[i]++
			gap := spec.Period
			if spec.Jitter > 0 {
				gap += slot.Time(g.rng.Int63n(int64(spec.Jitter) + 1))
			}
			g.next[i] += gap
			emit(j)
		}
	}
}

func (g *scanGuest) nextRelease() slot.Time {
	next := slot.Never
	for _, at := range g.next {
		if at < next {
			next = at
		}
	}
	return next
}

// randomSet draws a workload whose releases exercise heap reordering:
// mixed periods, heavy jitter, several VMs.
func randomSet(rng *rand.Rand, vms, tasksPerVM int) task.Set {
	var ts task.Set
	id := 0
	periods := []slot.Time{3, 5, 7, 10, 16, 25, 40}
	for v := 0; v < vms; v++ {
		for k := 0; k < tasksPerVM; k++ {
			p := periods[rng.Intn(len(periods))]
			ts = append(ts, task.Sporadic{
				ID: id, VM: v, Period: p, WCET: 1, Deadline: p,
				Jitter: slot.Time(rng.Int63n(int64(p))),
			})
			id++
		}
	}
	return ts
}

// TestHeapVsScanEmissionOrder: across random workloads and both call
// patterns (once per slot, and jumping between NextRelease slots), the
// heap-based fleet must emit the exact job sequence of the task-scan
// reference — same tasks, same sequence numbers, same release slots,
// same order. Identical order implies identical RNG draws, which is
// what keeps heap batching invisible to the determinism contract.
func TestHeapVsScanEmissionOrder(t *testing.T) {
	const horizon = 500
	for trial := int64(0); trial < 20; trial++ {
		shape := rand.New(rand.NewSource(1000 + trial))
		ts := randomSet(shape, 1+shape.Intn(4), 1+shape.Intn(6))
		vms := 0
		for _, tk := range ts {
			if tk.VM >= vms {
				vms = tk.VM + 1
			}
		}

		// Reference: scan guests in VM order every slot.
		scanRng := rand.New(rand.NewSource(trial))
		byVM := ts.ByVM()
		var scans []*scanGuest
		for v := 0; v < vms; v++ {
			scans = append(scans, newScanGuest(v, byVM[v], scanRng))
		}
		var want []rel
		for now := slot.Time(0); now < horizon; now++ {
			for _, g := range scans {
				g.release(now, func(j *task.Job) {
					want = append(want, rel{j.Task.ID, j.Seq, j.Release})
				})
			}
		}

		check := func(name string, got []rel) {
			t.Helper()
			if len(got) != len(want) {
				t.Fatalf("trial %d %s: released %d jobs, scan released %d", trial, name, len(got), len(want))
			}
			for i := range want {
				if got[i] != want[i] {
					t.Fatalf("trial %d %s: job %d diverges: heap %+v, scan %+v", trial, name, i, got[i], want[i])
				}
			}
		}

		// Heap fleet, dense per-slot calls.
		dense, err := NewFleet(vms, ts, rand.New(rand.NewSource(trial)))
		if err != nil {
			t.Fatal(err)
		}
		var got []rel
		for now := slot.Time(0); now < horizon; now++ {
			dense.Release(now, func(j *task.Job) {
				got = append(got, rel{j.Task.ID, j.Seq, j.Release})
			})
		}
		check("dense", got)
		if dense.Released() != int64(len(got)) {
			t.Fatalf("trial %d: Released() = %d, emitted %d", trial, dense.Released(), len(got))
		}

		// Heap fleet, jumping straight between NextRelease slots (the
		// fast-forward pattern of the sharded runner).
		jump, err := NewFleet(vms, ts, rand.New(rand.NewSource(trial)))
		if err != nil {
			t.Fatal(err)
		}
		got = nil
		for now := jump.NextRelease(); now < horizon; now = jump.NextRelease() {
			jump.Release(now, func(j *task.Job) {
				got = append(got, rel{j.Task.ID, j.Seq, j.Release})
			})
		}
		check("jump", got)
	}
}

// TestScanGuestMatchesNextRelease pins the oracle itself: its
// nextRelease must agree with a 1-VM fleet's NextRelease when both
// consume the same RNG stream.
func TestScanGuestMatchesNextRelease(t *testing.T) {
	ts := jittered(0, 0)
	heap, err := NewFleet(1, ts, rand.New(rand.NewSource(42)))
	if err != nil {
		t.Fatal(err)
	}
	scan := newScanGuest(0, ts, rand.New(rand.NewSource(42)))
	for now := slot.Time(0); now < 300; now++ {
		if h, s := heap.NextRelease(), scan.nextRelease(); h != s {
			t.Fatalf("slot %d: heap NextRelease %d, scan %d", now, h, s)
		}
		heap.Release(now, func(*task.Job) {})
		scan.release(now, func(*task.Job) {})
	}
}
