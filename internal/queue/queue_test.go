package queue

import (
	"math/rand"
	"sort"
	"testing"
	"testing/quick"

	"ioguard/internal/slot"
)

// checkHeap validates the heap invariant: no child orders before its
// parent.
func (q *PQ[T]) checkHeap() bool {
	for i := 1; i < len(q.heap); i++ {
		if q.less(i, (i-1)/2) {
			return false
		}
	}
	return true
}

func TestPQPushMin(t *testing.T) {
	var q PQ[string]
	if _, _, ok := q.Min(); ok {
		t.Fatal("Min on empty queue should report !ok")
	}
	q.Push(30, "c")
	q.Push(10, "a")
	q.Push(20, "b")
	if q.Len() != 3 {
		t.Fatalf("Len = %d, want 3", q.Len())
	}
	key, v, ok := q.Min()
	if !ok || key != 10 || v != "a" {
		t.Errorf("Min = %d/%q, want 10/a", key, v)
	}
}

func TestPQPopOrder(t *testing.T) {
	var q PQ[int]
	keys := []slot.Time{5, 3, 9, 1, 7, 3, 2}
	for i, k := range keys {
		q.Push(k, i)
	}
	var got []slot.Time
	for {
		k, _, ok := q.PopMin()
		if !ok {
			break
		}
		got = append(got, k)
	}
	want := append([]slot.Time(nil), keys...)
	sort.Slice(want, func(i, j int) bool { return want[i] < want[j] })
	for i := range want {
		if got[i] != want[i] {
			t.Fatalf("pop order %v, want %v", got, want)
		}
	}
}

func TestPQFIFOTieBreak(t *testing.T) {
	var q PQ[string]
	q.Push(5, "first")
	q.Push(5, "second")
	q.Push(9, "later")
	q.Push(5, "third")
	for _, want := range []string{"first", "second", "third", "later"} {
		if _, v, _ := q.PopMin(); v != want {
			t.Fatalf("pop = %q, want %q (ties in insertion order)", v, want)
		}
	}
}

func TestPQEach(t *testing.T) {
	var q PQ[int]
	q.Push(3, 30)
	q.Push(1, 10)
	sum := 0
	q.Each(func(k slot.Time, v int) { sum += v })
	if sum != 40 {
		t.Errorf("Each visited sum %d, want 40", sum)
	}
}

func TestPQPopEmpty(t *testing.T) {
	var q PQ[int]
	if _, _, ok := q.PopMin(); ok {
		t.Error("PopMin on empty should report !ok")
	}
	q.Push(1, 1)
	q.PopMin()
	if _, _, ok := q.PopMin(); ok || q.Len() != 0 {
		t.Error("PopMin after draining should report !ok")
	}
}

func TestPQHeapInvariantUnderRandomOps(t *testing.T) {
	f := func(seed int64) bool {
		rng := rand.New(rand.NewSource(seed))
		var q PQ[int]
		for op := 0; op < 200; op++ {
			if rng.Intn(3) > 0 {
				q.Push(slot.Time(rng.Intn(100)), op)
			} else {
				q.PopMin()
			}
			if !q.checkHeap() {
				return false
			}
		}
		return true
	}
	if err := quick.Check(f, &quick.Config{MaxCount: 30}); err != nil {
		t.Error(err)
	}
}

// TestPQMinAlwaysSmallest drives the heap and a sorted-slice oracle
// through the same random pushes and pops: every Min and PopMin must
// return the oracle's head, FIFO among equal keys.
func TestPQMinAlwaysSmallest(t *testing.T) {
	type kv struct {
		key slot.Time
		v   int
	}
	f := func(seed int64) bool {
		rng := rand.New(rand.NewSource(seed))
		var q PQ[int]
		var ref []kv // sorted by key, insertion order among ties
		for op := 0; op < 300; op++ {
			if rng.Intn(3) > 0 {
				e := kv{slot.Time(rng.Intn(20)), op}
				i := sort.Search(len(ref), func(i int) bool { return ref[i].key > e.key })
				ref = append(ref[:i], append([]kv{e}, ref[i:]...)...)
				q.Push(e.key, e.v)
			} else {
				k, v, ok := q.PopMin()
				if ok != (len(ref) > 0) || (ok && (k != ref[0].key || v != ref[0].v)) {
					return false
				}
				if ok {
					ref = ref[1:]
				}
			}
			k, v, ok := q.Min()
			if ok != (len(ref) > 0) || (ok && (k != ref[0].key || v != ref[0].v)) || q.Len() != len(ref) {
				return false
			}
		}
		return true
	}
	if err := quick.Check(f, nil); err != nil {
		t.Error(err)
	}
}

func TestFIFOOrder(t *testing.T) {
	f := NewFIFO[int](0)
	if _, ok := f.Peek(); ok {
		t.Error("Peek on empty FIFO should report !ok")
	}
	if _, ok := f.Pop(); ok {
		t.Error("Pop on empty FIFO should report !ok")
	}
	for i := 0; i < 5; i++ {
		if !f.Push(i) {
			t.Fatal("push on unbounded FIFO failed")
		}
	}
	if f.Len() != 5 {
		t.Fatalf("Len = %d", f.Len())
	}
	if v, _ := f.Peek(); v != 0 {
		t.Errorf("Peek = %d, want 0", v)
	}
	for i := 0; i < 5; i++ {
		v, ok := f.Pop()
		if !ok || v != i {
			t.Fatalf("Pop #%d = %d/%v", i, v, ok)
		}
	}
}

func TestFIFOBounded(t *testing.T) {
	f := NewFIFO[int](2)
	f.Push(1)
	f.Push(2)
	if !f.Full() {
		t.Error("FIFO should be full")
	}
	if f.Push(3) {
		t.Error("push on full FIFO should fail")
	}
	f.Pop()
	if !f.Push(3) {
		t.Error("push after pop should succeed")
	}
}

func TestFIFOEach(t *testing.T) {
	f := NewFIFO[int](0)
	f.Push(1)
	f.Push(2)
	var got []int
	f.Each(func(v int) { got = append(got, v) })
	if len(got) != 2 || got[0] != 1 || got[1] != 2 {
		t.Errorf("Each order = %v", got)
	}
}

// TestFIFOPopZeroesSlot verifies popped slots drop their references
// immediately: a retained backing array must not pin popped jobs for
// the rest of a trial.
func TestFIFOPopZeroesSlot(t *testing.T) {
	f := NewFIFO[*int](0)
	for i := 0; i < 4; i++ {
		v := i
		f.Push(&v)
	}
	f.Pop()
	for i := 0; i < f.head; i++ {
		if f.items[i] != nil {
			t.Errorf("vacated slot %d still holds a reference", i)
		}
	}
	// Drain; compaction zeroes the suffix too.
	for {
		if _, ok := f.Pop(); !ok {
			break
		}
	}
	for i, v := range f.items[:cap(f.items)] {
		if v != nil {
			t.Errorf("backing slot %d still holds a reference after drain", i)
		}
	}
}

// TestFIFOMemoryBounded pushes/pops ~10⁵ cycles at a small steady
// depth and bounds both the backing array and the per-cycle
// allocations: the former re-slice-only Pop grew the live window of
// the backing array without bound and reallocated on every wrap.
func TestFIFOMemoryBounded(t *testing.T) {
	const depth, cycles = 8, 100000
	f := NewFIFO[int](0)
	for i := 0; i < depth; i++ {
		f.Push(i)
	}
	i := depth
	allocs := testing.AllocsPerRun(cycles, func() {
		f.Pop()
		f.Push(i)
		i++
	})
	if allocs > 0.001 {
		t.Errorf("steady-state pop/push allocates %.4f/op, want ~0 (compaction should reuse the array)", allocs)
	}
	if c := cap(f.items); c > 64*depth {
		t.Errorf("backing array grew to cap %d for depth-%d queue", c, depth)
	}
	if f.Len() != depth {
		t.Fatalf("Len = %d, want %d", f.Len(), depth)
	}
	// FIFO order survives all the compactions.
	want, _ := f.Peek()
	for {
		v, ok := f.Pop()
		if !ok {
			break
		}
		if v != want {
			t.Fatalf("order broken: got %d, want %d", v, want)
		}
		want++
	}
}

// TestFIFOCompactionKeepsSemantics interleaves pushes and pops across
// compaction boundaries and checks contents against a reference.
func TestFIFOCompactionKeepsSemantics(t *testing.T) {
	rng := rand.New(rand.NewSource(42))
	f := NewFIFO[int](0)
	var ref []int
	next := 0
	for op := 0; op < 20000; op++ {
		if rng.Intn(3) > 0 || len(ref) == 0 {
			f.Push(next)
			ref = append(ref, next)
			next++
		} else {
			v, ok := f.Pop()
			if !ok || v != ref[0] {
				t.Fatalf("op %d: Pop = %d/%v, want %d", op, v, ok, ref[0])
			}
			ref = ref[1:]
		}
		if f.Len() != len(ref) {
			t.Fatalf("op %d: Len = %d, want %d", op, f.Len(), len(ref))
		}
	}
	var got []int
	f.Each(func(v int) { got = append(got, v) })
	if len(got) != len(ref) {
		t.Fatalf("Each visited %d, want %d", len(got), len(ref))
	}
	for i := range ref {
		if got[i] != ref[i] {
			t.Fatalf("content diverged at %d: %d vs %d", i, got[i], ref[i])
		}
	}
}

func BenchmarkPQPushPop(b *testing.B) {
	var q PQ[int]
	rng := rand.New(rand.NewSource(1))
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		q.Push(slot.Time(rng.Intn(1000)), i)
		if q.Len() > 64 {
			q.PopMin()
		}
	}
}

// TestPQMemoryBounded mirrors TestFIFOMemoryBounded for the R-channel
// pool's priority queue: steady-state push/pop at a fixed resident
// depth must be allocation-free (entries live by value in the reused
// backing array) and must not let popped entries pin their values —
// each pop zeroes the vacated slot.
func TestPQMemoryBounded(t *testing.T) {
	const depth, cycles = 8, 100000
	var q PQ[*int]
	for i := 0; i < depth; i++ {
		v := i
		q.Push(slot.Time(i), &v)
	}
	key, shared := slot.Time(depth), new(int)
	allocs := testing.AllocsPerRun(cycles, func() {
		q.PopMin()
		q.Push(key, shared)
		key++
	})
	if allocs > 0.001 {
		t.Errorf("steady-state pop/push allocates %.4f/op, want ~0 (the backing array should be reused)", allocs)
	}
	if q.Len() != depth {
		t.Fatalf("Len = %d, want %d", q.Len(), depth)
	}
	if c := cap(q.heap); c > 4*depth {
		t.Errorf("backing array grew to cap %d for depth-%d queue", c, depth)
	}
	// Drain: no vacated slot of the backing array may still pin a value.
	for q.Len() > 0 {
		q.PopMin()
	}
	for i, e := range q.heap[:cap(q.heap)] {
		if e.value != nil {
			t.Errorf("vacated slot %d still holds value %v", i, *e.value)
		}
	}
}
