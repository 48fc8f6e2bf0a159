// Package queue implements the queueing structures of the I/O-GUARD
// hypervisor (Sec. III-A of Jiang et al., DAC'21) and of the baseline
// systems:
//
//   - PQ is the deadline-ordered binary min-heap behind each
//     R-channel I/O pool. The paper's pool is a random-access priority
//     queue whose local scheduler maps the earliest-deadline entry
//     into a shadow register; a queued key never changes, so the
//     register is always the heap minimum and the heap is all the
//     simulator needs. The same heap keys other slot-ordered work:
//     the manager's pre-defined tasks by next release, and delayed
//     jobs by due slot.
//   - FIFO is the conventional bounded first-in/first-out queue found
//     in traditional I/O controllers and the baseline systems; it
//     forbids context switches at the hardware level.
package queue

import "ioguard/internal/slot"

// entry is one buffered value with its deadline key.
type entry[T any] struct {
	key   slot.Time // absolute deadline (EDF priority)
	seq   int64     // insertion sequence, breaks ties FIFO
	value T
}

// PQ is an unbounded binary min-heap ordered by (key, insertion
// order): Min returns the entry with the earliest deadline, ties
// broken FIFO (matching the deterministic hardware comparator tree).
// The zero value is an empty queue.
//
// Entries are stored by value and a pop zeroes the vacated slot, so
// steady-state push/pop traffic is allocation-free and popped values
// (e.g. *task.Job) become collectable at once.
type PQ[T any] struct {
	heap    []entry[T]
	nextSeq int64
}

// Len returns the number of buffered entries.
func (q *PQ[T]) Len() int { return len(q.heap) }

// Push inserts value with the given deadline key.
func (q *PQ[T]) Push(key slot.Time, value T) {
	q.heap = append(q.heap, entry[T]{key: key, seq: q.nextSeq, value: value})
	q.nextSeq++
	q.up(len(q.heap) - 1)
}

// Min returns the key and value of the earliest-deadline entry without
// removing it. ok is false when the queue is empty.
func (q *PQ[T]) Min() (key slot.Time, value T, ok bool) {
	if len(q.heap) == 0 {
		return 0, value, false
	}
	return q.heap[0].key, q.heap[0].value, true
}

// PopMin removes and returns the earliest-deadline entry: the last
// entry moves to the root and sifts down.
func (q *PQ[T]) PopMin() (key slot.Time, value T, ok bool) {
	if len(q.heap) == 0 {
		return 0, value, false
	}
	key, value = q.heap[0].key, q.heap[0].value
	last := len(q.heap) - 1
	q.heap[0] = q.heap[last]
	q.heap[last] = entry[T]{}
	q.heap = q.heap[:last]
	q.down(0)
	return key, value, true
}

// Each visits every buffered entry in heap-array order.
func (q *PQ[T]) Each(visit func(key slot.Time, value T)) {
	for _, e := range q.heap {
		visit(e.key, e.value)
	}
}

// less orders by (key, seq): earliest deadline first, FIFO on ties.
func (q *PQ[T]) less(i, j int) bool {
	a, b := &q.heap[i], &q.heap[j]
	if a.key != b.key {
		return a.key < b.key
	}
	return a.seq < b.seq
}

func (q *PQ[T]) up(i int) {
	for i > 0 {
		p := (i - 1) / 2
		if !q.less(i, p) {
			return
		}
		q.heap[i], q.heap[p] = q.heap[p], q.heap[i]
		i = p
	}
}

func (q *PQ[T]) down(i int) {
	for {
		l, r := 2*i+1, 2*i+2
		m := i
		if l < len(q.heap) && q.less(l, m) {
			m = l
		}
		if r < len(q.heap) && q.less(r, m) {
			m = r
		}
		if m == i {
			return
		}
		q.heap[i], q.heap[m] = q.heap[m], q.heap[i]
		i = m
	}
}

// FIFO is a bounded first-in/first-out queue, the structure of
// conventional I/O controllers (Sec. I: "the implementation of
// traditional I/O controllers relies on FIFO queues, which forbids
// context switches at the hardware level"). The zero value is an
// unbounded empty queue.
//
// Dequeued slots are zeroed immediately (so popped values — e.g.
// *task.Job — become collectable) and the backing array is compacted
// once the dead prefix exceeds the live half, keeping memory bounded
// by the peak queue depth over arbitrarily long horizons.
type FIFO[T any] struct {
	items []T
	head  int // index of the current head within items
	cap   int // 0 = unbounded
}

// NewFIFO returns an empty FIFO; capacity ≤ 0 means unbounded.
func NewFIFO[T any](capacity int) *FIFO[T] { return &FIFO[T]{cap: capacity} }

// Len returns the number of queued items.
func (f *FIFO[T]) Len() int { return len(f.items) - f.head }

// Full reports whether a bounded FIFO cannot accept another item.
func (f *FIFO[T]) Full() bool { return f.cap > 0 && f.Len() >= f.cap }

// Push enqueues v; it reports false when the FIFO is full (the
// hardware back-pressures the producer).
func (f *FIFO[T]) Push(v T) bool {
	if f.Full() {
		return false
	}
	f.items = append(f.items, v)
	return true
}

// Peek returns the head item without dequeuing it.
func (f *FIFO[T]) Peek() (T, bool) {
	if f.head >= len(f.items) {
		var zero T
		return zero, false
	}
	return f.items[f.head], true
}

// Pop dequeues and returns the head item.
func (f *FIFO[T]) Pop() (T, bool) {
	var zero T
	if f.head >= len(f.items) {
		return zero, false
	}
	v := f.items[f.head]
	f.items[f.head] = zero
	f.head++
	if f.head > len(f.items)-f.head {
		// The dead prefix outweighs the live tail: shift the live
		// items down and zero the vacated suffix so no stale
		// references survive in the backing array. Amortized O(1):
		// the copied count is below half the elements popped since
		// the previous compaction.
		n := copy(f.items, f.items[f.head:])
		tail := f.items[n:]
		for i := range tail {
			tail[i] = zero
		}
		f.items = f.items[:n]
		f.head = 0
	}
	return v, true
}

// Each visits the queued items from head to tail.
func (f *FIFO[T]) Each(visit func(v T)) {
	for _, v := range f.items[f.head:] {
		visit(v)
	}
}
