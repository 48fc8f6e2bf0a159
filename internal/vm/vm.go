// Package vm models the guest virtual machines of the evaluation
// platform: each VM runs an RTOS hosting a set of I/O tasks, and the
// fleet's release engine generates the tasks' jobs — periodically for
// pre-defined-style tasks, sporadically (period plus bounded jitter)
// for run-time tasks (Sec. II-B).
//
// The engine is deliberately deterministic given its random source,
// so the same seed produces "identical data input to the examined
// systems in each execution" as required for the paper's fair
// comparisons.
//
// Release generation is heap-batched: the fleet keeps one min-heap
// over every task's next-release slot, so a release slot costs
// O(log tasks) per released job (instead of scanning every task of
// every VM) and NextRelease is O(1). Heap ties break by VM-major task
// position, so within one slot VMs release in VM order and each VM's
// due tasks in task order, exactly like the per-VM scan the heap
// replaced (enforced by the heap-vs-scan property test). The heap is
// not a queue.PQ because a PQ breaks ties by insertion order.
package vm

import (
	"errors"
	"fmt"
	"math/rand"

	"ioguard/internal/slot"
	"ioguard/internal/task"
)

// JitterFunc returns extra release delay (in slots) for the job of t
// with the given sequence number. It must be a pure function of its
// arguments: the fleet consults it while materializing releases, and a
// trial's release schedule has to be identical however the runner
// interleaves that materialization (see the faults package, whose
// Stream.ReleaseJitter satisfies this signature).
type JitterFunc func(t *task.Sporadic, seq int) slot.Time

// Fleet is the release engine of a set of VMs numbered 0..vms-1. Its
// task arrays are indexed by VM-major position: VM 0's tasks in
// task-set order, then VM 1's, and so on.
type Fleet struct {
	specs []*task.Sporadic
	next  []slot.Time
	seq   []int
	// heap holds task positions ordered by (next[i], i): the earliest
	// upcoming release first, ties broken by position.
	heap []int32
	rng  *rand.Rand
	// jitter, when set, adds fault-injected delay to each job's
	// inter-release gap on top of the sporadic model's own bound.
	jitter JitterFunc

	released int64
}

// NewFleet builds the release engine of vms VMs owning the tasks of
// ts; VMs without tasks release nothing. Every task's first release is
// drawn from rng uniformly in [0, Period), in VM-major order, to
// desynchronize the VMs; subsequent releases respect the sporadic
// minimum separation plus up to Jitter extra delay.
func NewFleet(vms int, ts task.Set, rng *rand.Rand) (*Fleet, error) {
	if vms <= 0 {
		return nil, fmt.Errorf("vm: need at least one VM, got %d", vms)
	}
	if rng == nil {
		return nil, errors.New("vm: fleet needs a random source")
	}
	byVM := ts.ByVM()
	for vmID := range byVM {
		if vmID < 0 || vmID >= vms {
			return nil, fmt.Errorf("vm: task set references vm %d outside fleet of %d", vmID, vms)
		}
	}
	f := &Fleet{rng: rng}
	for id := 0; id < vms; id++ {
		for _, t := range byVM[id] {
			if err := t.Validate(); err != nil {
				return nil, err
			}
			spec := t
			f.heap = append(f.heap, int32(len(f.specs)))
			f.specs = append(f.specs, &spec)
			f.next = append(f.next, slot.Time(rng.Int63n(int64(t.Period))))
			f.seq = append(f.seq, 0)
		}
	}
	for i := len(f.heap)/2 - 1; i >= 0; i-- {
		f.siftDown(i)
	}
	return f, nil
}

// SetReleaseJitter installs a fault-injection jitter source. Call
// before the first Release: jitter is materialized into the release
// heap as gaps are computed, so a late install would leave
// already-scheduled releases unperturbed. First releases (sequence 0)
// are drawn uniformly in [0, Period) and are not perturbed further.
func (f *Fleet) SetReleaseJitter(fn JitterFunc) { f.jitter = fn }

// before orders the release heap by (next slot, task position).
func (f *Fleet) before(a, b int32) bool {
	if f.next[a] != f.next[b] {
		return f.next[a] < f.next[b]
	}
	return a < b
}

// siftDown restores the heap property below position i after the key
// at i increased (a task's next release only ever moves later).
func (f *Fleet) siftDown(i int) {
	h := f.heap
	for {
		l, r := 2*i+1, 2*i+2
		m := i
		if l < len(h) && f.before(h[l], h[m]) {
			m = l
		}
		if r < len(h) && f.before(h[r], h[m]) {
			m = r
		}
		if m == i {
			return
		}
		h[i], h[m] = h[m], h[i]
		i = m
	}
}

// Release emits every job due at slot now. Call it at every
// NextRelease slot, in increasing time order — once per slot, or
// jumping straight between NextRelease slots. A slot's jobs then come
// out in VM order, and each VM's in task order.
func (f *Fleet) Release(now slot.Time, emit func(j *task.Job)) {
	for len(f.heap) > 0 {
		i := f.heap[0]
		if f.next[i] > now {
			return
		}
		spec := f.specs[i]
		j := task.NewJob(spec, f.seq[i], f.next[i])
		f.seq[i]++
		f.released++
		gap := spec.Period
		if spec.Jitter > 0 {
			gap += slot.Time(f.rng.Int63n(int64(spec.Jitter) + 1))
		}
		if f.jitter != nil {
			// Fault-injected extra delay for the *next* job (the one
			// whose release this gap determines): keyed by its sequence
			// number so the draw is independent of materialization order.
			gap += f.jitter(spec, f.seq[i])
		}
		f.next[i] += gap
		f.siftDown(0)
		emit(j)
	}
}

// NextRelease returns the earliest upcoming release slot across the
// fleet in O(1), or slot.Never when no VM has tasks. It is exact, not
// a bound: release jitter is materialized into the heap when the
// previous job is released, so the runner may fast-forward straight to
// this slot without missing a release.
func (f *Fleet) NextRelease() slot.Time {
	if len(f.heap) == 0 {
		return slot.Never
	}
	return f.next[f.heap[0]]
}

// Released returns the fleet-wide release count.
func (f *Fleet) Released() int64 { return f.released }
