// Sharded execution: per-component virtual clocks for systems whose
// components are independent except for the shared release engine.
// Each shard (typically one device manager) advances through its own
// busy/idle regions on a sim.ShardSet, so one busy device no longer
// forces dense stepping of idle peers — the fast-forward win becomes
// per-device instead of all-or-nothing.

package system

import (
	"ioguard/internal/faults"
	"ioguard/internal/queue"
	"ioguard/internal/sim"
	"ioguard/internal/slot"
	"ioguard/internal/task"
	"ioguard/internal/vm"
)

// Shard is one independently-clocked component of a ShardedSystem. It
// satisfies sim.Clocked; implementations that keep per-slot counters
// over idle spans additionally implement sim.Skipper.
type Shard interface {
	// Devices returns the device names whose released jobs this shard
	// consumes. Every residual device must be owned by exactly one
	// shard; jobs for unowned devices fall back to System.Submit.
	Devices() []string
	// Submit delivers a job released at slot now. The runner calls it
	// with now equal to both the job's release slot and the shard's
	// local clock, immediately before Step(now) — exactly the order a
	// dense run presents submissions in.
	Submit(now slot.Time, j *task.Job)
	// Step advances the shard one slot of its local clock.
	Step(now slot.Time)
	// NextWork is the sim.Quiescer contract against the local clock.
	NextWork(now slot.Time) slot.Time
}

// ShardedSystem is a System whose components can advance on
// decoupled per-component clocks. Shards() partitions the system;
// the monolithic Step/Submit remain available for dense runs.
type ShardedSystem interface {
	System
	Shards() []Shard
}

// relBuf buffers one shard's pending submissions in due order. A clean
// trial's dues are the release slots themselves, which arrive monotone
// (the fleet drains in global release order), so a plain FIFO holds
// them; fault-injected transport delay makes dues non-monotone, so
// faulted trials pay for a priority queue instead. The PQ breaks equal
// keys in insertion order, so whenever dues happen to be monotone the
// two representations drain identically.
type relBuf struct {
	fifo *queue.FIFO[*task.Job]
	pq   *queue.PQ[*task.Job]
}

func newRelBuf(faulted bool) *relBuf {
	if faulted {
		return &relBuf{pq: queue.NewPQ[*task.Job](0)}
	}
	return &relBuf{fifo: queue.NewFIFO[*task.Job](0)}
}

// push enqueues j for delivery at due. The FIFO form requires (and the
// clean runner guarantees) due == j.Release in arrival order.
func (b *relBuf) push(due slot.Time, j *task.Job) {
	if b.pq != nil {
		b.pq.Push(due, j)
		return
	}
	b.fifo.Push(j)
}

// peek returns the earliest-due buffered job.
func (b *relBuf) peek() (slot.Time, *task.Job, bool) {
	if b.pq != nil {
		_, due, j, ok := b.pq.Min()
		return due, j, ok
	}
	j, ok := b.fifo.Peek()
	if !ok {
		return 0, nil, false
	}
	return j.Release, j, true
}

// pop removes the earliest-due buffered job.
func (b *relBuf) pop() {
	if b.pq != nil {
		b.pq.PopMin()
		return
	}
	b.fifo.Pop()
}

// faultedEmit wraps a delivery function — the sharded executor's
// mailbox routing or the dense loop's submit — with the transport
// fault layer: drops vanish before delivery, duplicates follow their
// original, and delay shifts the delivery due past the release slot.
// Both loops call it in global release order on one goroutine, which
// keeps fault decisions and their counters identical across modes.
func faultedEmit(fs *faults.Stream, put func(due slot.Time, j *task.Job)) func(j *task.Job) {
	return func(j *task.Job) {
		a := fs.Transport(j)
		if a.Drop {
			return
		}
		due := j.Release + a.Delay
		put(due, j)
		if a.Dup {
			put(due, fs.DupJob(j))
		}
	}
}

// epochSpan is the sharded executor's window in slots. Each epoch
// first drains every fleet release below its end into the shard
// mailboxes, then runs the shards to that end; an epoch whose span ends
// in a release gap stretches to the next release, so an idle gap costs
// one epoch however long it is. The span bounds only how many releases
// sit mailboxed at once, never results, so it is a constant.
const epochSpan = 4096

// runSharded drives one trial on decoupled per-shard clocks, one epoch
// [start, end) at a time:
//
//  1. drain: every fleet release below end is materialized in global
//     release order — keeping the jitter RNG and fault-stream sequence
//     identical to a dense run — and routed through the transport
//     layer into its shard's due-ordered mailbox;
//  2. run: sim.ShardSet.Run advances every shard to end on the
//     laggard-first (slot, shard) schedule. A shard's horizon is its
//     mailbox head: every job due below end is already mailboxed (its
//     release is ≤ its due), and a delayed job due at or past end just
//     waits in the mailbox across epochs.
//
// Because ShardSet executes (slot, shard) pairs in lexicographic order
// and shards are registered in the same order the monolithic Step
// iterates them, completions reach the collector in exactly the dense
// order — byte-identical results, enforced by the equivalence tests.
func runSharded(shards []Shard, fleet *vm.Fleet, horizon slot.Time, fs *faults.Stream, fallback func(j *task.Job)) {
	set := sim.NewShardSet()
	route := make(map[string]int, len(shards))
	bufs := make([]*relBuf, len(shards))
	for i, sh := range shards {
		set.Add(sh)
		bufs[i] = newRelBuf(fs != nil)
		for _, d := range sh.Devices() {
			route[d] = i
		}
	}
	put := func(due slot.Time, j *task.Job) {
		if i, ok := route[j.Task.Device]; ok {
			bufs[i].push(due, j)
			return
		}
		// No shard owns the device; hand the job to the monolithic
		// submission path (which counts the drop, like a dense run).
		fallback(j)
	}
	emit := func(j *task.Job) { put(j.Release, j) }
	if fs != nil {
		emit = faultedEmit(fs, put)
	}
	feed := func(i int, now slot.Time) {
		b := bufs[i]
		for {
			due, j, ok := b.peek()
			if !ok || due > now {
				break
			}
			b.pop()
			shards[i].Submit(now, j)
		}
	}
	hz := func(i int, limit slot.Time) slot.Time {
		if due, _, ok := bufs[i].peek(); ok {
			return due
		}
		return limit
	}
	for start := slot.Time(0); start < horizon; {
		end := min(start+epochSpan, horizon)
		for {
			nr := fleet.NextRelease()
			if nr >= end {
				// Nothing releases in [end, nr): run through the gap.
				end = min(nr, horizon)
				break
			}
			fleet.Release(nr, emit)
		}
		set.Run(end, feed, hz)
		start = end
	}
}
