// The run loop: one global clock over a system's shards. Each shard
// (typically one device manager) is stepped only in the slots it has
// work or input in and fast-forwarded over the rest, so one busy
// device never forces dense stepping of idle peers.

package system

import (
	"ioguard/internal/faults"
	"ioguard/internal/queue"
	"ioguard/internal/slot"
	"ioguard/internal/task"
	"ioguard/internal/vm"
)

// Shard is one independently-clocked component of a ShardedSystem.
// Its state changes only in the slots it is stepped in: a slot the run
// loop skips is one in which stepping would have changed nothing.
type Shard interface {
	// Devices returns the device names whose released jobs this shard
	// consumes. Every residual device must be owned by exactly one
	// shard; Run rejects a system that leaves one unowned.
	Devices() []string
	// Submit delivers a job released at slot now. The runner calls it
	// before Step(now) — exactly the order a dense run presents
	// submissions in.
	Submit(now slot.Time, j *task.Job)
	// Step runs slot now of the shard's local clock.
	Step(now slot.Time)
	// NextWork returns the earliest slot ≥ now in which Step would
	// change the shard's state: now itself when busy, slot.Never when
	// fully drained. It must be conservative, never optimistic.
	NextWork(now slot.Time) slot.Time
}

// ShardedSystem is a System partitioned into shards that advance on
// decoupled clocks. Run calls Shards once per trial and steps only
// the shards.
type ShardedSystem interface {
	System
	Shards() []Shard
}

// faultedEmit wraps a delivery function with the transport fault
// layer: drops vanish before delivery, duplicates follow their
// original, and delay shifts the delivery due past the release slot.
// The run loop calls it in global release order, which keeps fault
// decisions and their counters independent of which slots each shard
// skips.
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

// run drives one trial on one global clock. In each visited slot it
// delivers the delayed jobs now due, then the slot's fresh releases,
// then steps, in registration order, every shard whose wake slot has
// come. A submission wakes its shard in the current slot. The next
// visited slot is the earliest of the shards' wake slots, the fleet's
// next release and the earliest delayed job. It returns the delayed
// jobs still in transit at the horizon.
//
// After a step at now a shard wakes at NextWork(now+1), clamped so a
// stale answer degrades to stepping and never rewinds. Within a slot
// every submission precedes every step and shards step in
// registration order, the order each system's own Step iterates them,
// so a run reaches the collector in the same sequence as one whose
// shards are busy in every slot (systemtest.Dense), and produces
// byte-identical results.
func run(shards []Shard, route map[string]int, fleet *vm.Fleet, horizon slot.Time, fs *faults.Stream) *queue.PQ[*task.Job] {
	wake := make([]slot.Time, len(shards)) // next slot each shard must be stepped in
	var now slot.Time
	submit := func(j *task.Job) {
		i := route[j.Task.Device]
		shards[i].Submit(now, j)
		wake[i] = now
	}
	emit := submit
	// Delayed jobs wait in one due-ordered queue. They are delivered
	// before the slot's fresh releases, in due then emission order.
	var delayed queue.PQ[*task.Job]
	if fs != nil {
		emit = faultedEmit(fs, func(due slot.Time, j *task.Job) {
			if due > now {
				delayed.Push(due, j)
				return
			}
			submit(j)
		})
	}
	for now < horizon {
		for {
			due, j, ok := delayed.Min()
			if !ok || due > now {
				break
			}
			delayed.PopMin()
			submit(j)
		}
		fleet.Release(now, emit)
		next := fleet.NextRelease()
		for i, sh := range shards {
			if wake[i] <= now {
				sh.Step(now)
				wake[i] = max(sh.NextWork(now+1), now+1)
			}
			next = min(next, wake[i])
		}
		if due, _, ok := delayed.Min(); ok {
			next = min(next, due)
		}
		now = next
	}
	return &delayed
}
