// Pool: the per-VM I/O pool of the R-channel (Sec. III-A).
//
// Each pool buffers the run-time I/O tasks of one VM in a
// random-access priority queue whose extra parameter slots hold the
// jobs' deadlines, and exposes the earliest-deadline operation to the
// global scheduler through a shadow register. Partitioning the pools
// per VM provides inter-VM isolation at the hardware I/O level.
package hypervisor

import (
	"fmt"
	"sync/atomic"

	"ioguard/internal/queue"
	"ioguard/internal/slot"
	"ioguard/internal/task"
)

// Pool is one VM's I/O pool: priority queue + control logic + shadow
// register + local scheduler.
type Pool struct {
	vm     int
	pq     *queue.PQ[*task.Job]
	shadow queue.Shadow[*task.Job]

	// handles maps the buffered jobs back to their queue handles so
	// the executor can remove a completed job in place.
	handles map[*task.Job]queue.Handle

	// dropped counts jobs rejected because the queue was full. Atomic:
	// Dropped may be read from another goroutine while a trial runs
	// (counter snapshots, the server's stats endpoint).
	dropped atomic.Int64
}

// NewPool returns an empty pool for the given VM. capacity bounds the
// priority queue (the hardware register file); capacity ≤ 0 means
// unbounded.
func NewPool(vm, capacity int) *Pool {
	return &Pool{
		vm:      vm,
		pq:      queue.NewPQ[*task.Job](capacity),
		handles: make(map[*task.Job]queue.Handle),
	}
}

// VM returns the pool's VM index.
func (p *Pool) VM() int { return p.vm }

// Len returns the number of buffered jobs.
func (p *Pool) Len() int { return p.pq.Len() }

// Dropped returns how many jobs were rejected on a full queue.
func (p *Pool) Dropped() int64 { return p.dropped.Load() }

// Admit buffers a run-time job, keyed by its absolute deadline. It
// reports false (and counts a drop) when the pool is full. The shadow
// register is left as is; the manager runs Schedule after each
// admission.
func (p *Pool) Admit(j *task.Job) bool {
	h, err := p.pq.Push(j.Deadline, j)
	if err != nil {
		p.dropped.Add(1)
		return false
	}
	p.handles[j] = h
	return true
}

// Schedule runs the local scheduler (L-Sched): it finds the buffered
// job with the earliest deadline and maps it into the shadow register
// for the global scheduler to consider. An empty pool clears the
// register. Running it after every change to the queue (Admit,
// Remove) keeps the register equal to a per-slot refresh: a queued
// job's key never changes, so neither does the minimum between
// changes.
func (p *Pool) Schedule() {
	_, key, j, ok := p.pq.Min()
	if !ok {
		p.shadow.Clear()
		return
	}
	p.shadow.Load(key, j)
}

// Shadow returns the job currently visible to the global scheduler
// (the content of the shadow register) and its deadline.
func (p *Pool) Shadow() (deadline slot.Time, j *task.Job, ok bool) {
	return p.shadow.Peek()
}

// Remove deletes a job from the pool (the executor finished it or the
// system retired it).
func (p *Pool) Remove(j *task.Job) error {
	h, ok := p.handles[j]
	if !ok {
		return fmt.Errorf("hypervisor: job %v not in pool %d", j, p.vm)
	}
	if _, ok := p.pq.Remove(h); !ok {
		return fmt.Errorf("hypervisor: handle for %v stale in pool %d", j, p.vm)
	}
	delete(p.handles, j)
	p.Schedule() // refresh the shadow register
	return nil
}

// Each visits every buffered job.
func (p *Pool) Each(visit func(j *task.Job)) {
	p.pq.Each(func(_ queue.Handle, _ slot.Time, j *task.Job) { visit(j) })
}
