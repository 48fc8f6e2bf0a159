// Pool: the per-VM I/O pool of the R-channel (Sec. III-A).
//
// Each pool buffers the run-time I/O tasks of one VM in a
// deadline-ordered heap and exposes the earliest-deadline operation to
// the global scheduler as its shadow register. A buffered job's
// deadline never changes, so the register is simply the heap minimum:
// there is no refresh step to keep in sync. Partitioning the pools per
// VM provides inter-VM isolation at the hardware I/O level.
package hypervisor

import (
	"ioguard/internal/queue"
	"ioguard/internal/slot"
	"ioguard/internal/task"
)

// Pool is one VM's I/O pool: a bounded register file of jobs ordered
// by deadline, whose minimum is the shadow register.
type Pool struct {
	vm       int
	capacity int // register-file size; ≤0 = unbounded
	pq       queue.PQ[*task.Job]

	// dropped counts jobs rejected because the pool was full.
	dropped int64
}

// NewPool returns an empty pool for the given VM. capacity bounds the
// buffered jobs (the hardware register file); capacity ≤ 0 means
// unbounded.
func NewPool(vm, capacity int) *Pool {
	return &Pool{vm: vm, capacity: capacity}
}

// VM returns the pool's VM index.
func (p *Pool) VM() int { return p.vm }

// Len returns the number of buffered jobs.
func (p *Pool) Len() int { return p.pq.Len() }

// Dropped returns how many jobs were rejected on a full pool.
func (p *Pool) Dropped() int64 { return p.dropped }

// Admit buffers a run-time job, keyed by its absolute deadline. It
// reports false (and counts a drop) when the pool is full.
func (p *Pool) Admit(j *task.Job) bool {
	if p.capacity > 0 && p.pq.Len() >= p.capacity {
		p.dropped++
		return false
	}
	p.pq.Push(j.Deadline, j)
	return true
}

// Shadow returns the job visible to the global scheduler — the
// pool's earliest-deadline job, ties in admission order — and its
// deadline (the local scheduler's pick, L-Sched).
func (p *Pool) Shadow() (deadline slot.Time, j *task.Job, ok bool) {
	return p.pq.Min()
}

// Pop removes the shadow job (the executor finished it).
func (p *Pool) Pop() { p.pq.PopMin() }

// Each visits every buffered job.
func (p *Pool) Each(visit func(j *task.Job)) {
	p.pq.Each(func(_ slot.Time, j *task.Job) { visit(j) })
}
