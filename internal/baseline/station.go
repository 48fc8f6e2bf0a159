// Package baseline implements the three comparison systems of the
// evaluation (Sec. V): BS|Legacy (no virtualization, router-level
// FIFO arbitration), BS|RT-XEN (software hypervisor with real-time
// patches and I/O enhancement) and BS|BV (BlueVisor-style hardware-
// assisted virtualization with FIFO I/O queues).
//
// All three share the traditional I/O controller structure this
// paper's Sec. I identifies as the hardware-level obstacle: FIFO
// queues that forbid context switches, so an operation that has
// started occupies the device until it completes (no preemption, no
// prioritization).
package baseline

import (
	"fmt"

	"ioguard/internal/queue"
	"ioguard/internal/slot"
	"ioguard/internal/task"
)

// controllerSetupSlots is the per-operation setup cost a software-
// driven conventional controller pays before the transfer starts
// (register programming, descriptor fetch). It occupies the device,
// so it inflates the effective utilization of every baseline.
const controllerSetupSlots slot.Time = 3

// station models one I/O device with a conventional (non-preemptive)
// controller: at most one operation in service; waiting operations
// queue in FIFOs whose heads are served round-robin.
type station struct {
	setup slot.Time // per-operation controller setup, charged at service start
	// queues holds the waiting operations: one FIFO shared by all VMs
	// (the legacy controllers' global FIFO) or one per VM
	// (BlueVisor's parallel per-VM buffering).
	queues []*queue.FIFO[*task.Job]
	// perVM files each operation under its VM's queue and rejects a
	// VM that has none.
	perVM   bool
	rrNext  int
	current *task.Job
	// lastSlot is the current operation's last service slot, fixed
	// when service starts: the controller is non-preemptive, so the
	// operation's end is known then.
	lastSlot slot.Time
	// respond is called when an operation completes; finished is the
	// first slot after the last service slot.
	respond func(j *task.Job, finished slot.Time)

	served int64
}

// newStation builds a station with one global FIFO, or with one FIFO
// for each of vms VMs when perVM is set.
func newStation(name string, perVM bool, vms int, setup slot.Time, respond func(*task.Job, slot.Time)) (*station, error) {
	n := 1
	if perVM {
		if vms <= 0 {
			return nil, fmt.Errorf("baseline: station %s needs VMs for round-robin", name)
		}
		n = vms
	}
	st := &station{setup: setup, perVM: perVM, respond: respond}
	for i := 0; i < n; i++ {
		st.queues = append(st.queues, queue.NewFIFO[*task.Job](0))
	}
	return st, nil
}

// enqueue admits an operation to its waiting queue. It reports false
// when a per-VM station has no queue for the operation's VM.
func (st *station) enqueue(j *task.Job) bool {
	q := 0
	if st.perVM {
		q = j.Task.VM
		if q < 0 || q >= len(st.queues) {
			return false
		}
	}
	st.queues[q].Push(j)
	return true
}

// next pops the operation the controller serves next, or nil.
func (st *station) next() *task.Job {
	n := len(st.queues)
	for k := 0; k < n; k++ {
		if j, ok := st.queues[(st.rrNext+k)%n].Pop(); ok {
			st.rrNext = (st.rrNext + k + 1) % n
			return j
		}
	}
	return nil
}

// step advances the controller one slot: it pulls the next operation
// when idle and completes the current one in its last service slot.
// The slots in between change nothing, so stepping them is optional.
func (st *station) step(now slot.Time) {
	if st.current == nil {
		st.current = st.next()
		if st.current == nil {
			return
		}
		st.current.Remaining += st.setup
		st.lastSlot = now + st.current.Remaining - 1
	}
	if now < st.lastSlot {
		return
	}
	j := st.current
	j.Advance(j.Remaining, now)
	st.current = nil
	st.served++
	st.respond(j, now+1)
}

// nextWork is the station's next state change at or after now: the
// last service slot of its in-service operation, now when it must
// pull from a backlog, and slot.Never when drained.
func (st *station) nextWork(now slot.Time) slot.Time {
	switch {
	case st.current != nil:
		return st.lastSlot
	case st.backlog() > 0:
		return now
	}
	return slot.Never
}

// pendingJobs visits queued and in-service operations.
func (st *station) pendingJobs(visit func(j *task.Job)) {
	if st.current != nil {
		visit(st.current)
	}
	for _, q := range st.queues {
		q.Each(visit)
	}
}

// backlog returns the number of waiting (not in-service) operations.
func (st *station) backlog() int {
	n := 0
	for _, q := range st.queues {
		n += q.Len()
	}
	return n
}
