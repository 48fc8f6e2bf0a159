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

// discipline selects how a station queues waiting operations.
type discipline uint8

const (
	// globalFIFO is a single first-come queue shared by all VMs
	// (legacy I/O controllers).
	globalFIFO discipline = iota
	// perVMRoundRobin keeps one FIFO per VM and serves their heads
	// round-robin (BlueVisor's parallel per-VM buffering).
	perVMRoundRobin
)

// controllerSetupSlots is the per-operation setup cost a software-
// driven conventional controller pays before the transfer starts
// (register programming, descriptor fetch). It occupies the device,
// so it inflates the effective utilization of every baseline.
const controllerSetupSlots slot.Time = 3

// station models one I/O device with a conventional (non-preemptive)
// controller: at most one operation in service; waiting operations
// queue under the configured discipline.
type station struct {
	name    string
	disc    discipline
	setup   slot.Time // per-operation controller setup, charged at service start
	global  *queue.FIFO[*task.Job]
	perVM   []*queue.FIFO[*task.Job]
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

// newStation builds a station. vms is required for perVMRoundRobin.
func newStation(name string, disc discipline, vms int, setup slot.Time, respond func(*task.Job, slot.Time)) (*station, error) {
	st := &station{name: name, disc: disc, setup: setup, respond: respond}
	switch disc {
	case globalFIFO:
		st.global = queue.NewFIFO[*task.Job](0)
	case perVMRoundRobin:
		if vms <= 0 {
			return nil, fmt.Errorf("baseline: station %s needs VMs for round-robin", name)
		}
		for i := 0; i < vms; i++ {
			st.perVM = append(st.perVM, queue.NewFIFO[*task.Job](0))
		}
	default:
		return nil, fmt.Errorf("baseline: unknown discipline %d", disc)
	}
	return st, nil
}

// enqueue admits an operation to the waiting queue(s).
func (st *station) enqueue(j *task.Job) error {
	switch st.disc {
	case globalFIFO:
		st.global.Push(j)
	case perVMRoundRobin:
		vm := j.Task.VM
		if vm < 0 || vm >= len(st.perVM) {
			return fmt.Errorf("baseline: station %s: vm %d out of range", st.name, vm)
		}
		st.perVM[vm].Push(j)
	}
	return nil
}

// next pops the operation the controller serves next, or nil.
func (st *station) next() *task.Job {
	switch st.disc {
	case globalFIFO:
		j, _ := st.global.Pop()
		return j
	case perVMRoundRobin:
		n := len(st.perVM)
		for k := 0; k < n; k++ {
			q := st.perVM[(st.rrNext+k)%n]
			if j, ok := q.Pop(); ok {
				st.rrNext = (st.rrNext + k + 1) % n
				return j
			}
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
	switch st.disc {
	case globalFIFO:
		st.global.Each(visit)
	case perVMRoundRobin:
		for _, q := range st.perVM {
			q.Each(visit)
		}
	}
}

// backlog returns the number of waiting (not in-service) operations.
func (st *station) backlog() int {
	switch st.disc {
	case globalFIFO:
		return st.global.Len()
	case perVMRoundRobin:
		n := 0
		for _, q := range st.perVM {
			n += q.Len()
		}
		return n
	}
	return 0
}
