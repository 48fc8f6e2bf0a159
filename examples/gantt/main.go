// Gantt: visualize the hypervisor's slot-level schedule — the
// P-channel running its pre-defined task in its fixed table slots,
// and the preemptive R-channel EDF interleaving two VMs' run-time
// jobs in the free slots (a later-submitted tighter-deadline job
// preempts at a slot boundary, which no FIFO controller can do).
//
//	go run ./examples/gantt
package main

import (
	"fmt"
	"log"

	"ioguard/internal/hypervisor"
	"ioguard/internal/slot"
	"ioguard/internal/task"
	"ioguard/internal/trace"
)

func main() {
	// σ*: the pre-defined "sensor-poll" task owns 2 of every 8 slots.
	tab, _, err := slot.Build([]slot.Requirement{
		{ID: 0, Period: 8, WCET: 2, Deadline: 8},
	})
	if err != nil {
		log.Fatal(err)
	}
	mgr, err := hypervisor.New(hypervisor.Config{
		VMs:   2,
		Table: tab,
		Mode:  hypervisor.DirectEDF,
	})
	if err != nil {
		log.Fatal(err)
	}
	rec := &trace.Recorder{}
	mgr.OnExecute = rec.OnExecute
	mgr.OnComplete = func(j *task.Job, at slot.Time) {
		fmt.Printf("t=%3d  completed %s (deadline %d, %s)\n", at, j.Task.Name, j.Deadline,
			missOrMet(at, j.Deadline))
	}

	sensor := &task.Sporadic{ID: 0, Name: "sensor-poll", VM: 0, Period: 8, WCET: 2, Deadline: 8}
	if err := mgr.Preload(sensor, 0, 0); err != nil {
		log.Fatal(err)
	}

	bulk := &task.Sporadic{ID: 1, Name: "bulk-write", VM: 0, Period: 64, WCET: 14, Deadline: 60}
	urgent := &task.Sporadic{ID: 2, Name: "urgent-read", VM: 1, Period: 64, WCET: 3, Deadline: 12}

	// The bulk write arrives first; the urgent read arrives later with
	// a tighter deadline and preempts it on the next free slot.
	const horizon = 48
	for now := slot.Time(0); now < horizon; now++ {
		if now == 1 {
			mgr.Submit(now, task.NewJob(bulk, 0, now))
		}
		if now == 9 {
			mgr.Submit(now, task.NewJob(urgent, 0, now))
		}
		mgr.Step(now)
	}

	fmt.Println()
	fmt.Print(rec.Gantt(0, horizon))
	st := mgr.Stats()
	fmt.Printf("\nP-slots used=%d  R-slots used=%d  idle=%d  preemptions=%d\n",
		st.PSlotsUsed, st.RSlotsUsed, horizon-st.PSlotsUsed-st.RSlotsUsed, st.Preemptions)
}

func missOrMet(at, deadline slot.Time) string {
	if at > deadline {
		return "MISSED"
	}
	return "met"
}
