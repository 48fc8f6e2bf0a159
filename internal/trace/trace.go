// Package trace records slot-level execution traces of the
// hypervisor (which job ran in which slot, when jobs completed). The
// Recorder keeps executed slots and renders them as ASCII Gantt
// charts; CSVSink streams every event as a CSV row. The paper's
// predictability claims are about *when* operations run; the trace
// makes that visible for the examples and for debugging schedules.
package trace

import (
	"fmt"
	"sort"
	"strings"

	"ioguard/internal/slot"
	"ioguard/internal/task"
)

// Event is one recorded occurrence.
type Event struct {
	At   slot.Time
	Kind EventKind
	Job  *task.Job
}

// EventKind classifies trace events.
type EventKind uint8

// Trace event kinds.
const (
	Execute EventKind = iota
	Complete
)

// String returns the event-kind name.
func (k EventKind) String() string {
	switch k {
	case Execute:
		return "execute"
	case Complete:
		return "complete"
	default:
		return fmt.Sprintf("kind(%d)", uint8(k))
	}
}

// Recorder accumulates execution events for Gantt rendering. The zero
// value is ready to use.
type Recorder struct {
	events []Event
}

// OnExecute records one executed slot; wire it to
// hypervisor.Manager.OnExecute.
func (r *Recorder) OnExecute(now slot.Time, j *task.Job) {
	r.events = append(r.events, Event{At: now, Kind: Execute, Job: j})
}

// Len returns the number of recorded events.
func (r *Recorder) Len() int { return len(r.events) }

// Events returns a copy of the recorded events in record order.
func (r *Recorder) Events() []Event {
	return append([]Event(nil), r.events...)
}

// ExecutedSlots returns, per task name, the slots it executed in.
func (r *Recorder) ExecutedSlots() map[string][]slot.Time {
	out := map[string][]slot.Time{}
	for _, e := range r.events {
		if e.Kind == Execute {
			out[e.Job.Task.Name] = append(out[e.Job.Task.Name], e.At)
		}
	}
	return out
}

// Gantt renders the execution trace between slots [from, to) as an
// ASCII chart: one row per task, '#' for an executed slot, '.' for an
// idle one.
func (r *Recorder) Gantt(from, to slot.Time) string {
	if to <= from {
		return ""
	}
	rows := r.ExecutedSlots()
	names := make([]string, 0, len(rows))
	for n := range rows {
		names = append(names, n)
	}
	sort.Strings(names)
	width := int(to - from)
	var b strings.Builder
	fmt.Fprintf(&b, "%-18s slots %d..%d\n", "task", from, to-1)
	for _, n := range names {
		line := make([]byte, width)
		for i := range line {
			line[i] = '.'
		}
		for _, s := range rows[n] {
			if s >= from && s < to {
				line[s-from] = '#'
			}
		}
		fmt.Fprintf(&b, "%-18s %s\n", n, line)
	}
	return b.String()
}
