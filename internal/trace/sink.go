// CSVSink: the trace export. The sink writes each event's CSV row the
// moment it is recorded — wire OnExecute to
// hypervisor.Manager.OnExecute and OnComplete to
// system.Collector.Observe — so export works in bounded memory in
// either metrics mode.
package trace

import (
	"encoding/csv"
	"fmt"
	"io"

	"ioguard/internal/slot"
	"ioguard/internal/task"
)

// CSVSink writes trace events to a CSV stream as they happen.
// Construct with NewCSVSink; call Flush (and check its error) when the
// run finishes. Errors are sticky: the first write failure is kept and
// later events are dropped, so the hot path never has to handle one.
type CSVSink struct {
	cw  *csv.Writer
	row []string
	err error
}

// NewCSVSink returns a sink writing to w, with the header row already
// emitted.
func NewCSVSink(w io.Writer) (*CSVSink, error) {
	cw := csv.NewWriter(w)
	if err := cw.Write(csvHeader); err != nil {
		return nil, fmt.Errorf("trace: writing csv header: %w", err)
	}
	return &CSVSink{cw: cw, row: make([]string, len(csvHeader))}, nil
}

// event writes one row unless a previous write already failed.
func (s *CSVSink) event(at slot.Time, kind EventKind, j *task.Job) {
	if s.err != nil {
		return
	}
	csvRecord(s.row, at, kind, j)
	s.err = s.cw.Write(s.row)
}

// OnExecute records one executed slot; wire it to
// hypervisor.Manager.OnExecute.
func (s *CSVSink) OnExecute(now slot.Time, j *task.Job) { s.event(now, Execute, j) }

// OnComplete records an observed completion; wire it to
// system.Collector.Observe.
func (s *CSVSink) OnComplete(j *task.Job, at slot.Time) { s.event(at, Complete, j) }

// Flush drains buffered rows and returns the first error encountered
// by any write since construction.
func (s *CSVSink) Flush() error {
	s.cw.Flush()
	if s.err == nil {
		s.err = s.cw.Error()
	}
	if s.err != nil {
		return fmt.Errorf("trace: streaming csv: %w", s.err)
	}
	return nil
}
