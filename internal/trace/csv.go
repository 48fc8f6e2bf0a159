// CSV export of execution traces, for offline analysis of schedules
// in spreadsheet/plotting tools: the row format CSVSink writes.
package trace

import (
	"strconv"

	"ioguard/internal/slot"
	"ioguard/internal/task"
)

// csvHeader is the column layout of CSVSink.
var csvHeader = []string{"slot", "event", "task", "vm", "job", "deadline"}

// csvRecord formats one event into row, which must have
// len(csvHeader) cells; reusing the caller's row keeps the per-event
// path allocation-light.
func csvRecord(row []string, at slot.Time, kind EventKind, j *task.Job) {
	row[0] = strconv.FormatInt(int64(at), 10)
	row[1] = kind.String()
	row[2] = j.Task.Name
	row[3] = strconv.Itoa(j.Task.VM)
	row[4] = strconv.Itoa(j.Seq)
	row[5] = strconv.FormatInt(int64(j.Deadline), 10)
}
