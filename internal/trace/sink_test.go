package trace

import (
	"testing"

	"ioguard/internal/task"
)

func TestCSVSinkStickyError(t *testing.T) {
	tk := &task.Sporadic{ID: 0, Name: "x", VM: 0, Period: 10, WCET: 1, Deadline: 10}
	sink, err := NewCSVSink(&failingWriter{left: 64})
	if err != nil {
		t.Fatal(err)
	}
	for i := 0; i < 200; i++ {
		sink.OnExecute(0, task.NewJob(tk, i, 0))
	}
	if err := sink.Flush(); err == nil {
		t.Error("write error swallowed")
	}
}
