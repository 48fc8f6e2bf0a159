package trace

import (
	"bytes"
	"encoding/csv"
	"errors"
	"strings"
	"testing"

	"ioguard/internal/task"
)

func TestCSVSinkRows(t *testing.T) {
	tk := &task.Sporadic{ID: 0, Name: "crc", VM: 2, Period: 10, WCET: 2, Deadline: 8}
	j := task.NewJob(tk, 3, 0)
	var buf bytes.Buffer
	sink, err := NewCSVSink(&buf)
	if err != nil {
		t.Fatal(err)
	}
	sink.OnExecute(1, j)
	sink.OnComplete(j, 4)
	if err := sink.Flush(); err != nil {
		t.Fatal(err)
	}
	rows, err := csv.NewReader(&buf).ReadAll()
	if err != nil {
		t.Fatal(err)
	}
	if len(rows) != 3 { // header + 2 events
		t.Fatalf("rows = %d", len(rows))
	}
	if strings.Join(rows[0], ",") != "slot,event,task,vm,job,deadline" {
		t.Errorf("header = %v", rows[0])
	}
	if rows[1][1] != "execute" || rows[2][1] != "complete" {
		t.Errorf("event column wrong: %v", rows)
	}
	if rows[1][0] != "1" || rows[1][2] != "crc" || rows[1][3] != "2" || rows[1][4] != "3" || rows[1][5] != "8" {
		t.Errorf("execute row = %v", rows[1])
	}
	if rows[2][0] != "4" {
		t.Errorf("complete row = %v, want slot 4", rows[2])
	}
}

// failingWriter errors after n bytes, exercising the error paths.
type failingWriter struct{ left int }

func (f *failingWriter) Write(p []byte) (int, error) {
	if len(p) > f.left {
		return 0, errors.New("disk full")
	}
	f.left -= len(p)
	return len(p), nil
}
