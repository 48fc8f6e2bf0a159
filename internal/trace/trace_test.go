package trace

import (
	"strings"
	"testing"

	"ioguard/internal/hypervisor"
	"ioguard/internal/slot"
	"ioguard/internal/task"
)

func TestEventKindString(t *testing.T) {
	if Execute.String() != "execute" || Complete.String() != "complete" {
		t.Error("event kind names wrong")
	}
	if !strings.Contains(EventKind(9).String(), "9") {
		t.Error("unknown kind should show numerically")
	}
}

func TestRecorderAccumulates(t *testing.T) {
	var r Recorder
	tk := &task.Sporadic{ID: 0, Name: "crc", VM: 0, Period: 10, WCET: 2, Deadline: 10}
	j := task.NewJob(tk, 0, 0)
	r.OnExecute(1, j)
	r.OnExecute(2, j)
	if r.Len() != 2 {
		t.Fatalf("Len = %d", r.Len())
	}
	evs := r.Events()
	if evs[0].At != 1 || evs[1].At != 2 || evs[1].Kind != Execute {
		t.Error("event order wrong")
	}
	slots := r.ExecutedSlots()["crc"]
	if len(slots) != 2 || slots[0] != 1 || slots[1] != 2 {
		t.Errorf("executed slots = %v", slots)
	}
}

func TestGantt(t *testing.T) {
	var r Recorder
	a := &task.Sporadic{ID: 0, Name: "alpha", VM: 0, Period: 10, WCET: 2, Deadline: 10}
	b := &task.Sporadic{ID: 1, Name: "beta", VM: 0, Period: 10, WCET: 1, Deadline: 10}
	ja, jb := task.NewJob(a, 0, 0), task.NewJob(b, 0, 0)
	r.OnExecute(0, ja)
	r.OnExecute(1, jb)
	r.OnExecute(2, ja)
	out := r.Gantt(0, 4)
	if !strings.Contains(out, "alpha") || !strings.Contains(out, "beta") {
		t.Fatalf("gantt missing rows: %s", out)
	}
	lines := strings.Split(strings.TrimRight(out, "\n"), "\n")
	if len(lines) != 3 {
		t.Fatalf("gantt lines = %d", len(lines))
	}
	if !strings.Contains(lines[1], "#.#.") {
		t.Errorf("alpha row = %q, want #.#.", lines[1])
	}
	if !strings.Contains(lines[2], ".#..") {
		t.Errorf("beta row = %q, want .#..", lines[2])
	}
	if r.Gantt(5, 5) != "" {
		t.Error("empty window should render nothing")
	}
}

func TestRecorderWiresIntoManager(t *testing.T) {
	var r Recorder
	m, err := hypervisor.New(hypervisor.Config{VMs: 1, Mode: hypervisor.DirectEDF})
	if err != nil {
		t.Fatal(err)
	}
	m.OnExecute = r.OnExecute
	tk := &task.Sporadic{ID: 0, Name: "op", VM: 0, Period: 100, WCET: 3, Deadline: 100}
	m.Submit(0, task.NewJob(tk, 0, 0))
	for now := slot.Time(0); now < 10; now++ {
		m.Step(now)
	}
	if len(r.ExecutedSlots()["op"]) != 3 {
		t.Errorf("executed slots = %v", r.ExecutedSlots())
	}
}
