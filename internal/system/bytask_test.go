package system

import (
	"strings"
	"testing"

	"ioguard/internal/task"
)

func TestByTask(t *testing.T) {
	c := &Collector{}
	c.TrackByTask()
	a := &task.Sporadic{ID: 0, Name: "alpha", Period: 20, WCET: 1, Deadline: 10}
	b := &task.Sporadic{ID: 1, Name: "beta", Period: 20, WCET: 1, Deadline: 10}
	c.Complete(task.NewJob(a, 0, 0), 5)   // on time
	c.Complete(task.NewJob(a, 1, 20), 35) // late (deadline 30)
	c.Complete(task.NewJob(b, 0, 0), 2)
	stats := c.ByTask()
	if len(stats) != 2 {
		t.Fatalf("stats = %d tasks", len(stats))
	}
	sa := stats[0]
	if sa.Completed != 2 || sa.Misses != 1 {
		t.Errorf("alpha = %+v", sa)
	}
	if sa.Response.Mean() != 10 { // (5 + 15) / 2
		t.Errorf("alpha mean response = %v", sa.Response.Mean())
	}
	if stats[1].Misses != 0 {
		t.Errorf("beta misses = %d", stats[1].Misses)
	}
}

func TestRenderByTaskOrdersByMisses(t *testing.T) {
	c := &Collector{}
	c.TrackByTask()
	good := &task.Sporadic{ID: 0, Name: "good", Period: 20, WCET: 1, Deadline: 10}
	bad := &task.Sporadic{ID: 1, Name: "bad", Period: 20, WCET: 1, Deadline: 1}
	c.Complete(task.NewJob(good, 0, 0), 1)
	c.Complete(task.NewJob(bad, 0, 0), 9)
	out := RenderByTask(c.ByTask())
	if !strings.Contains(out, "good") || !strings.Contains(out, "bad") {
		t.Fatalf("render missing rows:\n%s", out)
	}
	if strings.Index(out, "bad") > strings.Index(out, "good") {
		t.Error("missing task should sort first")
	}
}

func TestByTaskEmpty(t *testing.T) {
	c := &Collector{}
	if len(c.ByTask()) != 0 {
		t.Error("empty collector should yield no stats")
	}
	if !strings.Contains(RenderByTask(nil), "task") {
		t.Error("empty render should still have a header")
	}
}
