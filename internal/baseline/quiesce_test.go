package baseline

import (
	"testing"

	"ioguard/internal/slot"
	"ioguard/internal/system"
	"ioguard/internal/task"
)

// TestBaselinesQuiesce: every baseline must declare itself idle when
// drained (so fast-forward can skip), report future work after a
// submission without ever returning a slot in the past, and reach
// quiescence again once the job completes — stepping only the slots
// NextWork pins.
func TestBaselinesQuiesce(t *testing.T) {
	ts := task.Set{
		{ID: 0, VM: 0, Kind: task.Safety, Device: "ethernet", Period: 10000, WCET: 5, Deadline: 10000, OpBytes: 64},
	}
	builders := map[string]func(col *system.Collector) (system.System, error){
		"legacy": func(col *system.Collector) (system.System, error) {
			return NewLegacy(1, ts, col)
		},
		"rt-xen": func(col *system.Collector) (system.System, error) {
			return NewRTXen(1, ts, col, 0)
		},
		"bluevisor": func(col *system.Collector) (system.System, error) {
			return NewBlueVisor(1, ts, col)
		},
	}
	for name, build := range builders {
		t.Run(name, func(t *testing.T) {
			col := &system.Collector{}
			sys, err := build(col)
			if err != nil {
				t.Fatal(err)
			}
			q := quiescer(t, sys)
			if got := q.NextWork(0); got != slot.Never {
				t.Fatalf("idle system NextWork = %d, want Never", got)
			}
			sys.Submit(0, task.NewJob(&ts[0], 0, 0))
			// Drive through the protocol: execute only pinned slots.
			now := slot.Time(0)
			steps := 0
			for steps < 10000 {
				next := q.NextWork(now)
				if next == slot.Never {
					break
				}
				if next < now {
					t.Fatalf("NextWork went backwards: at %d got %d", now, next)
				}
				now = next
				sys.Step(now)
				steps++
				now++
			}
			if col.Completed() != 1 {
				t.Fatalf("completions = %d after %d pinned steps", col.Completed(), steps)
			}
			if got := q.NextWork(now); got != slot.Never {
				t.Errorf("drained system NextWork = %d, want Never", got)
			}
		})
	}
}

// quiescer returns the component that answers NextWork for a
// single-device system: the system itself when it implements the
// protocol (Legacy and RT-Xen, which double as their own shard), else
// its one device shard.
func quiescer(t *testing.T, sys system.System) interface {
	NextWork(now slot.Time) slot.Time
} {
	t.Helper()
	if q, ok := sys.(interface {
		NextWork(now slot.Time) slot.Time
	}); ok {
		return q
	}
	ss, ok := sys.(system.ShardedSystem)
	if !ok || len(ss.Shards()) != 1 {
		t.Fatal("baseline implements neither the quiescence protocol nor a single shard")
	}
	return ss.Shards()[0]
}
