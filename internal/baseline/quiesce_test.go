package baseline

import (
	"testing"

	"ioguard/internal/sim"
	"ioguard/internal/slot"
	"ioguard/internal/system"
	"ioguard/internal/task"
)

// TestBaselinesQuiesce: every shard of a baseline must report
// slot.Never while the system is drained (so fast-forward skips it
// outright), a ShardSet run over the shards must complete a submitted
// job, and every shard must be drained again once the job has
// completed. Legacy and RT-Xen run as one shard each, BlueVisor as
// one shard per device. The long operation (WCET 5,000) checks that
// non-preemptive service is skipped, not stepped slot by slot: its end
// is known when it starts.
func TestBaselinesQuiesce(t *testing.T) {
	builders := map[string]func(ts task.Set, col *system.Collector) (system.ShardedSystem, error){
		"legacy": func(ts task.Set, col *system.Collector) (system.ShardedSystem, error) {
			return NewLegacy(1, ts, col)
		},
		"rt-xen": func(ts task.Set, col *system.Collector) (system.ShardedSystem, error) {
			return NewRTXen(1, ts, col, 0)
		},
		"bluevisor": func(ts task.Set, col *system.Collector) (system.ShardedSystem, error) {
			return NewBlueVisor(1, ts, col)
		},
	}
	const idle, horizon = 10000, 10000
	for name, build := range builders {
		for _, op := range []struct {
			suffix string
			wcet   slot.Time
		}{{"", 5}, {"-long-op", 5000}} {
			ts := task.Set{
				{ID: 0, VM: 0, Kind: task.Safety, Device: "ethernet", Period: 10000, WCET: op.wcet, Deadline: 10000, OpBytes: 64},
			}
			t.Run(name+op.suffix, func(t *testing.T) {
				col := &system.Collector{}
				sys, err := build(ts, col)
				if err != nil {
					t.Fatal(err)
				}
				shards := sys.Shards()
				if _, bv := sys.(*BlueVisor); !bv && len(shards) != 1 {
					t.Fatalf("%d shards, want one for the whole mesh system", len(shards))
				}
				set := sim.NewShardSet()
				owner := -1
				for i, sh := range shards {
					set.Add(sh)
					for _, d := range sh.Devices() {
						if d == ts[0].Device {
							owner = i
						}
					}
				}
				if owner < 0 {
					t.Fatalf("no shard owns device %q", ts[0].Device)
				}
				// An idle window first: with nothing submitted, every shard
				// must fast-forward through it.
				set.Run(idle, nil, nil)
				requireIdle(t, "idle", sys, set, shards, idle)
				submitted := false
				feed := func(i int, now slot.Time) {
					if i == owner && !submitted {
						shards[i].Submit(now, task.NewJob(&ts[0], 0, now))
						submitted = true
					}
				}
				set.Run(idle+horizon, feed, nil)
				if col.Completed() != 1 {
					t.Fatalf("completions = %d after a %d-slot shard run", col.Completed(), horizon)
				}
				requireIdle(t, "drained", sys, set, shards, idle+horizon)
			})
		}
	}
}

// requireIdle checks that the system holds no job, that every shard
// reports slot.Never as its next work, and that no shard has stepped
// 200 slots: enough for the request and response path, far too few
// to step an idle window or a long service slot by slot.
func requireIdle(t *testing.T, phase string, sys system.System, set *sim.ShardSet, shards []system.Shard, clock slot.Time) {
	t.Helper()
	sys.Pending(func(j *task.Job) { t.Errorf("%s: job %v still pending", phase, j) })
	for i, sh := range shards {
		if got := sh.NextWork(clock); got != slot.Never {
			t.Errorf("%s: shard %d of %d: NextWork(%d) = %d, want Never", phase, i, len(shards), clock, got)
		}
		if st := set.Stats(i); st.Stepped >= 200 {
			t.Errorf("%s: shard %d stepped %d of %d slots; it did not fast-forward", phase, i, st.Stepped, clock)
		}
	}
}
