package baseline

import (
	"testing"

	"ioguard/internal/sim"
	"ioguard/internal/slot"
	"ioguard/internal/system"
	"ioguard/internal/task"
)

// TestBaselinesQuiesce: every shard of a baseline must declare itself
// idle while the system is drained (so fast-forward can skip it), a
// ShardSet run over the shards must complete a submitted job, and
// every shard must be idle again once the job has completed. Legacy
// and RT-Xen are checked on their two region shards, BlueVisor on its
// device shard.
//
// Idle means NextWork lies in the future and the shard skips almost
// all of an idle span. It is slot.Never only for a shard with no
// neighbor: a mesh region's NextWork is bounded by the neighbor band's
// published boundary horizon, which stays finite because the processor
// band must allow for a submission at any slot, so idle region shards
// still wake every few dozen slots to re-read it.
func TestBaselinesQuiesce(t *testing.T) {
	ts := task.Set{
		{ID: 0, VM: 0, Kind: task.Safety, Device: "ethernet", Period: 10000, WCET: 5, Deadline: 10000, OpBytes: 64},
	}
	builders := map[string]func(col *system.Collector) (system.ShardedSystem, error){
		"legacy": func(col *system.Collector) (system.ShardedSystem, error) {
			return NewLegacy(1, ts, col)
		},
		"rt-xen": func(col *system.Collector) (system.ShardedSystem, error) {
			return NewRTXen(1, ts, col, 0)
		},
		"bluevisor": func(col *system.Collector) (system.ShardedSystem, error) {
			return NewBlueVisor(1, ts, col)
		},
	}
	const idle, horizon = 10000, 10000
	for name, build := range builders {
		t.Run(name, func(t *testing.T) {
			col := &system.Collector{}
			sys, err := build(col)
			if err != nil {
				t.Fatal(err)
			}
			shards := sys.Shards()
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

// requireIdle checks that the system holds no job, that every shard
// reports its next work strictly after clock (slot.Never when it is
// the only shard), and that no shard has stepped more than an eighth
// of the slots run so far.
func requireIdle(t *testing.T, phase string, sys system.System, set *sim.ShardSet, shards []system.Shard, clock slot.Time) {
	t.Helper()
	sys.Pending(func(j *task.Job) { t.Errorf("%s: job %v still pending", phase, j) })
	for i, sh := range shards {
		got := sh.NextWork(clock)
		if got <= clock || len(shards) == 1 && got != slot.Never {
			t.Errorf("%s: shard %d of %d: NextWork(%d) = %d, want a later slot (Never when alone)", phase, i, len(shards), clock, got)
		}
		if st := set.Stats(i); st.Stepped*8 > int64(clock) {
			t.Errorf("%s: shard %d stepped %d of %d slots; it did not fast-forward", phase, i, st.Stepped, clock)
		}
	}
}
