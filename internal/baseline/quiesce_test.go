package baseline

import (
	"testing"

	"ioguard/internal/slot"
	"ioguard/internal/system"
	"ioguard/internal/task"
)

// countingShard counts the slots the run loop steps a shard in.
type countingShard struct {
	system.Shard
	steps int
}

func (c *countingShard) Step(now slot.Time) {
	c.steps++
	c.Shard.Step(now)
}

// countedSystem hands the run loop counting shards.
type countedSystem struct {
	system.ShardedSystem
	shards []system.Shard
}

func (c countedSystem) Shards() []system.Shard { return c.shards }

// TestBaselinesQuiesce: every shard of a baseline must report
// slot.Never while the system is drained, so the run loop skips it
// outright. A trial whose one job is released after an idle lead-in
// must complete it with no shard stepping 200 slots, and every shard
// must be drained again at the horizon. Legacy and RT-Xen run as one
// shard each, BlueVisor as one shard per device. The long operation
// (WCET 5,000) checks that non-preemptive service is skipped, not
// stepped slot by slot: its end is known when it starts.
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
	// The period equals the horizon, so the trial releases one job, at
	// a slot drawn from the seed; the test checks it leaves an idle
	// lead-in and room to complete.
	const horizon, seed = 20000, 7
	for name, build := range builders {
		for _, op := range []struct {
			suffix string
			wcet   slot.Time
		}{{"", 5}, {"-long-op", 5000}} {
			ts := task.Set{
				{ID: 0, VM: 0, Kind: task.Safety, Device: "ethernet", Period: horizon, WCET: op.wcet, Deadline: horizon, OpBytes: 64},
			}
			t.Run(name+op.suffix, func(t *testing.T) {
				var sys system.ShardedSystem
				var shards []*countingShard
				release := slot.Never
				counted := func(tr system.Trial, col *system.Collector) (system.System, error) {
					s, err := build(tr.Tasks, col)
					if err != nil {
						return nil, err
					}
					col.Observe(func(j *task.Job, _ slot.Time) { release = j.Release })
					sys = s
					cs := countedSystem{ShardedSystem: s}
					for i, sh := range s.Shards() {
						if got := sh.NextWork(0); got != slot.Never {
							t.Errorf("idle: shard %d: NextWork(0) = %d, want Never", i, got)
						}
						c := &countingShard{Shard: sh}
						shards = append(shards, c)
						cs.shards = append(cs.shards, c)
					}
					return cs, nil
				}
				res, err := system.Run(counted, system.Trial{VMs: 1, Tasks: ts, Horizon: horizon, Seed: seed})
				if err != nil {
					t.Fatal(err)
				}
				if name != "bluevisor" && len(shards) != 1 {
					t.Fatalf("%d shards, want one for the whole mesh system", len(shards))
				}
				if res.Released != 1 || res.Completed != 1 {
					t.Fatalf("released %d, completed %d; want one job run to completion", res.Released, res.Completed)
				}
				if release < 1000 {
					t.Fatalf("job released at %d: no idle lead-in to skip", release)
				}
				sys.Pending(func(j *task.Job) { t.Errorf("job %v still pending", j) })
				// 200 steps are enough for the request and response path,
				// far too few to step an idle window or a long service
				// slot by slot.
				for i, sh := range shards {
					if got := sh.NextWork(horizon); got != slot.Never {
						t.Errorf("drained: shard %d of %d: NextWork(%d) = %d, want Never", i, len(shards), horizon, got)
					}
					if sh.steps >= 200 {
						t.Errorf("shard %d stepped %d of %d slots; it did not fast-forward", i, sh.steps, horizon)
					}
				}
			})
		}
	}
}
