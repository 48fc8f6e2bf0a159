package system_test

import (
	"fmt"
	"math/rand"
	"reflect"
	"sort"
	"testing"

	"ioguard/internal/rtos"
	"ioguard/internal/slot"
	"ioguard/internal/system"
	"ioguard/internal/system/systemtest"
	"ioguard/internal/task"
	"ioguard/internal/vm"
)

// call is one call the run loop made into a probe.
type call struct {
	kind     string // "step", "skip" or "submit"
	at, to   slot.Time
	shard    int
	released slot.Time // submit: the job's release slot
}

// end is the clock a step or skip leaves its shard at.
func (c call) end() slot.Time {
	if c.kind == "skip" {
		return c.to
	}
	return c.at + 1
}

// probe is a test shard with a fixed plan of internal work slots. It
// logs every call it receives and fails the test if a planned slot is
// skipped over.
type probe struct {
	t       *testing.T
	idx     int
	device  string
	work    []slot.Time // sorted slots with internal work
	wi      int
	stale   bool    // NextWork always answers slot 0
	log     *[]call // shared by every probe of a run; nil: log nothing
	steps   int64
	skips   slot.Time
	queries int // NextWork calls
}

func (p *probe) Devices() []string { return []string{p.device} }

func (p *probe) record(c call) {
	if p.log != nil {
		c.shard = p.idx
		*p.log = append(*p.log, c)
	}
}

func (p *probe) Submit(now slot.Time, j *task.Job) {
	p.record(call{kind: "submit", at: now, released: j.Release})
}

func (p *probe) Step(now slot.Time) {
	p.steps++
	p.record(call{kind: "step", at: now})
	for p.wi < len(p.work) && p.work[p.wi] <= now {
		if p.work[p.wi] < now {
			p.t.Errorf("shard %d: work at %d executed late at %d", p.idx, p.work[p.wi], now)
		}
		p.wi++
	}
}

func (p *probe) NextWork(now slot.Time) slot.Time {
	p.queries++
	if p.stale {
		return 0
	}
	if p.wi >= len(p.work) {
		return slot.Never
	}
	return max(p.work[p.wi], now)
}

func (p *probe) SkipTo(from, to slot.Time) {
	p.skips += to - from
	p.record(call{kind: "skip", at: from, to: to})
	if p.wi < len(p.work) && p.work[p.wi] < to {
		p.t.Errorf("shard %d: SkipTo(%d,%d) jumps over work at %d", p.idx, from, to, p.work[p.wi])
	}
}

// probeShards numbers the probes and routes each probe's device to it.
func probeShards(probes []*probe) ([]system.Shard, map[string]int) {
	shards := make([]system.Shard, len(probes))
	route := make(map[string]int, len(probes))
	for i, p := range probes {
		p.idx = i
		shards[i] = p
		route[p.device] = i
	}
	return shards, route
}

// loopRun runs probes on the loop.
func loopRun(probes []*probe, fleet *vm.Fleet, horizon slot.Time) {
	shards, route := probeShards(probes)
	system.RunLoop(shards, route, fleet, horizon, nil)
}

// shardSet is a system made of the given shards and nothing else.
type shardSet []system.Shard

func (s shardSet) Name() string                { return "shards" }
func (s shardSet) Arch() rtos.Arch             { return rtos.Legacy }
func (s shardSet) Residual() task.Set          { return nil }
func (s shardSet) Submit(slot.Time, *task.Job) {}
func (s shardSet) Step(slot.Time)              {}
func (s shardSet) Pending(func(j *task.Job))   {}
func (s shardSet) Dropped() int64              { return 0 }
func (s shardSet) Shards() []system.Shard      { return s }

// denseShards returns the shards systemtest.Dense hands the run loop
// for a system made of shards.
func denseShards(t *testing.T, shards []system.Shard) []system.Shard {
	t.Helper()
	sys, err := systemtest.Dense(func(system.Trial, *system.Collector) (system.System, error) {
		return shardSet(shards), nil
	})(system.Trial{}, nil)
	if err != nil {
		t.Fatal(err)
	}
	return sys.(system.ShardedSystem).Shards()
}

// idleFleet releases nothing.
func idleFleet(t *testing.T) *vm.Fleet {
	f, err := vm.NewFleet(1, nil, rand.New(rand.NewSource(1)))
	if err != nil {
		t.Fatal(err)
	}
	return f
}

// randomPlan draws work slots in [0, horizon) with gaps below maxGap.
func randomPlan(rng *rand.Rand, horizon slot.Time, maxGap int) []slot.Time {
	var plan []slot.Time
	for at := slot.Time(rng.Intn(16)); at < horizon; at += slot.Time(1 + rng.Intn(maxGap)) {
		plan = append(plan, at)
	}
	return plan
}

// requireTiling checks that each shard's steps plus its skipped spans
// cover [0, horizon) exactly once, in order.
func requireTiling(t *testing.T, log []call, shards int, horizon slot.Time) {
	t.Helper()
	next := make([]slot.Time, shards)
	for _, c := range log {
		if c.kind == "submit" {
			continue
		}
		if c.at != next[c.shard] || c.end() <= c.at {
			t.Fatalf("shard %d: %s [%d,%d), its clock was at %d", c.shard, c.kind, c.at, c.end(), next[c.shard])
		}
		next[c.shard] = c.end()
	}
	for i, n := range next {
		if n != horizon {
			t.Errorf("shard %d stepped or skipped up to %d, want %d", i, n, horizon)
		}
	}
}

// periodic is an allocation-free shard with work every period slots.
type periodic struct{ period slot.Time }

func (p periodic) Devices() []string           { return nil }
func (p periodic) Submit(slot.Time, *task.Job) {}
func (p periodic) Step(slot.Time)              {}
func (p periodic) SkipTo(from, to slot.Time)   {}
func (p periodic) NextWork(now slot.Time) slot.Time {
	return (now + p.period - 1) / p.period * p.period
}

// TestRunLoop pins the run loop's scheduling contract on scripted
// shards.
func TestRunLoop(t *testing.T) {
	// A shard busy in every slot must not force an idle peer to step.
	t.Run("decoupling", func(t *testing.T) {
		const horizon = 10_000
		busyPlan := make([]slot.Time, horizon)
		for i := range busyPlan {
			busyPlan[i] = slot.Time(i)
		}
		busy := &probe{t: t, device: "busy", work: busyPlan}
		idle := &probe{t: t, device: "idle", work: []slot.Time{0, 4000, 9999}}
		loopRun([]*probe{busy, idle}, idleFleet(t), horizon)
		if busy.steps != horizon || busy.wi != len(busy.work) || idle.wi != len(idle.work) {
			t.Errorf("busy stepped %d of %d; work done: busy %d/%d, idle %d/%d",
				busy.steps, horizon, busy.wi, len(busy.work), idle.wi, len(idle.work))
		}
		if idle.steps != 3 || idle.steps+int64(idle.skips) != horizon {
			t.Errorf("idle shard stepped %d + skipped %d of %d slots next to a busy peer, want 3 steps",
				idle.steps, idle.skips, horizon)
		}
	})

	// Steps run in lexicographic (slot, shard) order, a dense run's
	// order, and every shard's steps and skips tile the horizon.
	t.Run("order", func(t *testing.T) {
		const horizon = 2000
		rng := rand.New(rand.NewSource(99))
		var log []call
		var probes []*probe
		for i := 0; i < 5; i++ {
			probes = append(probes, &probe{t: t, device: fmt.Sprint(i), work: randomPlan(rng, horizon, 97), log: &log})
		}
		loopRun(probes, idleFleet(t), horizon)
		var steps []call
		for _, c := range log {
			if c.kind == "step" {
				steps = append(steps, c)
			}
		}
		if !sort.SliceIsSorted(steps, func(a, b int) bool {
			x, y := steps[a], steps[b]
			return x.at < y.at || (x.at == y.at && x.shard < y.shard)
		}) {
			t.Fatal("steps are not in (slot, shard) order")
		}
		for i, p := range probes {
			if p.wi != len(p.work) {
				t.Errorf("shard %d finished %d/%d work items", i, p.wi, len(p.work))
			}
		}
		requireTiling(t, log, len(probes), horizon)
	})

	// Through systemtest.Dense the loop steps every inner shard in
	// every slot and never asks it NextWork or skips it.
	t.Run("dense", func(t *testing.T) {
		const horizon = 3000
		rng := rand.New(rand.NewSource(5))
		var probes []*probe
		for i := 0; i < 3; i++ {
			probes = append(probes, &probe{t: t, device: fmt.Sprint(i), work: randomPlan(rng, horizon, 500)})
		}
		shards, route := probeShards(probes)
		system.RunLoop(denseShards(t, shards), route, idleFleet(t), horizon, nil)
		for i, p := range probes {
			if p.steps != horizon || p.skips != 0 || p.queries != 0 {
				t.Errorf("shard %d: %d steps, %d skipped slots, %d NextWork calls; want %d, 0, 0", i, p.steps, p.skips, p.queries, horizon)
			}
		}
	})

	// A NextWork answer below now+1 degrades to stepping every slot,
	// once each, in order; it never rewinds the clock.
	t.Run("stale-next-work", func(t *testing.T) {
		const horizon = 200
		var log []call
		bad := &probe{t: t, device: "bad", stale: true, log: &log}
		peer := &probe{t: t, device: "peer", work: []slot.Time{0, 150}, log: &log}
		loopRun([]*probe{bad, peer}, idleFleet(t), horizon)
		var at slot.Time
		for _, c := range log {
			if c.shard != 0 {
				continue
			}
			if c.kind != "step" || c.at != at {
				t.Fatalf("stale shard: %s at %d, want a step at %d", c.kind, c.at, at)
			}
			at++
		}
		if at != horizon || peer.wi != len(peer.work) {
			t.Errorf("stale shard stepped %d of %d slots; peer finished %d/%d", at, horizon, peer.wi, len(peer.work))
		}
		requireTiling(t, log, 2, horizon)
	})

	// Only slot 0 and the declared-busy slots are stepped, and the
	// skipped spans fill the gaps exactly, up to the horizon.
	t.Run("skips-idle-regions", func(t *testing.T) {
		var log []call
		p := &probe{t: t, device: "p", work: []slot.Time{5, 6, 100}, log: &log}
		loopRun([]*probe{p}, idleFleet(t), 1000)
		want := []call{
			{kind: "step", at: 0}, {kind: "skip", at: 1, to: 5}, {kind: "step", at: 5}, {kind: "step", at: 6},
			{kind: "skip", at: 7, to: 100}, {kind: "step", at: 100}, {kind: "skip", at: 101, to: 1000},
		}
		if !reflect.DeepEqual(log, want) {
			t.Errorf("calls %v, want %v", log, want)
		}
	})

	// A shard idle after slot 0 is skipped in one span that ends
	// exactly at the horizon, while a peer keeps working up to the last
	// slot.
	t.Run("skip-exactly-to-horizon", func(t *testing.T) {
		const horizon = 1000
		var log []call
		early := &probe{t: t, device: "early", work: []slot.Time{0}, log: &log}
		late := &probe{t: t, device: "late", work: []slot.Time{0, 500, 999}, log: &log}
		loopRun([]*probe{early, late}, idleFleet(t), horizon)
		if early.steps != 1 || early.skips != horizon-1 {
			t.Errorf("early shard stepped %d, skipped %d; want 1, %d", early.steps, early.skips, horizon-1)
		}
		var earlyCalls []call
		for _, c := range log {
			if c.shard == 0 {
				earlyCalls = append(earlyCalls, c)
			}
		}
		want := []call{{kind: "step", at: 0}, {kind: "skip", at: 1, to: horizon}}
		if !reflect.DeepEqual(earlyCalls, want) {
			t.Errorf("early shard calls %v, want %v", earlyCalls, want)
		}
		if late.wi != len(late.work) {
			t.Errorf("late shard finished %d/%d work items", late.wi, len(late.work))
		}
		requireTiling(t, log, 2, horizon)
	})

	// Every shard's clock ends exactly at the horizon, whether its last
	// call is a step or a skip and whatever work lies past the horizon;
	// a zero horizon moves no shard at all.
	t.Run("advances-time", func(t *testing.T) {
		for _, horizon := range []slot.Time{0, 1, 3, 4, 10} {
			var log []call
			probes := []*probe{
				{t: t, device: "at-3", work: []slot.Time{3}, log: &log},
				{t: t, device: "past", work: []slot.Time{0, 15}, log: &log},
				{t: t, device: "none", log: &log},
			}
			loopRun(probes, idleFleet(t), horizon)
			if horizon == 0 {
				if len(log) != 0 {
					t.Errorf("horizon 0: calls %v, want none", log)
				}
				continue
			}
			requireTiling(t, log, len(probes), horizon)
			if p := probes[0]; (p.wi == 1) != (horizon > 3) {
				t.Errorf("horizon %d: work at 3 done = %v", horizon, p.wi == 1)
			}
			if p := probes[1]; p.wi != 1 {
				t.Errorf("horizon %d: shard with work past the horizon did %d items, want 1", horizon, p.wi)
			}
		}
	})

	// Every release reaches its shard in its release slot. A
	// submission to an idle shard first skips the shard's clock up to
	// the slot, then submits, then steps it in that slot.
	t.Run("submissions", func(t *testing.T) {
		const horizon = 50_000
		rng := rand.New(rand.NewSource(7))
		var ts task.Set
		var log []call
		var probes []*probe
		for i := 0; i < 3; i++ {
			dev := fmt.Sprint("dev", i)
			period := slot.Time(100 + rng.Intn(5000))
			ts = append(ts, task.Sporadic{ID: i, VM: i % 2, Kind: task.Safety, Device: dev, Period: period, WCET: 1, Deadline: period, Jitter: period / 2})
			probes = append(probes, &probe{t: t, device: dev, work: randomPlan(rng, horizon, 3000), log: &log})
		}
		fleet, err := vm.NewFleet(2, ts, rand.New(rand.NewSource(3)))
		if err != nil {
			t.Fatal(err)
		}
		loopRun(probes, fleet, horizon)
		submits := 0
		for i, c := range log {
			if c.kind != "submit" {
				continue
			}
			submits++
			if c.at != c.released {
				t.Fatalf("job released at %d submitted at %d", c.released, c.at)
			}
			// The shard's previous call brought its clock to the slot,
			// and its next call that is not a submission steps it there.
			for j := i - 1; j >= 0; j-- {
				if d := log[j]; d.shard == c.shard && d.kind != "submit" {
					if d.end() != c.at {
						t.Fatalf("shard %d: submit at %d follows a %s ending at %d", c.shard, c.at, d.kind, d.end())
					}
					break
				}
			}
			for _, d := range log[i+1:] {
				if d.shard == c.shard && d.kind != "submit" {
					if d.kind != "step" || d.at != c.at {
						t.Fatalf("shard %d: submit at %d followed by %s at %d", c.shard, c.at, d.kind, d.at)
					}
					break
				}
			}
		}
		if int64(submits) != fleet.Released() || submits < 20 {
			t.Errorf("%d submissions for %d releases", submits, fleet.Released())
		}
		for i, p := range probes {
			if p.steps >= horizon/10 {
				t.Errorf("shard %d stepped %d of %d slots", i, p.steps, horizon)
			}
		}
		requireTiling(t, log, len(probes), horizon)
	})

	// The loop allocates the same amount whatever the horizon, with
	// and without systemtest.Dense.
	t.Run("allocs", func(t *testing.T) {
		plain := []system.Shard{periodic{4099}, periodic{7}, periodic{1 << 16}}
		fleet := idleFleet(t)
		for name, shards := range map[string][]system.Shard{"fast-forward": plain, "dense": denseShards(t, plain)} {
			allocs := func(horizon slot.Time) float64 {
				return testing.AllocsPerRun(3, func() { system.RunLoop(shards, nil, fleet, horizon, nil) })
			}
			short, long := allocs(1<<10), allocs(1<<20)
			if long != short {
				t.Errorf("%s: %v allocs at 2^10 slots, %v at 2^20", name, short, long)
			}
		}
	})
}
