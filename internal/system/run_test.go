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
	kind     string // "step", "submit" or "next"
	at       slot.Time
	shard    int
	released slot.Time // submit: the job's release slot
	answer   slot.Time // next: what NextWork(at) returned
}

// probe is a test shard with a fixed plan of internal work slots. It
// logs every call it receives and fails the test if a planned slot is
// stepped late.
type probe struct {
	t       *testing.T
	idx     int
	device  string
	work    []slot.Time // sorted slots with internal work
	wi      int
	stale   bool    // NextWork always answers slot 0
	log     *[]call // shared by every probe of a run; nil: log nothing
	steps   int64
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
	next := slot.Never
	switch {
	case p.stale:
		next = 0
	case p.wi < len(p.work):
		next = max(p.work[p.wi], now)
	}
	p.record(call{kind: "next", at: now, answer: next})
	return next
}

// stepsOf returns the slots shard i was stepped in, in call order.
func stepsOf(log []call, i int) []slot.Time {
	var at []slot.Time
	for _, c := range log {
		if c.shard == i && c.kind == "step" {
			at = append(at, c.at)
		}
	}
	return at
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

// requireWakeSteps checks that each shard is stepped exactly in its
// wake slots below the horizon, in order: first slot 0, then after a
// step at s the slot max(NextWork(s+1), s+1), pulled back to the slot
// of any later submission. A shard still owed a step below the horizon
// fails.
func requireWakeSteps(t *testing.T, log []call, shards int, horizon slot.Time) {
	t.Helper()
	wake := make([]slot.Time, shards)
	for _, c := range log {
		switch c.kind {
		case "submit":
			wake[c.shard] = min(wake[c.shard], c.at)
		case "next":
			wake[c.shard] = max(c.answer, c.at)
		case "step":
			if c.at != wake[c.shard] || c.at >= horizon {
				t.Fatalf("shard %d: stepped at %d, its wake slot was %d (horizon %d)", c.shard, c.at, wake[c.shard], horizon)
			}
			wake[c.shard] = slot.Never // until NextWork answers
		}
	}
	for i, w := range wake {
		if w < horizon {
			t.Errorf("shard %d: never stepped in its wake slot %d < horizon %d", i, w, horizon)
		}
	}
}

// periodic is an allocation-free shard with work every period slots.
type periodic struct{ period slot.Time }

func (p periodic) Devices() []string           { return nil }
func (p periodic) Submit(slot.Time, *task.Job) {}
func (p periodic) Step(slot.Time)              {}
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
		if idle.steps != 3 {
			t.Errorf("idle shard stepped %d of %d slots next to a busy peer, want 3", idle.steps, horizon)
		}
	})

	// Steps run in lexicographic (slot, shard) order, a dense run's
	// order, and each shard is stepped exactly in its wake slots.
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
		requireWakeSteps(t, log, len(probes), horizon)
	})

	// Through systemtest.Dense the loop steps every inner shard in
	// every slot and never asks it NextWork.
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
			if p.steps != horizon || p.queries != 0 {
				t.Errorf("shard %d: %d steps, %d NextWork calls; want %d, 0", i, p.steps, p.queries, horizon)
			}
		}
	})

	// A NextWork answer below now+1 degrades to stepping every slot,
	// once each, in order; it never steps a slot twice.
	t.Run("stale-next-work", func(t *testing.T) {
		const horizon = 200
		var log []call
		bad := &probe{t: t, device: "bad", stale: true, log: &log}
		peer := &probe{t: t, device: "peer", work: []slot.Time{0, 150}, log: &log}
		loopRun([]*probe{bad, peer}, idleFleet(t), horizon)
		steps := stepsOf(log, 0)
		for i, at := range steps {
			if at != slot.Time(i) {
				t.Fatalf("stale shard: step %d at slot %d, want slot %d", i, at, i)
			}
		}
		if len(steps) != horizon || peer.wi != len(peer.work) {
			t.Errorf("stale shard stepped %d of %d slots; peer finished %d/%d", len(steps), horizon, peer.wi, len(peer.work))
		}
		requireWakeSteps(t, log, 2, horizon)
	})

	// Only slot 0 and the declared-busy slots are stepped; NextWork is
	// asked once after each step.
	t.Run("skips-idle-regions", func(t *testing.T) {
		var log []call
		p := &probe{t: t, device: "p", work: []slot.Time{5, 6, 100}, log: &log}
		loopRun([]*probe{p}, idleFleet(t), 1000)
		want := []call{
			{kind: "step", at: 0}, {kind: "next", at: 1, answer: 5},
			{kind: "step", at: 5}, {kind: "next", at: 6, answer: 6},
			{kind: "step", at: 6}, {kind: "next", at: 7, answer: 100},
			{kind: "step", at: 100}, {kind: "next", at: 101, answer: slot.Never},
		}
		if !reflect.DeepEqual(log, want) {
			t.Errorf("calls %v, want %v", log, want)
		}
	})

	// A shard idle after slot 0 is never stepped again, nor called at
	// all at the horizon, while a peer keeps working up to the last
	// slot.
	t.Run("skip-exactly-to-horizon", func(t *testing.T) {
		const horizon = 1000
		var log []call
		early := &probe{t: t, device: "early", work: []slot.Time{0}, log: &log}
		late := &probe{t: t, device: "late", work: []slot.Time{0, 500, 999}, log: &log}
		loopRun([]*probe{early, late}, idleFleet(t), horizon)
		var earlyCalls []call
		for _, c := range log {
			if c.shard == 0 {
				earlyCalls = append(earlyCalls, c)
			}
		}
		want := []call{{kind: "step", at: 0}, {kind: "next", at: 1, answer: slot.Never}}
		if !reflect.DeepEqual(earlyCalls, want) {
			t.Errorf("early shard calls %v, want %v", earlyCalls, want)
		}
		if got := stepsOf(log, 1); !reflect.DeepEqual(got, []slot.Time{0, 500, 999}) || late.wi != len(late.work) {
			t.Errorf("late shard stepped at %v and finished %d/%d work items, want steps at 0, 500, 999", got, late.wi, len(late.work))
		}
		requireWakeSteps(t, log, 2, horizon)
	})

	// Every shard is stepped in each of its wake slots below the
	// horizon and in none at or past it, whatever work lies past the
	// horizon; a zero horizon calls no shard at all.
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
			requireWakeSteps(t, log, len(probes), horizon)
			if p := probes[0]; (p.wi == 1) != (horizon > 3) {
				t.Errorf("horizon %d: work at 3 done = %v", horizon, p.wi == 1)
			}
			if p := probes[1]; p.wi != 1 {
				t.Errorf("horizon %d: shard with work past the horizon did %d items, want 1", horizon, p.wi)
			}
		}
	})

	// Every release reaches its shard in its release slot, after the
	// shard's previous step and before its step in that slot.
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
			// The shard's previous step was in an earlier slot, and its
			// next call that is not a submission steps it in this one.
			for j := i - 1; j >= 0; j-- {
				if d := log[j]; d.shard == c.shard && d.kind == "step" {
					if d.at >= c.at {
						t.Fatalf("shard %d: submit at %d follows a step at %d", c.shard, c.at, d.at)
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
		requireWakeSteps(t, log, len(probes), horizon)
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
