package sim

import (
	"fmt"
	"math/rand"
	"reflect"
	"sort"
	"testing"

	"ioguard/internal/slot"
)

// probe is a test component with a fixed plan of internal work slots.
// It fails the test if a planned slot is skipped over, and checks that
// SkipTo spans never cover planned work.
type probe struct {
	t    *testing.T
	name string
	work []slot.Time // sorted slots with internal work
	wi   int

	stepped int64
	skipped slot.Time
	log     *[]exec // shared execution log, appended to on every Step
	idx     int
}

type exec struct {
	at    slot.Time
	shard int
}

func (p *probe) Step(now slot.Time) {
	p.stepped++
	if p.log != nil {
		*p.log = append(*p.log, exec{at: now, shard: p.idx})
	}
	for p.wi < len(p.work) && p.work[p.wi] <= now {
		if p.work[p.wi] < now {
			p.t.Errorf("%s: work at %d executed late at %d", p.name, p.work[p.wi], now)
		}
		p.wi++
	}
}

func (p *probe) NextWork(now slot.Time) slot.Time {
	if p.wi >= len(p.work) {
		return slot.Never
	}
	if p.work[p.wi] < now {
		return now
	}
	return p.work[p.wi]
}

func (p *probe) SkipTo(from, to slot.Time) {
	p.skipped += to - from
	if p.wi < len(p.work) && p.work[p.wi] < to {
		p.t.Errorf("%s: SkipTo(%d,%d) jumps over work at %d", p.name, from, to, p.work[p.wi])
	}
}

// TestShardSetDecoupling: one shard busy every slot must not force
// dense stepping of an almost-idle peer — the exact failure mode of
// the global-min fast-forward this scheduler replaces.
func TestShardSetDecoupling(t *testing.T) {
	const horizon = 10_000
	busyPlan := make([]slot.Time, horizon)
	for i := range busyPlan {
		busyPlan[i] = slot.Time(i)
	}
	busy := &probe{t: t, name: "busy", work: busyPlan}
	idle := &probe{t: t, name: "idle", work: []slot.Time{0, 4000, 9999}}

	s := NewShardSet()
	s.Add(busy)
	s.Add(idle)
	s.Run(horizon, nil, nil)

	if busy.stepped != horizon {
		t.Errorf("busy shard stepped %d slots, want %d", busy.stepped, horizon)
	}
	if busy.wi != len(busy.work) || idle.wi != len(idle.work) {
		t.Errorf("unfinished work: busy %d/%d, idle %d/%d",
			busy.wi, len(busy.work), idle.wi, len(idle.work))
	}
	if idle.stepped+int64(idle.skipped) != horizon {
		t.Errorf("idle shard stepped %d + skipped %d ≠ horizon %d",
			idle.stepped, idle.skipped, horizon)
	}
	if idle.stepped > 10 {
		t.Errorf("idle shard stepped %d slots next to a busy peer; decoupling failed", idle.stepped)
	}
	st := s.Stats(1)
	if st.Stepped != idle.stepped || st.Skipped != idle.skipped {
		t.Errorf("Stats(1) = %+v, want {%d %d}", st, idle.stepped, idle.skipped)
	}
}

// TestShardSetExecutionOrder: the executed (slot, shard) pairs must
// come out in lexicographic order — the property that makes the
// decoupled interleaving identical to a dense loop that steps shards
// in registration order within each slot (and thus keeps collector
// output byte-identical without any re-sorting).
func TestShardSetExecutionOrder(t *testing.T) {
	const horizon = 2000
	rng := rand.New(rand.NewSource(99))
	var log []exec
	s := NewShardSet()
	for i := 0; i < 5; i++ {
		var plan []slot.Time
		for at := slot.Time(rng.Intn(10)); at < horizon; at += slot.Time(1 + rng.Intn(97)) {
			plan = append(plan, at)
		}
		p := &probe{t: t, name: "p", work: plan, log: &log, idx: i}
		p.idx = s.Add(p)
	}
	s.Run(horizon, nil, nil)
	if !sort.SliceIsSorted(log, func(a, b int) bool {
		if log[a].at != log[b].at {
			return log[a].at < log[b].at
		}
		return log[a].shard < log[b].shard
	}) {
		t.Fatal("execution log is not sorted by (slot, shard)")
	}
}

// sink is a purely input-driven component: it has no internal work and
// must be woken by the horizon exactly at each input's arrival slot.
type sink struct {
	t        *testing.T
	inputs   []slot.Time // sorted arrival slots
	ii       int         // next input not yet consumed (advanced by feed)
	consumed int
}

func (k *sink) Step(now slot.Time) {}
func (k *sink) NextWork(now slot.Time) slot.Time {
	return slot.Never
}

// TestShardSetHorizon: a shard with no internal work still may not
// run past an upstream input — the HorizonFunc must wake it at every
// arrival slot, even a conservative horizon that sometimes wakes it
// early.
func TestShardSetHorizon(t *testing.T) {
	const horizon = 50_000
	rng := rand.New(rand.NewSource(7))
	var ks []*sink
	s := NewShardSet()
	for i := 0; i < 3; i++ {
		var in []slot.Time
		for at := slot.Time(rng.Intn(500)); at < horizon; at += slot.Time(100 + rng.Intn(5000)) {
			in = append(in, at)
		}
		k := &sink{t: t, inputs: in}
		ks = append(ks, k)
		s.Add(k)
	}
	conservative := rand.New(rand.NewSource(8))
	feed := func(i int, now slot.Time) {
		k := ks[i]
		for k.ii < len(k.inputs) && k.inputs[k.ii] <= now {
			if k.inputs[k.ii] < now {
				t.Fatalf("shard %d: input at %d delivered late at %d", i, k.inputs[k.ii], now)
			}
			k.ii++
			k.consumed++
		}
	}
	hz := func(i int, limit slot.Time) slot.Time {
		k := ks[i]
		if k.ii >= len(k.inputs) {
			return limit
		}
		next := k.inputs[k.ii]
		if next > limit {
			return limit
		}
		// Occasionally under-report to model a conservative bound: the
		// shard wakes early, finds nothing, and re-queries.
		if conservative.Intn(4) == 0 && next > 0 {
			return next - slot.Time(conservative.Intn(int(next)+1))
		}
		return next
	}
	s.Run(horizon, feed, hz)
	for i, k := range ks {
		if k.consumed != len(k.inputs) {
			t.Errorf("shard %d consumed %d/%d inputs", i, k.consumed, len(k.inputs))
		}
		st := s.Stats(i)
		if st.Stepped+int64(st.Skipped) != horizon {
			t.Errorf("shard %d: stepped %d + skipped %d ≠ %d", i, st.Stepped, st.Skipped, horizon)
		}
		if st.Stepped == horizon {
			t.Errorf("shard %d never fast-forwarded", i)
		}
	}
}

// stale is a component whose NextWork mis-reports: it always answers
// with slot 0, a slot strictly before the shard's clock after the
// first step. The scheduler must treat such answers as "busy now" —
// stepping densely — and never move a clock backwards.
type stale struct {
	stepped []slot.Time
}

func (s *stale) Step(now slot.Time) { s.stepped = append(s.stepped, now) }

func (s *stale) NextWork(now slot.Time) slot.Time { return 0 }

// TestShardSetStaleNextWork: a NextWork answer below the shard's
// current clock must not rewind it (or wedge the scheduler) — the
// shard degrades to dense stepping, each slot executed exactly once in
// order.
func TestShardSetStaleNextWork(t *testing.T) {
	const horizon = 200
	bad := &stale{}
	peer := &probe{t: t, name: "peer", work: []slot.Time{0, 150}}
	s := NewShardSet()
	s.Add(bad)
	s.Add(peer)
	s.Run(horizon, nil, nil)
	if len(bad.stepped) != horizon {
		t.Fatalf("stale shard stepped %d slots, want %d (dense)", len(bad.stepped), horizon)
	}
	for i, at := range bad.stepped {
		if at != slot.Time(i) {
			t.Fatalf("stale shard step %d ran at slot %d; clock moved non-monotonically", i, at)
		}
	}
	if got := s.Clock(0); got != horizon {
		t.Errorf("stale shard clock = %d, want %d", got, horizon)
	}
	if peer.wi != len(peer.work) {
		t.Errorf("peer finished %d/%d work items next to a stale shard", peer.wi, len(peer.work))
	}
}

// TestShardSetSkipExactlyToUntil: a shard whose work ends early must
// fast-forward in one jump to exactly the run bound — clock pinned at
// until, the whole remaining span accounted as skipped — on a
// multi-shard set driven with nil feed and horizon.
func TestShardSetSkipExactlyToUntil(t *testing.T) {
	const horizon = 1000
	early := &probe{t: t, name: "early", work: []slot.Time{0}}
	late := &probe{t: t, name: "late", work: []slot.Time{0, 500, 999}}
	s := NewShardSet()
	s.Add(early)
	s.Add(late)
	s.Run(horizon, nil, nil)
	if st := s.Stats(0); st.Stepped != 1 || st.Skipped != horizon-1 {
		t.Errorf("early shard stats = %+v, want {Stepped:1 Skipped:%d}", st, horizon-1)
	}
	if got := s.Clock(0); got != horizon {
		t.Errorf("early shard clock = %d, want exactly until (%d)", got, horizon)
	}
	if late.wi != len(late.work) {
		t.Errorf("late shard finished %d/%d work items", late.wi, len(late.work))
	}
	// Re-running with the same bound must be a no-op: every clock is
	// already at until.
	s.Run(horizon, nil, nil)
	if st := s.Stats(0); st.Stepped != 1 {
		t.Errorf("re-run at the same bound stepped the shard again: %+v", st)
	}
}

// planProbes builds a ShardSet of n probes with deterministic
// per-shard work plans, all appending to one shared execution log.
func planProbes(t *testing.T, n int, horizon slot.Time) (*ShardSet, []*probe, *[]exec) {
	rng := rand.New(rand.NewSource(int64(n)*1009 + 1))
	s := NewShardSet()
	ps := make([]*probe, n)
	log := &[]exec{}
	for i := 0; i < n; i++ {
		var plan []slot.Time
		for at := slot.Time(rng.Intn(16)); at < horizon; at += slot.Time(1 + rng.Intn(211)) {
			plan = append(plan, at)
		}
		p := &probe{t: t, name: fmt.Sprintf("p%d", i), work: plan, log: log}
		p.idx = s.Add(p)
		ps[i] = p
	}
	return s, ps, log
}

// workExecs filters an execution log down to the slots each shard had
// planned work in: the steps a run cannot skip, whatever its windows.
func workExecs(ps []*probe, log []exec) []exec {
	planned := make([]map[slot.Time]bool, len(ps))
	for i, p := range ps {
		planned[i] = make(map[slot.Time]bool, len(p.work))
		for _, at := range p.work {
			planned[i][at] = true
		}
	}
	var out []exec
	for _, e := range log {
		if planned[e.shard][e.at] {
			out = append(out, e)
		}
	}
	return out
}

// TestShardSetEpochsMatchRun: driving the set through successive Run
// windows — the sharded executor's epochs — at any span, from a single
// slot to the whole horizon, must execute every planned work slot in
// the same global (slot, shard) order as one Run to the horizon, keep
// the whole log in that order, and leave every shard at the horizon
// with each slot either stepped or skipped exactly once.
func TestShardSetEpochsMatchRun(t *testing.T) {
	const shards, horizon = 6, 4000
	ref, refProbes, refLog := planProbes(t, shards, horizon)
	ref.Run(horizon, nil, nil)
	want := workExecs(refProbes, *refLog)
	for _, span := range []slot.Time{1, 7, 211, 1024, horizon} {
		s, ps, log := planProbes(t, shards, horizon)
		for end := span; ; end += span {
			if end > horizon {
				end = horizon
			}
			s.Run(end, nil, nil)
			if end == horizon {
				break
			}
		}
		if !sort.SliceIsSorted(*log, func(a, b int) bool {
			x, y := (*log)[a], (*log)[b]
			return x.at < y.at || (x.at == y.at && x.shard < y.shard)
		}) {
			t.Errorf("span=%d: execution left (slot, shard) order", span)
		}
		if got := workExecs(ps, *log); !reflect.DeepEqual(got, want) {
			t.Errorf("span=%d: executed %d work slots, one run executed %d (or in a different order)", span, len(got), len(want))
		}
		for i, p := range ps {
			if p.wi != len(p.work) {
				t.Errorf("span=%d: shard %d finished %d/%d work items", span, i, p.wi, len(p.work))
			}
			st := s.Stats(i)
			if st.Stepped+int64(st.Skipped) != horizon || s.Clock(i) != horizon {
				t.Errorf("span=%d: shard %d stepped %d + skipped %d at clock %d, want %d", span, i, st.Stepped, st.Skipped, s.Clock(i), horizon)
			}
		}
	}
}

// TestShardSetRunEpochs drives the set through repeated Run windows
// with feed/horizon closures at several spans, checking inputs are
// consumed exactly at their arrival slots and every window leaves all
// clocks at its bound.
func TestShardSetRunEpochs(t *testing.T) {
	const horizon = 30_000
	for _, span := range []slot.Time{1, 1024, 4096} {
		rng := rand.New(rand.NewSource(23))
		var ks []*sink
		s := NewShardSet()
		for i := 0; i < 5; i++ {
			var in []slot.Time
			for at := slot.Time(rng.Intn(300)); at < horizon; at += slot.Time(50 + rng.Intn(3000)) {
				in = append(in, at)
			}
			k := &sink{t: t, inputs: in}
			ks = append(ks, k)
			s.Add(k)
		}
		feed := func(i int, now slot.Time) {
			k := ks[i]
			for k.ii < len(k.inputs) && k.inputs[k.ii] <= now {
				if k.inputs[k.ii] < now {
					t.Errorf("span=%d: shard %d: input at %d delivered late at %d", span, i, k.inputs[k.ii], now)
				}
				k.ii++
				k.consumed++
			}
		}
		hz := func(i int, limit slot.Time) slot.Time {
			k := ks[i]
			if k.ii >= len(k.inputs) || k.inputs[k.ii] > limit {
				return limit
			}
			return k.inputs[k.ii]
		}
		for end := span; ; end += span {
			if end > horizon {
				end = horizon
			}
			s.Run(end, feed, hz)
			for i := range ks {
				if got := s.Clock(i); got != end {
					t.Fatalf("span=%d: after window to %d: shard %d clock = %d", span, end, i, got)
				}
			}
			if end == horizon {
				break
			}
		}
		for i, k := range ks {
			if k.consumed != len(k.inputs) {
				t.Errorf("span=%d: shard %d consumed %d/%d inputs", span, i, k.consumed, len(k.inputs))
			}
			st := s.Stats(i)
			if st.Stepped+int64(st.Skipped) != horizon {
				t.Errorf("span=%d: shard %d: stepped %d + skipped %d ≠ %d", span, i, st.Stepped, st.Skipped, horizon)
			}
		}
	}
}

// recorder is a single shard with a scripted busy set: it records
// every Step slot and every skipped span.
type recorder struct {
	busy    []slot.Time // sorted
	stepped []slot.Time
	spans   [][2]slot.Time
}

func (r *recorder) Step(now slot.Time) { r.stepped = append(r.stepped, now) }

func (r *recorder) NextWork(now slot.Time) slot.Time {
	for _, at := range r.busy {
		if at >= now {
			return at
		}
	}
	return slot.Never
}

func (r *recorder) SkipTo(from, to slot.Time) { r.spans = append(r.spans, [2]slot.Time{from, to}) }

// TestRunSkipsIdleRegions: only declared-busy slots (plus slot 0,
// which Run always executes before consulting NextWork) are stepped,
// and the skipped spans tile the gaps exactly, in order.
func TestRunSkipsIdleRegions(t *testing.T) {
	r := &recorder{busy: []slot.Time{5, 6, 100}}
	s := NewShardSet()
	s.Add(r)
	s.Run(1000, nil, nil)
	if got := s.Clock(0); got != 1000 {
		t.Fatalf("clock = %d, want 1000", got)
	}
	if want := []slot.Time{0, 5, 6, 100}; !reflect.DeepEqual(r.stepped, want) {
		t.Errorf("stepped %v, want %v", r.stepped, want)
	}
	want := [][2]slot.Time{{1, 5}, {7, 100}, {101, 1000}}
	if !reflect.DeepEqual(r.spans, want) {
		t.Errorf("skipped spans %v, want %v", r.spans, want)
	}
}

// TestShardSetRunAllocFree: once the scheduler heap has grown, running
// further windows over allocation-free shards must not allocate.
func TestShardSetRunAllocFree(t *testing.T) {
	busy := make([]slot.Time, 0, 64)
	for at := slot.Time(0); at < 1<<20; at += 4099 {
		busy = append(busy, at)
	}
	s := NewShardSet()
	for i := 0; i < 4; i++ {
		s.Add(&probe{t: t, name: fmt.Sprintf("p%d", i), work: busy})
	}
	end := slot.Time(1024)
	s.Run(end, nil, nil) // warm up: heap at steady size
	allocs := testing.AllocsPerRun(200, func() {
		end += 1024
		s.Run(end, nil, nil)
	})
	if allocs > 0 {
		t.Errorf("steady-state Run allocates %.3f allocs/op, want 0", allocs)
	}
}

// TestRunAdvancesTime: a shard starts at slot 0, Run moves its clock to
// exactly until, and a Run into the past is a no-op.
func TestRunAdvancesTime(t *testing.T) {
	s := NewShardSet()
	s.Add(&probe{t: t, name: "p", work: []slot.Time{3}})
	if got := s.Clock(0); got != 0 {
		t.Fatalf("clock = %d before any Run, want 0", got)
	}
	s.Run(10, nil, nil)
	if got := s.Clock(0); got != 10 {
		t.Fatalf("clock = %d, want 10", got)
	}
	before := s.Stats(0)
	s.Run(5, nil, nil)
	if got := s.Clock(0); got != 10 || s.Stats(0) != before {
		t.Errorf("Run into the past moved the shard: clock %d, stats %+v (was %+v)", got, s.Stats(0), before)
	}
}
