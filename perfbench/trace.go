package main

// Per-layer tracing from outside the program. A traced cell runs the
// same system.Run call as an untraced one, but its Builder is wrapped:
// the wrapper times the builder itself and returns a system whose
// shards time every call the runner makes into them. Whatever of
// system.Run's wall time is left over is the runner's own work (fleet
// release, release buffers, horizon search, the shard heap, scoring).
//
// The wrappers are transparent: a wrapped system or shard implements
// exactly the optional interfaces of what it wraps, because system.Run
// picks its execution path by type assertion. The test in this
// directory pins that, and that traced results equal untraced ones.

import (
	"strings"
	"time"

	"ioguard/internal/rtos"
	"ioguard/internal/sim"
	"ioguard/internal/slot"
	"ioguard/internal/system"
	"ioguard/internal/task"
)

// Layer names are the internal/ modules whose code runs behind each
// call.
const (
	layerHypervisor = "hypervisor" // I/O-GUARD device shards (core → hypervisor.Manager)
	layerNoC        = "noc"        // BS|Legacy and BS|RT-XEN mesh region shards
	layerBlueVisor  = "bluevisor"  // BS|BV controller shards
	layerPartition  = "partition"  // BS|PART partition shards
	layerCore       = "core"       // I/O-GUARD construction (incl. slot.Build)
	layerBaseline   = "baseline"   // baseline construction
)

// shardLayers lists the shard layers in report order.
var shardLayers = []string{layerHypervisor, layerNoC, layerBlueVisor, layerPartition}

// shardLayer maps a system name (case-study or CLI spelling) to the
// layer its shards belong to.
func shardLayer(name string) string {
	switch {
	case strings.HasPrefix(name, "I/O-GUARD"), strings.HasPrefix(name, "ioguard-"):
		return layerHypervisor
	case name == "BS|BV", name == "bluevisor":
		return layerBlueVisor
	case name == "BS|PART", name == "partition":
		return layerPartition
	default:
		return layerNoC
	}
}

// buildLayer maps a system name to the layer that constructs it.
func buildLayer(name string) string {
	if shardLayer(name) == layerHypervisor {
		return layerCore
	}
	return layerBaseline
}

// traceStride is how often a per-slot call is timed: every call is
// counted, but only one in traceStride is bracketed by clock reads and
// the total is scaled up from those. Timing every Step and NextWork
// more than doubled the avionics run; one in four keeps the traced run
// under twice the untraced one.
const traceStride = 4

// callStat accumulates the calls into one method and their host time,
// measured on a stride of the calls.
type callStat struct {
	ns    int64 // Σ host time of the timed calls
	calls int64
	timed int64
	wait  int // calls left until the next timed one
}

// sample counts a call and reports whether to time it.
func (c *callStat) sample() bool {
	c.calls++
	if c.wait > 0 {
		c.wait--
		return false
	}
	c.wait = traceStride - 1
	return true
}

// since records a timed call that started at t0.
func (c *callStat) since(t0 time.Time) {
	c.ns += int64(time.Since(t0))
	c.timed++
}

// once counts and times a call that is always timed.
func (c *callStat) once(t0 time.Time) {
	c.calls++
	c.since(t0)
}

// total is the estimated host time of all calls.
func (c *callStat) total() int64 {
	if c.timed == 0 {
		return 0
	}
	return int64(float64(c.ns) * float64(c.calls) / float64(c.timed))
}

func (c *callStat) add(o callStat) {
	c.ns += o.ns
	c.calls += o.calls
	c.timed += o.timed
}

// shardStat is one shard's (or the monolithic system's) call record.
// Each shard owns its own, so shards stepped on different goroutines
// never share a counter.
type shardStat struct {
	step, nextWork, submit, skip callStat
}

func (s *shardStat) add(o *shardStat) {
	s.step.add(o.step)
	s.nextWork.add(o.nextWork)
	s.submit.add(o.submit)
	s.skip.add(o.skip)
}

func (s *shardStat) ns() int64 {
	return s.step.total() + s.nextWork.total() + s.submit.total() + s.skip.total()
}

// trialTrace is the record of one traced system.Run call.
type trialTrace struct {
	system      string
	build       callStat
	monolithic  shardStat // calls into the System itself, not a shard
	shards      []*shardStat
	completions int64
}

// tracedBuilder wraps build so that the system it returns is traced
// into tt. Completions are counted through Collector.Observe; the
// observer runs inside the collector, which a shard calls from its
// Step, so that cost is charged to the shard's layer.
func tracedBuilder(build system.Builder, tt *trialTrace) system.Builder {
	return func(tr system.Trial, col *system.Collector) (system.System, error) {
		col.Observe(func(*task.Job, slot.Time) { tt.completions++ })
		t0 := time.Now()
		sys, err := build(tr, col)
		tt.build.once(t0)
		if err != nil {
			return nil, err
		}
		return wrapSystem(sys, tt), nil
	}
}

// completionSinker is the redirection method of the parallel shard
// executor, named here so the wrapper can forward it without tying the
// benchmark to the interface's declared name.
type completionSinker interface {
	SetCompletionSink(sink func(j *task.Job, at slot.Time))
}

// tracedShard times the mandatory Shard methods.
type tracedShard struct {
	in system.Shard
	st *shardStat
}

func (t *tracedShard) Devices() []string { return t.in.Devices() }

func (t *tracedShard) Submit(now slot.Time, j *task.Job) {
	if !t.st.submit.sample() {
		t.in.Submit(now, j)
		return
	}
	t0 := time.Now()
	t.in.Submit(now, j)
	t.st.submit.since(t0)
}

func (t *tracedShard) Step(now slot.Time) {
	if !t.st.step.sample() {
		t.in.Step(now)
		return
	}
	t0 := time.Now()
	t.in.Step(now)
	t.st.step.since(t0)
}

func (t *tracedShard) NextWork(now slot.Time) slot.Time {
	if !t.st.nextWork.sample() {
		return t.in.NextWork(now)
	}
	t0 := time.Now()
	nw := t.in.NextWork(now)
	t.st.nextWork.since(t0)
	return nw
}

// skipper forwards sim.Skipper.
type skipper struct {
	sk sim.Skipper
	st *shardStat
}

func (s skipper) SkipTo(from, to slot.Time) {
	if !s.st.skip.sample() {
		s.sk.SkipTo(from, to)
		return
	}
	t0 := time.Now()
	s.sk.SkipTo(from, to)
	s.st.skip.since(t0)
}

// sinker forwards the completion-sink redirection untimed: it runs
// once per trial, before any slot.
type sinker struct{ cs completionSinker }

func (s sinker) SetCompletionSink(sink func(j *task.Job, at slot.Time)) {
	s.cs.SetCompletionSink(sink)
}

// wrapShard returns a traced shard with exactly in's optional methods.
func wrapShard(in system.Shard, st *shardStat) system.Shard {
	base := &tracedShard{in: in, st: st}
	sk, hasSkip := in.(sim.Skipper)
	cs, hasSink := in.(completionSinker)
	switch {
	case hasSkip && hasSink:
		return struct {
			*tracedShard
			skipper
			sinker
		}{base, skipper{sk, st}, sinker{cs}}
	case hasSkip:
		return struct {
			*tracedShard
			skipper
		}{base, skipper{sk, st}}
	case hasSink:
		return struct {
			*tracedShard
			sinker
		}{base, sinker{cs}}
	default:
		return base
	}
}

// tracedSystem times the System calls the runner makes outside the
// shards (the fallback Submit for unowned devices, and the monolithic
// Step of an unsharded run). Scoring calls (Pending, Dropped) stay
// untimed and count as runner time.
type tracedSystem struct {
	in system.System
	tt *trialTrace
}

func (t *tracedSystem) Name() string              { return t.in.Name() }
func (t *tracedSystem) Arch() rtos.Arch           { return t.in.Arch() }
func (t *tracedSystem) Residual() task.Set        { return t.in.Residual() }
func (t *tracedSystem) Dropped() int64            { return t.in.Dropped() }
func (t *tracedSystem) Pending(v func(*task.Job)) { t.in.Pending(v) }

func (t *tracedSystem) Submit(now slot.Time, j *task.Job) {
	t0 := time.Now()
	t.in.Submit(now, j)
	t.tt.monolithic.submit.once(t0)
}

func (t *tracedSystem) Step(now slot.Time) {
	t0 := time.Now()
	t.in.Step(now)
	t.tt.monolithic.step.once(t0)
}

// quiescer forwards sim.Quiescer on the system itself.
type quiescer struct {
	q  sim.Quiescer
	st *shardStat
}

func (q quiescer) NextWork(now slot.Time) slot.Time {
	t0 := time.Now()
	nw := q.q.NextWork(now)
	q.st.nextWork.once(t0)
	return nw
}

// sharder forwards system.ShardedSystem, wrapping every shard it hands
// out with a fresh record.
type sharder struct {
	ss system.ShardedSystem
	tt *trialTrace
}

func (s sharder) Shards() []system.Shard {
	in := s.ss.Shards()
	out := make([]system.Shard, len(in))
	for i, sh := range in {
		st := &shardStat{}
		s.tt.shards = append(s.tt.shards, st)
		out[i] = wrapShard(sh, st)
	}
	return out
}

// wrapSystem returns a traced system with exactly in's optional
// interfaces: any combination of ShardedSystem, Quiescer and Skipper.
func wrapSystem(in system.System, tt *trialTrace) system.System {
	base := &tracedSystem{in: in, tt: tt}
	ss, hasShards := in.(system.ShardedSystem)
	q, hasQ := in.(sim.Quiescer)
	sk, hasSkip := in.(sim.Skipper)
	sh := sharder{ss, tt}
	qu := quiescer{q, &tt.monolithic}
	sp := skipper{sk, &tt.monolithic}
	switch {
	case hasShards && hasQ && hasSkip:
		return struct {
			*tracedSystem
			sharder
			quiescer
			skipper
		}{base, sh, qu, sp}
	case hasShards && hasQ:
		return struct {
			*tracedSystem
			sharder
			quiescer
		}{base, sh, qu}
	case hasShards && hasSkip:
		return struct {
			*tracedSystem
			sharder
			skipper
		}{base, sh, sp}
	case hasShards:
		return struct {
			*tracedSystem
			sharder
		}{base, sh}
	case hasQ && hasSkip:
		return struct {
			*tracedSystem
			quiescer
			skipper
		}{base, qu, sp}
	case hasQ:
		return struct {
			*tracedSystem
			quiescer
		}{base, qu}
	case hasSkip:
		return struct {
			*tracedSystem
			skipper
		}{base, sp}
	default:
		return base
	}
}

// layerTotals is the merged record of every traced trial of a run.
type layerTotals struct {
	shard       map[string]*shardStat // by shard layer
	build       map[string]*callStat  // by build layer
	selfNs      int64                 // Σ runner self time
	completions int64
	shardSlots  float64 // Σ shards × horizon
	horizon     float64 // Σ horizon
}

func newLayerTotals() *layerTotals {
	lt := &layerTotals{shard: map[string]*shardStat{}, build: map[string]*callStat{}}
	for _, l := range shardLayers {
		lt.shard[l] = &shardStat{}
	}
	for _, l := range []string{layerCore, layerBaseline} {
		lt.build[l] = &callStat{}
	}
	return lt
}

// selfNs is the runner self time of one traced trial of the given wall
// time: everything not spent in the builder or inside a shard.
func (tt *trialTrace) selfNs(wall time.Duration) int64 {
	self := int64(wall) - tt.build.total() - tt.monolithic.ns()
	for _, st := range tt.shards {
		self -= st.ns()
	}
	return self
}

// add merges one trial's record.
func (lt *layerTotals) add(tt *trialTrace, wall time.Duration, horizon slot.Time) {
	sl := lt.shard[shardLayer(tt.system)]
	sl.add(&tt.monolithic)
	for _, st := range tt.shards {
		sl.add(st)
	}
	lt.build[buildLayer(tt.system)].add(tt.build)
	lt.selfNs += tt.selfNs(wall)
	lt.completions += tt.completions
	shards := len(tt.shards)
	if shards == 0 {
		shards = 1
	}
	lt.shardSlots += float64(shards) * float64(horizon)
	lt.horizon += float64(horizon)
}
