package metrics

import (
	"math"
	"math/rand"
	"sort"
	"testing"
)

// fill feeds the same values to an exact Sample and a Streaming
// recorder.
func fill(values []float64, eps float64) (*Sample, *Streaming) {
	s := &Sample{}
	st := NewStreaming(eps, 1)
	for _, v := range values {
		s.Add(v)
		st.Add(v)
	}
	return s, st
}

// datasets returns named value sequences covering the shapes the
// collector sees: clustered response times with duplicates, monotone
// drains, heavy tails.
func datasets(rng *rand.Rand, n int) map[string][]float64 {
	uniform := make([]float64, n)
	for i := range uniform {
		uniform[i] = rng.Float64() * 4000
	}
	clustered := make([]float64, n)
	for i := range clustered {
		// Few distinct values, like a tight schedule's response times.
		clustered[i] = float64(10 + 5*rng.Intn(8))
	}
	ascending := make([]float64, n)
	for i := range ascending {
		ascending[i] = float64(i)
	}
	tailed := make([]float64, n)
	for i := range tailed {
		v := rng.ExpFloat64() * 100
		tailed[i] = math.Floor(v)
	}
	return map[string][]float64{
		"uniform": uniform, "clustered": clustered,
		"ascending": ascending, "tailed": tailed,
	}
}

func TestStreamingMatchesSampleMoments(t *testing.T) {
	rng := rand.New(rand.NewSource(7))
	for name, values := range datasets(rng, 5000) {
		s, st := fill(values, DefaultSketchEpsilon)
		relClose := func(got, want, tol float64, what string) {
			scale := math.Abs(want)
			if scale < 1 {
				scale = 1
			}
			if math.Abs(got-want) > tol*scale {
				t.Errorf("%s/%s: got %v, want %v", name, what, got, want)
			}
		}
		if st.N() != s.N() {
			t.Errorf("%s: n=%d want %d", name, st.N(), s.N())
		}
		relClose(st.Mean(), s.Mean(), 1e-9, "mean")
		relClose(st.Variance(), s.Variance(), 1e-9, "variance")
		relClose(st.StdDev(), s.StdDev(), 1e-9, "stddev")
		if st.Min() != s.Min() || st.Max() != s.Max() {
			t.Errorf("%s: min/max = %v/%v, want %v/%v", name, st.Min(), st.Max(), s.Min(), s.Max())
		}
	}
}

// rankErr returns how far v sits, in ranks, from the nearest-rank
// target in the sorted reference data: 0 when v's value range covers
// the target rank (duplicates count as a range).
func rankErr(sorted []float64, target int, v float64) int {
	lo := sort.SearchFloat64s(sorted, v)                                      // first index ≥ v
	hi := sort.Search(len(sorted), func(i int) bool { return sorted[i] > v }) // first index > v
	ti := target - 1                                                          // 0-based
	if ti >= lo && ti < hi {
		return 0
	}
	if ti < lo {
		return lo - ti
	}
	return ti - hi + 1
}

// TestStreamingQuantileRankBound is the recorder's contract: across
// randomized data sets, the value returned for p50/p95/p99 has a rank
// within ⌈εn⌉ of the exact nearest rank used by Sample.Percentile.
func TestStreamingQuantileRankBound(t *testing.T) {
	for _, seed := range []int64{1, 42, 7919} {
		rng := rand.New(rand.NewSource(seed))
		for _, n := range []int{100, 2000, 20000} {
			for name, values := range datasets(rng, n) {
				_, st := fill(values, DefaultSketchEpsilon)
				sorted := append([]float64(nil), values...)
				sort.Float64s(sorted)
				for _, p := range []float64{50, 95, 99} {
					got := st.Percentile(p)
					target := int(math.Ceil(p / 100 * float64(n)))
					if target < 1 {
						target = 1
					}
					tol := int(math.Ceil(DefaultSketchEpsilon * float64(n)))
					if e := rankErr(sorted, target, got); e > tol {
						t.Errorf("seed %d %s n=%d p%g: value %v is %d ranks off (tol %d)",
							seed, name, n, p, got, e, tol)
					}
				}
			}
		}
	}
}

// TestStreamingSmallN: with fewer observations than the sketch ever
// compresses, percentiles are exact.
func TestStreamingSmallN(t *testing.T) {
	values := []float64{5, 1, 9, 3, 7}
	s, st := fill(values, DefaultSketchEpsilon)
	for _, p := range []float64{0, 20, 50, 80, 100} {
		if got, want := st.Percentile(p), s.Percentile(p); got != want {
			t.Errorf("p%g = %v, want %v", p, got, want)
		}
	}
}

func TestStreamingEmpty(t *testing.T) {
	st := NewStreaming(0, 1)
	if st.N() != 0 || st.Mean() != 0 || st.Variance() != 0 || st.Min() != 0 ||
		st.Max() != 0 || st.Percentile(99) != 0 {
		t.Errorf("empty streaming recorder must answer zeros: %s", st)
	}
}

// TestSketchMemoryBounded: the tuple count stays far below n and
// stops growing with it — the O(1)-memory claim of streaming mode.
func TestSketchMemoryBounded(t *testing.T) {
	rng := rand.New(rand.NewSource(3))
	st := NewStreaming(DefaultSketchEpsilon, 1)
	var at100k int
	for i := 0; i < 400_000; i++ {
		st.Add(rng.Float64() * 1e6)
		if i == 100_000 {
			at100k = st.SketchTuples()
		}
	}
	if st.SketchTuples() > 4*at100k {
		t.Errorf("sketch grew from %d to %d tuples between 100k and 400k inserts; want ~logarithmic",
			at100k, st.SketchTuples())
	}
	if st.SketchTuples() > 4000 {
		t.Errorf("sketch holds %d tuples, want O((1/ε)·log(εn)) ≪ n", st.SketchTuples())
	}
}

// TestStreamingSteadyStateAllocs: after warm-up, Add must not
// allocate — the collector's streaming hot path depends on it.
func TestStreamingSteadyStateAllocs(t *testing.T) {
	rng := rand.New(rand.NewSource(5))
	st := NewStreaming(DefaultSketchEpsilon, 1)
	for i := 0; i < 200_000; i++ {
		st.Add(rng.Float64() * 4096)
	}
	var x uint64 = 12345
	allocs := testing.AllocsPerRun(50_000, func() {
		// Deterministic LCG: varied insert positions without rand's
		// allocation behavior in the measured region.
		x = x*6364136223846793005 + 1442695040888963407
		st.Add(float64(x >> 52))
	})
	if allocs > 0.001 {
		t.Errorf("steady-state Add allocates %.4f/op, want ~0", allocs)
	}
}

func TestStreamingStringMirrorsSampleFormat(t *testing.T) {
	values := []float64{1, 2, 3, 4}
	s, st := fill(values, DefaultSketchEpsilon)
	if s.String() != st.String() {
		t.Errorf("summaries diverge on exact data:\nsample:    %s\nstreaming: %s", s, st)
	}
}
