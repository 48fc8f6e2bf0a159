package metrics

import (
	"bytes"
	"encoding/json"
	"math"
	"math/rand"
	"strings"
	"testing"
)

// TestStreamingMergeMomentsExact: Merge must combine n, mean,
// variance, min and max exactly (the parallel Welford update is
// algebraically exact; only quantiles are sketched).
func TestStreamingMergeMomentsExact(t *testing.T) {
	rng := rand.New(rand.NewSource(5))
	whole := NewStreaming(0.01, 9) // exact-moment reference
	parts := make([]*Streaming, 4)
	for i := range parts {
		parts[i] = NewStreaming(0.01, uint64(i)+10)
	}
	for i := 0; i < 40_000; i++ {
		v := rng.NormFloat64()*100 + 50
		whole.Add(v)
		parts[i%len(parts)].Add(v)
	}
	agg := NewStreaming(0.01, 1)
	for _, p := range parts {
		if err := agg.Merge(p); err != nil {
			t.Fatal(err)
		}
	}
	if agg.N() != whole.N() {
		t.Fatalf("merged n=%d, want %d", agg.N(), whole.N())
	}
	if agg.Min() != whole.Min() || agg.Max() != whole.Max() {
		t.Fatalf("merged min/max %g/%g, want %g/%g", agg.Min(), agg.Max(), whole.Min(), whole.Max())
	}
	if d := math.Abs(agg.Mean() - whole.Mean()); d > 1e-9 {
		t.Fatalf("merged mean off by %g", d)
	}
	if d := math.Abs(agg.Variance() - whole.Variance()); d > 1e-6 {
		t.Fatalf("merged variance off by %g", d)
	}
}

// TestStreamingMergeEmptySides: folding empty recorders in either
// direction must leave moments untouched while still absorbing the
// coin stream.
func TestStreamingMergeEmptySides(t *testing.T) {
	full := NewStreaming(0.01, 1)
	for i := 1; i <= 100; i++ {
		full.Add(float64(i))
	}
	if err := full.Merge(NewStreaming(0.01, 2)); err != nil {
		t.Fatal(err)
	}
	if full.N() != 100 || full.Min() != 1 || full.Max() != 100 {
		t.Fatalf("merge of empty changed moments: n=%d min=%g max=%g", full.N(), full.Min(), full.Max())
	}
	empty := NewStreaming(0.01, 3)
	if err := empty.Merge(full); err != nil {
		t.Fatal(err)
	}
	if empty.N() != 100 || empty.Min() != 1 || empty.Max() != 100 || empty.Mean() != full.Mean() {
		t.Fatalf("merge into empty lost moments: n=%d min=%g max=%g", empty.N(), empty.Min(), empty.Max())
	}
}

// TestStreamingClone: the clone is deep — mutating it does not move
// the original.
func TestStreamingClone(t *testing.T) {
	s := NewStreaming(0.01, 1)
	for i := 0; i < 10_000; i++ {
		s.Add(float64(i))
	}
	before, _ := json.Marshal(s)
	c := s.Clone()
	for i := 0; i < 10_000; i++ {
		c.Add(float64(-i))
	}
	after, _ := json.Marshal(s)
	if !bytes.Equal(before, after) {
		t.Fatal("mutating clone changed the original")
	}
}

// TestStreamingJSONRoundTrip: encode → decode → encode is byte-stable
// and the decoded recorder answers identically.
func TestStreamingJSONRoundTrip(t *testing.T) {
	s := NewStreaming(0.005, 9)
	rng := rand.New(rand.NewSource(4))
	for i := 0; i < 25_000; i++ {
		s.Add(rng.ExpFloat64() * 10)
	}
	b1, err := json.Marshal(s)
	if err != nil {
		t.Fatal(err)
	}
	dec := &Streaming{}
	if err := json.Unmarshal(b1, dec); err != nil {
		t.Fatal(err)
	}
	b2, err := json.Marshal(dec)
	if err != nil {
		t.Fatal(err)
	}
	if !bytes.Equal(b1, b2) {
		t.Fatal("encode→decode→encode not byte-stable")
	}
	if dec.N() != s.N() || dec.Mean() != s.Mean() || dec.Percentile(99) != s.Percentile(99) {
		t.Fatal("decoded recorder answers differently")
	}
}

// TestStreamingUnmarshalRejectsMalformed: the recorder's wire
// invariants (finiteness, m2 ≥ 0, min ≤ max, mean within [min, max],
// n consistency with the embedded sketch, empty-means-zero) each have a
// hostile case.
func TestStreamingUnmarshalRejectsMalformed(t *testing.T) {
	sketch := `{"eps":0.01,"k":300,"n":3,"rng":1,"levels":[[1,2,3]]}`
	cases := []struct {
		name, raw, want string
	}{
		{"missing sketch", `{"n":3,"mean":2,"m2":2,"min":1,"max":3}`, "missing sketch"},
		{"n mismatch", `{"n":4,"mean":2,"m2":2,"min":1,"max":3,"sketch":` + sketch + `}`, "disagrees"},
		{"negative m2", `{"n":3,"mean":2,"m2":-1,"min":1,"max":3,"sketch":` + sketch + `}`, "negative"},
		{"min above max", `{"n":3,"mean":2,"m2":2,"min":5,"max":3,"sketch":` + sketch + `}`, "exceeds"},
		{"mean above max", `{"n":3,"mean":110,"m2":2,"min":1,"max":100,"sketch":` + sketch + `}`, "mean"},
		{"mean below min", `{"n":3,"mean":0.5,"m2":2,"min":1,"max":3,"sketch":` + sketch + `}`, "mean"},
		{"overflow mean", `{"n":3,"mean":1e999,"m2":2,"min":1,"max":3,"sketch":` + sketch + `}`, ""},
		{"empty with moments", `{"n":0,"mean":7,"m2":0,"min":0,"max":0,"sketch":{"eps":0.01,"k":300,"n":0,"rng":1,"levels":[[]]}}`, "empty"},
		{"sketch value above max", `{"n":3,"mean":2,"m2":2,"min":1,"max":2,"sketch":` + sketch + `}`, "outside"},
		{"sketch value below min", `{"n":3,"mean":2,"m2":2,"min":2,"max":3,"sketch":` + sketch + `}`, "outside"},
		{"bad sketch", `{"n":3,"mean":2,"m2":2,"min":1,"max":3,"sketch":{"eps":9,"k":300,"n":3,"rng":1,"levels":[[1,2,3]]}}`, "ε"},
	}
	for _, tc := range cases {
		t.Run(tc.name, func(t *testing.T) {
			var s Streaming
			if err := json.Unmarshal([]byte(tc.raw), &s); err == nil {
				t.Fatalf("decode of %q payload succeeded", tc.name)
			} else if tc.want != "" && !strings.Contains(err.Error(), tc.want) {
				t.Fatalf("decode of %q: error %v does not mention %q", tc.name, err, tc.want)
			}
		})
	}
	var s Streaming
	good := `{"n":3,"mean":2,"m2":2,"min":1,"max":3,"sketch":` + sketch + `}`
	if err := json.Unmarshal([]byte(good), &s); err != nil {
		t.Fatalf("valid payload rejected: %v", err)
	}
	if s.N() != 3 || s.Mean() != 2 || s.Min() != 1 || s.Max() != 3 {
		t.Fatalf("valid payload decoded wrong: %s", s.String())
	}
}

// TestStreamingHonestMergeRoundTrips: a recorder built only by Add and
// Merge always survives an encode/decode round trip, however its
// values sit. The draws crowd the extrema, where a rounded merged mean
// would first step outside [min, max], at magnitudes from 1e-300 to
// 1e100, across merge chains and merges of merged recorders.
func TestStreamingHonestMergeRoundTrips(t *testing.T) {
	rng := rand.New(rand.NewSource(11))
	scales := []float64{1e-300, 1e-9, 0.1, 1, 3, 1e6, 1e15, 1e100}
	for trial := 0; trial < 3000; trial++ {
		scale := scales[rng.Intn(len(scales))]
		lo := (rng.Float64() - 0.5) * scale
		hi := lo + rng.Float64()*scale
		draw := func() float64 {
			switch k := rng.Intn(10); {
			case k < 4:
				return hi
			case k < 7:
				return lo
			case k < 8:
				return math.Nextafter(hi, lo)
			default:
				return lo + rng.Float64()*(hi-lo)
			}
		}
		build := func(seed uint64) *Streaming {
			acc := NewStreaming(0.05, seed)
			for p := rng.Intn(12); p >= 0; p-- {
				part := NewStreaming(0.05, seed+uint64(p)+1)
				for i := rng.Intn(30); i >= 0; i-- {
					part.Add(draw())
				}
				if err := acc.Merge(part); err != nil {
					t.Fatal(err)
				}
			}
			return acc
		}
		s := build(uint64(trial) * 100)
		if rng.Intn(2) == 0 {
			if err := s.Merge(build(uint64(trial)*100 + 50)); err != nil {
				t.Fatal(err)
			}
		}
		data, err := json.Marshal(s)
		if err != nil {
			t.Fatal(err)
		}
		var back Streaming
		if err := json.Unmarshal(data, &back); err != nil {
			t.Fatalf("trial %d: honest recorder (n=%d mean=%g min=%g max=%g) refused: %v",
				trial, s.N(), s.Mean(), s.Min(), s.Max(), err)
		}
	}
}

// TestStreamingKLLRecorderContract: the KLL-backed recorder satisfies
// the Recorder behavior suite: zero-valued when empty, exact moments,
// exact ranks before the first compaction.
func TestStreamingKLLRecorderContract(t *testing.T) {
	var _ Recorder = NewStreaming(0.01, 1)
	s := NewStreaming(0.01, 1)
	if s.N() != 0 || s.Mean() != 0 || s.StdDev() != 0 || s.Percentile(50) != 0 {
		t.Fatal("empty KLL-backed recorder not zero-valued")
	}
	vals := []float64{3, 1, 4, 1, 5, 9, 2, 6}
	exact := &Sample{}
	for _, v := range vals {
		s.Add(v)
		exact.Add(v)
	}
	if s.Mean() != exact.Mean() || s.Min() != exact.Min() || s.Max() != exact.Max() {
		t.Fatalf("moments diverge from Sample: %s vs %s", s.String(), exact.String())
	}
	if s.Percentile(50) != exact.Percentile(50) {
		// No compaction at n=8: ranks are exact.
		t.Fatalf("p50 %g, want %g", s.Percentile(50), exact.Percentile(50))
	}
}
