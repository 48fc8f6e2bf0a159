// Streaming: the bounded-memory Recorder. Moments come from
// Welford's online algorithm (numerically stable running mean and sum
// of squared deviations), extrema are tracked exactly, and
// percentiles come from a KLL quantile sketch — so a recorder's memory
// is independent of how many observations flow through it, which is
// what makes paper-scale 1000-trial × 100 s sweeps tractable without
// buffering every completion. Two recorders also Merge exactly:
// moments combine by the parallel Welford update, extrema by min/max,
// and the sketches fold without degrading ε — the primitive behind
// cross-trial sweep quantiles.
package metrics

import (
	"encoding/json"
	"fmt"
	"math"
)

// Streaming accumulates scalar observations in bounded memory: exact
// n/mean/variance/min/max, ε-approximate percentiles. Construct with
// NewStreaming; the zero value is not usable (the sketch needs its ε).
type Streaming struct {
	n      int64
	mean   float64
	m2     float64 // sum of squared deviations from the running mean
	min    float64
	max    float64
	sketch *KLL
}

// NewStreaming returns an empty streaming recorder whose percentile
// queries are accurate to eps ranks per observation (≤ 0 selects
// DefaultSketchEpsilon), its sketch's compaction coins seeded from
// seed (pass the trial seed so the recorder is a pure function of
// trial identity). Merge is fold-exact: the merged ε is the common ε,
// not a sum.
func NewStreaming(eps float64, seed uint64) *Streaming {
	return &Streaming{sketch: NewKLL(eps, seed)}
}

// Epsilon returns the percentile sketch's rank-error bound.
func (s *Streaming) Epsilon() float64 { return s.sketch.Epsilon() }

// SketchTuples returns the quantile sketch's current summary size
// (for memory accounting in tests and benchmarks).
func (s *Streaming) SketchTuples() int { return s.sketch.Tuples() }

// Add absorbs one observation.
func (s *Streaming) Add(v float64) {
	s.n++
	if s.n == 1 {
		s.min, s.max = v, v
	} else {
		if v < s.min {
			s.min = v
		}
		if v > s.max {
			s.max = v
		}
	}
	d := v - s.mean
	s.mean += d / float64(s.n)
	s.m2 += d * (v - s.mean)
	s.sketch.Add(v)
}

// N returns the number of observations.
func (s *Streaming) N() int { return int(s.n) }

// Mean returns the arithmetic mean, or 0 for an empty recorder.
func (s *Streaming) Mean() float64 {
	if s.n == 0 {
		return 0
	}
	return s.mean
}

// Variance returns the population variance, or 0 for fewer than two
// observations (matching Sample).
func (s *Streaming) Variance() float64 {
	if s.n < 2 {
		return 0
	}
	return s.m2 / float64(s.n)
}

// StdDev returns the population standard deviation.
func (s *Streaming) StdDev() float64 { return math.Sqrt(s.Variance()) }

// Min returns the smallest observation, or 0 when empty.
func (s *Streaming) Min() float64 {
	if s.n == 0 {
		return 0
	}
	return s.min
}

// Max returns the largest observation, or 0 when empty.
func (s *Streaming) Max() float64 {
	if s.n == 0 {
		return 0
	}
	return s.max
}

// Percentile returns the p-th percentile (0 ≤ p ≤ 100) from the
// sketch: a value whose rank is within ⌈εn⌉ of the exact nearest
// rank. Empty recorders return 0, matching Sample.
func (s *Streaming) Percentile(p float64) float64 {
	return s.sketch.Quantile(p / 100)
}

// String summarizes the recorder in Sample's format.
func (s *Streaming) String() string {
	return fmt.Sprintf("n=%d mean=%.2f sd=%.2f min=%.0f p99=%.0f max=%.0f",
		s.N(), s.Mean(), s.StdDev(), s.Min(), s.Percentile(99), s.Max())
}

// Merge folds other into the receiver: counts add, moments combine by
// the parallel Welford update, extrema by min/max, and the quantile
// sketches Merge (which requires both recorders to share ε). The
// receiver is unchanged on error. Folding a fixed sequence of
// recorders in a fixed order is deterministic, so sweep aggregates
// render byte-identically for any worker count.
func (s *Streaming) Merge(other *Streaming) error {
	if other.n == 0 {
		// Still fold the coin stream so aggregate identity covers
		// every trial, observed or not.
		return s.sketch.Merge(other.sketch)
	}
	if err := s.sketch.Merge(other.sketch); err != nil {
		return err
	}
	if s.n == 0 {
		s.min, s.max = other.min, other.max
	} else {
		if other.min < s.min {
			s.min = other.min
		}
		if other.max > s.max {
			s.max = other.max
		}
	}
	n := s.n + other.n
	delta := other.mean - s.mean
	s.mean += delta * float64(other.n) / float64(n)
	s.m2 += other.m2 + delta*delta*float64(s.n)*float64(other.n)/float64(n)
	s.n = n
	return nil
}

// Clone returns a deep copy (aggregates clone the first folded trial
// rather than aliasing it).
func (s *Streaming) Clone() *Streaming {
	c := *s
	c.sketch = s.sketch.Clone()
	return &c
}

// streamingJSON is the recorder's wire form: serialization exists so
// sweeps can persist merged distributions.
type streamingJSON struct {
	N      int64           `json:"n"`
	Mean   float64         `json:"mean"`
	M2     float64         `json:"m2"`
	Min    float64         `json:"min"`
	Max    float64         `json:"max"`
	Sketch json.RawMessage `json:"sketch"`
}

// MarshalJSON serializes the recorder.
func (s *Streaming) MarshalJSON() ([]byte, error) {
	sk, err := json.Marshal(s.sketch)
	if err != nil {
		return nil, err
	}
	return json.Marshal(streamingJSON{
		N: s.n, Mean: s.mean, M2: s.m2, Min: s.min, Max: s.max, Sketch: sk,
	})
}

// UnmarshalJSON decodes a recorder, revalidating every wire claim:
// the sketch's own invariants (see KLL.UnmarshalJSON), the moment
// fields' finiteness, m2 ≥ 0, min ≤ max, and n equal to the sketch's
// recomputed observation count. See
// TestStreamingUnmarshalRejectsMalformed for the case table.
func (s *Streaming) UnmarshalJSON(data []byte) error {
	var w streamingJSON
	if err := json.Unmarshal(data, &w); err != nil {
		return err
	}
	if len(w.Sketch) == 0 {
		return fmt.Errorf("metrics: recorder wire form missing sketch")
	}
	k := &KLL{}
	if err := json.Unmarshal(w.Sketch, k); err != nil {
		return err
	}
	if w.N != k.N() {
		return fmt.Errorf("metrics: recorder wire n=%d disagrees with sketch n=%d", w.N, k.N())
	}
	for _, f := range [...]float64{w.Mean, w.M2, w.Min, w.Max} {
		if math.IsNaN(f) || math.IsInf(f, 0) {
			return fmt.Errorf("metrics: recorder wire holds non-finite moment")
		}
	}
	if w.M2 < 0 {
		return fmt.Errorf("metrics: recorder wire m2=%g negative", w.M2)
	}
	if w.N > 0 && w.Min > w.Max {
		return fmt.Errorf("metrics: recorder wire min=%g exceeds max=%g", w.Min, w.Max)
	}
	if w.N == 0 && (w.Mean != 0 || w.M2 != 0 || w.Min != 0 || w.Max != 0) {
		return fmt.Errorf("metrics: recorder wire empty but moments nonzero")
	}
	s.n = w.N
	s.mean = w.Mean
	s.m2 = w.M2
	s.min = w.Min
	s.max = w.Max
	s.sketch = k
	return nil
}
