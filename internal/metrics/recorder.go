// The streaming observation pipeline: a Recorder is fed one
// observation at a time and answers the summary queries the
// evaluation needs (moments, extrema, percentiles). Three
// implementations exist:
//
//   - Sample — the exact buffered recorder: keeps every value, answers
//     nearest-rank percentiles exactly. O(n) memory; the default, and
//     the reference the experiment tables are rendered from.
//   - Streaming — bounded memory: Welford running moments, exact
//     min/max, and a mergeable KLL quantile sketch. Memory is
//     independent of the observation count (up to the sketch's
//     O((1/ε)·log(εn)) retained items), so long-horizon trials no
//     longer buffer every completion.
//   - Tee — duplicates each observation to side Observers (a
//     Histogram, a trace sink adapter) while delegating the summary
//     queries to a primary Recorder, so distribution views are built
//     online instead of replaying a buffer afterwards.
package metrics

// Observer is the write side of the pipeline: anything that can
// absorb one scalar observation. Histogram implements it directly.
type Observer interface {
	Add(v float64)
}

// Recorder is a full streaming statistics accumulator: the write side
// plus the summary queries of Sec. V (response-time mean, variance,
// extrema and percentiles).
type Recorder interface {
	Observer
	N() int
	Mean() float64
	Variance() float64
	StdDev() float64
	Min() float64
	Max() float64
	Percentile(p float64) float64
	String() string
}

// Compile-time conformance of the three implementations.
var (
	_ Recorder = (*Sample)(nil)
	_ Recorder = (*Streaming)(nil)
	_ Recorder = (*Tee)(nil)
	_ Observer = (*Histogram)(nil)
)

// Tee forwards every observation to the primary Recorder and to each
// attached sink. Summary queries come from the primary (promoted
// through the embedded interface), so a Tee is itself a Recorder and
// tees can nest.
type Tee struct {
	Recorder
	Sinks []Observer
}

// NewTee wraps primary so that every Add also reaches sinks.
func NewTee(primary Recorder, sinks ...Observer) *Tee {
	return &Tee{Recorder: primary, Sinks: sinks}
}

// Add records the observation in the primary and every sink.
func (t *Tee) Add(v float64) {
	t.Recorder.Add(v)
	for _, s := range t.Sinks {
		s.Add(v)
	}
}
