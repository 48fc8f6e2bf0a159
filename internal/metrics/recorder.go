// The streaming observation pipeline: a Recorder is fed one
// observation at a time and answers the summary queries the
// evaluation needs (moments, extrema, percentiles). Two
// implementations exist:
//
//   - Sample — the exact buffered recorder: keeps every value, answers
//     nearest-rank percentiles exactly. O(n) memory: 4 bytes per slot
//     observation; any other value widens the sample to 8. The default,
//     and the reference the experiment tables are rendered from.
//   - Streaming — bounded memory: Welford running moments, exact
//     min/max, and a mergeable KLL quantile sketch. Memory is
//     independent of the observation count (up to the sketch's
//     O((1/ε)·log(εn)) retained items), so long-horizon trials no
//     longer buffer every completion.
//
// Other views of the same observations (a Histogram, a trace export)
// attach to system.Collector.Observe instead of wrapping a Recorder.
package metrics

// Recorder is a full streaming statistics accumulator: the write side
// (Add, one observation at a time) plus the summary queries of Sec. V
// (response-time mean, variance, extrema and percentiles).
type Recorder interface {
	Add(v float64)
	N() int
	Mean() float64
	Variance() float64
	StdDev() float64
	Min() float64
	Max() float64
	Percentile(p float64) float64
	String() string
}

// Compile-time conformance of the two implementations.
var (
	_ Recorder = (*Sample)(nil)
	_ Recorder = (*Streaming)(nil)
)
