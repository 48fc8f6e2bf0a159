// Package metrics provides the evaluation metrics of Sec. V: success
// ratio (trials without any safety/function deadline miss), I/O
// throughput, and response-time statistics (mean, percentiles,
// variance) used to quantify predictability.
package metrics

import (
	"fmt"
	"math"
	"sort"

	"ioguard/internal/iodev"
	"ioguard/internal/slot"
)

// Sample accumulates scalar observations (e.g. response times).
type Sample struct {
	values []float64
	sorted bool
}

// NewSample returns an empty sample with room for n observations.
func NewSample(n int) *Sample { return &Sample{values: make([]float64, 0, n)} }

// Add appends an observation.
func (s *Sample) Add(v float64) {
	s.values = append(s.values, v)
	s.sorted = false
}

// Clip releases the spare capacity append growth left behind, moving
// the observations into a buffer of exactly their count. Call it once
// a sample is complete: a DistFold holds folded samples as they are.
func (s *Sample) Clip() {
	if cap(s.values) > len(s.values) {
		s.values = append(make([]float64, 0, len(s.values)), s.values...)
	}
}

// N returns the number of observations.
func (s *Sample) N() int { return len(s.values) }

// Mean returns the arithmetic mean, or 0 for an empty sample.
func (s *Sample) Mean() float64 {
	if len(s.values) == 0 {
		return 0
	}
	var sum float64
	for _, v := range s.values {
		sum += v
	}
	return sum / float64(len(s.values))
}

// Variance returns the population variance, or 0 for fewer than two
// observations.
func (s *Sample) Variance() float64 {
	if len(s.values) < 2 {
		return 0
	}
	m := s.Mean()
	var sum float64
	for _, v := range s.values {
		d := v - m
		sum += d * d
	}
	return sum / float64(len(s.values))
}

// StdDev returns the population standard deviation.
func (s *Sample) StdDev() float64 { return math.Sqrt(s.Variance()) }

// Min returns the smallest observation, or 0 for an empty sample.
func (s *Sample) Min() float64 {
	if len(s.values) == 0 {
		return 0
	}
	min := s.values[0]
	for _, v := range s.values {
		if v < min {
			min = v
		}
	}
	return min
}

// Max returns the largest observation, or 0 for an empty sample.
func (s *Sample) Max() float64 {
	if len(s.values) == 0 {
		return 0
	}
	max := s.values[0]
	for _, v := range s.values {
		if v > max {
			max = v
		}
	}
	return max
}

// Percentile returns the p-th percentile (0 ≤ p ≤ 100) using
// nearest-rank on the sorted sample, or 0 for an empty sample.
func (s *Sample) Percentile(p float64) float64 {
	if len(s.values) == 0 {
		return 0
	}
	if !s.sorted {
		sort.Float64s(s.values)
		s.sorted = true
	}
	if p <= 0 {
		return s.values[0]
	}
	if p >= 100 {
		return s.values[len(s.values)-1]
	}
	rank := int(math.Ceil(p/100*float64(len(s.values)))) - 1
	if rank < 0 {
		rank = 0
	}
	return s.values[rank]
}

// String summarizes the sample.
func (s *Sample) String() string {
	return fmt.Sprintf("n=%d mean=%.2f sd=%.2f min=%.0f p99=%.0f max=%.0f",
		s.N(), s.Mean(), s.StdDev(), s.Min(), s.Percentile(99), s.Max())
}

// FaultSummary accounts one faulted trial: what the fault-injection
// layer put in (jitter, drops, duplicates, delays — order-independent
// sums over the per-job decision hashes) and what the collector saw
// come out (delivered duplicates, deadline misses of perturbed jobs).
// Nil on TrialResult means the trial ran clean.
type FaultSummary struct {
	// Jittered counts jobs whose release the fault layer pushed later.
	Jittered int64
	// Dropped counts requests lost in transport. They never reach the
	// system, so they appear in neither Completed nor the system's own
	// Dropped counter; this field is the only record of them.
	Dropped int64
	// Duplicated counts injected duplicate requests.
	Duplicated int64
	// Delayed counts requests given extra transport delay.
	Delayed int64
	// DupDelivered counts duplicate completions the collector observed
	// (phantom actuations: excluded from every distribution, their cost
	// is the device bandwidth they consumed).
	DupDelivered int64
	// FaultedMisses counts deadline misses (critical + synthetic,
	// completed or censored-pending) of fault-perturbed jobs — the
	// fault-conditioned slice of the miss counters.
	FaultedMisses int64
}

// TrialResult is the outcome of one execution of one system under one
// configuration (one of the paper's 1000 trials).
type TrialResult struct {
	Released       int64 // jobs handed to the system by the release engine
	Completed      int64
	CriticalMisses int64 // deadline misses of safety/function tasks
	OtherMisses    int64 // deadline misses of synthetic tasks
	Unfinished     int64 // jobs never completed within the horizon
	Dropped        int64 // jobs rejected by full queues
	BytesServed    int64
	Horizon        slot.Time
	// Response holds the observed response times of all completed
	// jobs: an exact *Sample in the default metrics mode, a
	// bounded-memory *Streaming recorder in streaming mode.
	Response Recorder
	// Tardiness is max(observed completion − deadline, 0) per
	// completed job: the predictability metric (0 everywhere means
	// every deadline held; its tail quantifies how badly a system
	// degrades).
	Tardiness Recorder
	// Accuracy is the ROTA-I/O-style timing-accuracy distribution:
	// max(observed response − WCET, 0) per completed job, the error
	// between the observed actuation and the earliest one an unloaded
	// device could have produced. Nil unless the trial opted in
	// (Trial.Accuracy, or any enabled fault plan).
	Accuracy Recorder
	// Faults summarizes the trial's fault injection; nil for clean runs.
	Faults *FaultSummary
}

// Success reports whether the trial succeeded in the paper's sense:
// no safety or function task missed a deadline.
func (t *TrialResult) Success() bool { return t.CriticalMisses == 0 }

// ThroughputMBps returns the served payload in MB/s of simulated time.
func (t *TrialResult) ThroughputMBps() float64 {
	if t.Horizon <= 0 {
		return 0
	}
	secs := float64(t.Horizon) / iodev.SlotsPerSec
	return float64(t.BytesServed) / 1e6 / secs
}

// Aggregate summarizes many trials of one configuration: the success
// ratio across trials, the distribution of throughput, and — when the
// trial recorders support folding — the merged cross-trial response
// and tardiness distributions.
type Aggregate struct {
	Trials     int
	Successes  int
	Throughput Sample // MB/s per trial
	Misses     Sample // critical misses per trial
	// Response and Tardiness fold the per-trial completion
	// distributions across the whole sweep: exact Samples fold into an
	// exact reference, Streaming recorders Merge without degrading ε.
	// AddTrial folds in call order, so an aggregate built in
	// trial order is a pure function of the trial sequence — the
	// byte-identical-for-any-workers contract extends to quantiles.
	Response  DistFold
	Tardiness DistFold
	// Accuracy folds the per-trial timing-accuracy distributions; it
	// stays empty unless trials tracked one.
	Accuracy DistFold

	// FaultTrials counts trials that carried a fault summary; the
	// samples below hold one observation per such trial. All stay empty
	// for clean sweeps.
	FaultTrials     int
	FaultJittered   Sample // jittered releases per trial
	FaultDropped    Sample // transport drops per trial
	FaultDuplicated Sample // injected duplicates per trial
	FaultDelayed    Sample // delayed requests per trial
	DupDelivered    Sample // delivered duplicates per trial
	FaultedMisses   Sample // misses of perturbed jobs per trial
}

// AddTrial folds one trial into the aggregate.
func (a *Aggregate) AddTrial(t *TrialResult) {
	a.Trials++
	if t.Success() {
		a.Successes++
	}
	a.Throughput.Add(t.ThroughputMBps())
	a.Misses.Add(float64(t.CriticalMisses))
	a.Response.AddRecorder(t.Response)
	a.Tardiness.AddRecorder(t.Tardiness)
	a.Accuracy.AddRecorder(t.Accuracy)
	if t.Faults != nil {
		a.FaultTrials++
		a.FaultJittered.Add(float64(t.Faults.Jittered))
		a.FaultDropped.Add(float64(t.Faults.Dropped))
		a.FaultDuplicated.Add(float64(t.Faults.Duplicated))
		a.FaultDelayed.Add(float64(t.Faults.Delayed))
		a.DupDelivered.Add(float64(t.Faults.DupDelivered))
		a.FaultedMisses.Add(float64(t.Faults.FaultedMisses))
	}
}

// SuccessRatio returns the fraction of successful trials in [0,1].
func (a *Aggregate) SuccessRatio() float64 {
	if a.Trials == 0 {
		return 0
	}
	return float64(a.Successes) / float64(a.Trials)
}

// String summarizes the aggregate.
func (a *Aggregate) String() string {
	return fmt.Sprintf("trials=%d success=%.1f%% tput=%.3f±%.3f MB/s",
		a.Trials, 100*a.SuccessRatio(), a.Throughput.Mean(), a.Throughput.StdDev())
}
