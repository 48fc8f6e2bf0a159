// The Collector: the measurement side of a trial. Systems call
// Complete from their response paths; the collector folds every
// observation into its recorders *as it arrives* (deadline
// classification, byte accounting, response/tardiness distributions,
// optional per-task stats) and hands it to every Observe sink, so
// Result is a cheap snapshot plus the pending-job censoring sweep.
// Observe is the one way a consumer sees completions: trace export,
// histograms and any per-layer attribution register a sink before the
// run. Two metrics modes choose the recorder implementation:
//
//   - MetricsExact (default, the zero value): buffered metrics.Sample
//     recorders, so percentiles are exact and rendered output is
//     byte-identical to the pre-streaming collector. Memory grows
//     O(completions) with the horizon.
//   - MetricsStream: bounded-memory metrics.Streaming recorders
//     (Welford moments, exact min/max, mergeable KLL percentile
//     sketch seeded from the trial seed) — collector memory is
//     independent of the horizon, and the per-trial recorders fold
//     into cross-trial sweep aggregates without degrading ε. Counts,
//     misses, bytes and throughput stay exact; only percentile
//     queries carry the sketch's documented ε rank error.
package system

import (
	"fmt"

	"ioguard/internal/faults"
	"ioguard/internal/metrics"
	"ioguard/internal/slot"
	"ioguard/internal/task"
)

// MetricsMode selects the collector's recorder implementation.
type MetricsMode uint8

// Metrics modes. The zero value is the exact buffered collector.
const (
	MetricsExact MetricsMode = iota
	MetricsStream
)

// String returns the CLI spelling of the mode.
func (m MetricsMode) String() string {
	switch m {
	case MetricsExact:
		return "exact"
	case MetricsStream:
		return "stream"
	default:
		return fmt.Sprintf("mode(%d)", uint8(m))
	}
}

// ParseMetricsMode parses the -metrics CLI flag.
func ParseMetricsMode(s string) (MetricsMode, error) {
	switch s {
	case "exact", "":
		return MetricsExact, nil
	case "stream", "streaming":
		return MetricsStream, nil
	default:
		return MetricsExact, fmt.Errorf("system: unknown metrics mode %q (want exact|stream)", s)
	}
}

// Collector records observed completions. The zero value is a usable
// exact-mode collector; NewCollector pre-sizes the exact mode's
// samples so a trial's hot path never regrows them, and
// NewCollectorFor selects either mode.
type Collector struct {
	mode MetricsMode
	// seed identifies the trial for the mergeable mode's sketch
	// coins; sketchSeq distinguishes the collector's recorders
	// (response, tardiness, per-task) within that identity.
	seed      uint64
	sketchSeq uint64

	// Incremental state, updated by Complete in both modes.
	completed      int64
	bytesServed    int64
	criticalMisses int64
	otherMisses    int64
	response       metrics.Recorder
	tardiness      metrics.Recorder

	// accuracy, when tracked, records the timing-accuracy error
	// max(response − WCET, 0) per completion (nil otherwise — clean
	// runs must not shift the streaming mode's recorder seeds).
	accuracy metrics.Recorder
	// fs is the trial's fault stream; completions of injected
	// duplicates are classified against it, and misses are split into
	// fault-conditioned vs clean by re-deriving each job's perturbation.
	fs           *faults.Stream
	dupDelivered int64
	faultedMiss  int64

	// perTask accumulates per-task statistics online; nil until
	// TrackByTask enables it.
	perTask map[int]*TaskStat

	// observers receive every completion as it is recorded.
	observers []func(j *task.Job, at slot.Time)

	// presize is the exact mode's expected completion count (capped):
	// the capacity of the trial-level response, tardiness and accuracy
	// samples.
	presize int
}

// maxCollectorPresize caps an exact-mode collector's pre-allocation: a
// degenerate horizon/period combination must not reserve unbounded
// memory up front (the samples still grow on demand past the cap).
const maxCollectorPresize = 1 << 16

// NewCollector returns an exact-mode collector with room for about n
// completions.
func NewCollector(n int) *Collector { return NewCollectorFor(MetricsExact, n, 0) }

// NewCollectorFor returns a collector in the given mode. n sizes the
// exact mode's samples and is ignored in streaming mode. seed is the
// trial identity: it drives the streaming mode's sketch coins, so a
// trial's recorders — and any aggregate folded from them — are a pure
// function of (seed, completion sequence). Run passes Trial.Seed;
// callers outside a trial pass 0.
func NewCollectorFor(mode MetricsMode, n int, seed int64) *Collector {
	c := &Collector{mode: mode, seed: uint64(seed)}
	if mode == MetricsExact {
		if n < 0 {
			n = 0
		}
		if n > maxCollectorPresize {
			n = maxCollectorPresize
		}
		c.presize = n
	}
	c.ensure()
	return c
}

// newRecorder builds one scalar recorder for the collector's mode; an
// exact sample gets room for n observations.
func (c *Collector) newRecorder(n int) metrics.Recorder {
	switch c.mode {
	case MetricsStream:
		// Distinct deterministic seed per recorder: mix the trial
		// identity with the recorder ordinal.
		s := c.seed + (c.sketchSeq+1)*0x9E3779B97F4A7C15
		c.sketchSeq++
		return metrics.NewStreaming(metrics.DefaultSketchEpsilon, s)
	default:
		return metrics.NewSample(n)
	}
}

// ensure lazily initializes the recorders so the zero-value Collector
// stays usable.
func (c *Collector) ensure() {
	if c.response == nil {
		c.response = c.newRecorder(c.presize)
		c.tardiness = c.newRecorder(c.presize)
	}
}

// Observe registers fn to receive every subsequent completion as it
// is recorded (e.g. trace.CSVSink.OnComplete, or a closure filling a
// metrics.Histogram). Register before the run: nothing is replayed.
func (c *Collector) Observe(fn func(j *task.Job, at slot.Time)) {
	c.observers = append(c.observers, fn)
}

// TrackAccuracy opts the collector into the ROTA-I/O timing-accuracy
// recorder. It must run before the first completion (Run calls it
// right after construction) so the recorder's sketch ordinal — and
// hence the per-task recorders' — is fixed for the whole trial.
// Untracked trials never allocate it, which keeps every pre-existing
// golden output byte-identical.
func (c *Collector) TrackAccuracy() {
	c.ensure()
	if c.accuracy == nil {
		c.accuracy = c.newRecorder(c.presize)
	}
}

// SetFaultStream attaches the trial's fault realization so completions
// can be classified against it (duplicate detection, fault-conditioned
// misses). Run threads the stream here for faulted trials.
func (c *Collector) SetFaultStream(fs *faults.Stream) { c.fs = fs }

// TrackByTask opts the collector into per-task stats, updated on
// every subsequent completion; ByTask returns them.
func (c *Collector) TrackByTask() {
	if c.perTask == nil {
		c.perTask = map[int]*TaskStat{}
	}
}

// critical reports whether a task's deadline misses fail the trial
// (safety and function tasks; synthetic load does not count).
func critical(t *task.Sporadic) bool {
	return t.Kind == task.Safety || t.Kind == task.Function
}

// Complete records that j's requester observed completion at slot at,
// folding the observation into every recorder immediately: deadline
// classification, bytes, response and tardiness distributions,
// tracked per-task stats, and any registered observers.
func (c *Collector) Complete(j *task.Job, at slot.Time) {
	c.ensure()
	if c.fs != nil && faults.IsDup(j) {
		// An injected duplicate completing is a phantom actuation: count
		// it, but keep it out of the distributions, the observers and
		// the miss classification — its observable cost is the
		// device bandwidth it consumed, which the real jobs' response
		// times already reflect.
		c.dupDelivered++
		return
	}
	c.completed++
	c.bytesServed += int64(j.Task.OpBytes)
	c.response.Add(float64(at - j.Release))
	tard := at - j.Deadline
	if tard < 0 {
		tard = 0
	}
	c.tardiness.Add(float64(tard))
	if c.accuracy != nil {
		acc := float64(at-j.Release) - float64(j.Task.WCET)
		if acc < 0 {
			acc = 0
		}
		c.accuracy.Add(acc)
	}
	missed := at > j.Deadline
	if missed {
		if critical(j.Task) {
			c.criticalMisses++
		} else {
			c.otherMisses++
		}
		if c.fs != nil && c.fs.Perturbed(j) {
			c.faultedMiss++
		}
	}
	if c.perTask != nil {
		st, ok := c.perTask[j.Task.ID]
		if !ok {
			st = &TaskStat{Task: j.Task, Response: c.newRecorder(0)}
			c.perTask[j.Task.ID] = st
		}
		st.observe(j, at)
	}
	for _, fn := range c.observers {
		fn(j, at)
	}
}

// Completed returns the number of recorded completions.
func (c *Collector) Completed() int { return int(c.completed) }

// Result scores a finished trial: a snapshot of the incrementally
// maintained state (completed jobs were classified against their
// deadlines at the *observed* completion time), plus the censoring
// sweep over sys.Pending — jobs still pending whose deadline has
// passed count as misses; pending jobs whose deadline lies at or
// beyond the horizon are censored. Run includes the jobs a fault delay
// still holds in transit.
func (c *Collector) Result(sys System, horizon slot.Time) *metrics.TrialResult {
	c.ensure()
	// The distributions are complete: drop the presized and growth
	// capacity of exact recorders, which a cross-trial DistFold would
	// otherwise hold on to for as long as it keeps the trial's buffer.
	for _, r := range []metrics.Recorder{c.response, c.tardiness, c.accuracy} {
		if s, ok := r.(*metrics.Sample); ok {
			s.Clip()
		}
	}
	res := &metrics.TrialResult{
		Horizon:        horizon,
		Dropped:        sys.Dropped(),
		Completed:      c.completed,
		BytesServed:    c.bytesServed,
		CriticalMisses: c.criticalMisses,
		OtherMisses:    c.otherMisses,
		Response:       c.response,
		Tardiness:      c.tardiness,
		Accuracy:       c.accuracy,
	}
	faultedMiss := c.faultedMiss
	sys.Pending(func(j *task.Job) {
		if c.fs != nil && faults.IsDup(j) {
			// Pending duplicates are not censored work — the original
			// job carries the deadline obligation.
			return
		}
		res.Unfinished++
		if j.Deadline < horizon {
			if critical(j.Task) {
				res.CriticalMisses++
			} else {
				res.OtherMisses++
			}
			if c.fs != nil && c.fs.Perturbed(j) {
				faultedMiss++
			}
		}
	})
	if c.fs != nil {
		s := c.fs.Summary()
		res.Faults = &metrics.FaultSummary{
			Jittered:      s.Jittered,
			Dropped:       s.Dropped,
			Duplicated:    s.Duplicated,
			Delayed:       s.Delayed,
			DupDelivered:  c.dupDelivered,
			FaultedMisses: faultedMiss,
		}
	}
	return res
}
