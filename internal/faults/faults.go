// Package faults is the deterministic fault-injection layer of the
// robustness experiments (ROTA-I/O-style, PAPERS.md): it perturbs job
// releases at the workload layer (extra release jitter beyond the
// sporadic model's own bound) and request packets at the transport
// layer (drops, duplicates, extra delivery delay) under a seeded plan.
//
// Determinism is the design constraint. The harness runs trials on
// anywhere between one and GOMAXPROCS threads (-workers), its run loop
// steps each shard only in the slots it chooses, and a faulted run
// must be byte-identical at every worker count and to a run that steps
// every slot. A shared sequential RNG cannot
// provide that — the draw order would depend on the schedule — so
// every decision here is a pure function of
//
//	(plan seed, trial seed, task ID, job sequence, fault point)
//
// hashed through SplitMix64 finalizers. Whoever asks, in whatever
// order, gets the same answer; the counters the Stream keeps are order
// independent sums. The same property makes every decision
// re-derivable after the fact, which is how the collector classifies a
// finished job as fault-perturbed without carrying state on the job.
package faults

import (
	"fmt"

	"ioguard/internal/slot"
	"ioguard/internal/task"
)

// Plan configures the fault layer for one trial. The zero value is a
// clean run: Enabled reports false and the runner skips the layer
// entirely, leaving the hot path (and every golden output) untouched.
// The JSON tags are the trial server's fault_* request fields.
type Plan struct {
	// Seed identifies the fault universe. The per-trial stream mixes it
	// with the trial seed, so a sweep's trials see independent fault
	// realizations while the same (-fault-seed, -seed) pair replays
	// exactly.
	Seed int64 `json:"fault_seed"`
	// ReleaseJitter adds up to this many slots of extra delay to every
	// residual task's inter-release gap (uniform in [0, ReleaseJitter]),
	// on top of the sporadic model's own bounded jitter — the workload-
	// layer perturbation.
	ReleaseJitter slot.Time `json:"fault_jitter"`
	// DropProb is the probability a submitted request is lost in
	// transport and never reaches the system.
	DropProb float64 `json:"fault_drop"`
	// DupProb is the probability a submitted request is duplicated: a
	// clone follows the original through the same transport.
	DupProb float64 `json:"fault_dup"`
	// DelayProb is the probability a submitted request is held in
	// transport for a uniform extra delay in [1, DelayMax] slots.
	DelayProb float64 `json:"fault_delay"`
	// DelayMax bounds the transport delay; required positive when
	// DelayProb is.
	DelayMax slot.Time `json:"fault_delay_max"`
}

// Enabled reports whether the plan perturbs anything.
func (p Plan) Enabled() bool {
	return p.ReleaseJitter > 0 || p.DropProb > 0 || p.DupProb > 0 || p.DelayProb > 0
}

// Validate rejects unusable plans (client error on the server path,
// flag error on the CLIs).
func (p Plan) Validate() error {
	if p.ReleaseJitter < 0 {
		return fmt.Errorf("faults: negative release jitter %d", p.ReleaseJitter)
	}
	if p.DelayMax < 0 {
		return fmt.Errorf("faults: negative delay bound %d", p.DelayMax)
	}
	for _, pr := range []struct {
		name string
		v    float64
	}{{"drop", p.DropProb}, {"dup", p.DupProb}, {"delay", p.DelayProb}} {
		if !(pr.v >= 0 && pr.v <= 1) { // NaN fails both
			return fmt.Errorf("faults: %s probability %v outside [0,1]", pr.name, pr.v)
		}
	}
	if p.DelayProb > 0 && p.DelayMax == 0 {
		return fmt.Errorf("faults: delay probability %v needs a positive -fault-delay-max", p.DelayProb)
	}
	return nil
}

// dupSeqBit marks the job sequence number of an injected duplicate.
// Transports key in-flight state by (task, seq) — the mesh baselines'
// inflight maps, the collector's identity checks — so a duplicate must
// not collide with its original. Real sequence numbers stay far below
// this bit (a trial would need >10⁹ jobs of one task to reach it).
const dupSeqBit = 1 << 30

// IsDup reports whether j is a fault-injected duplicate.
func IsDup(j *task.Job) bool { return j.Seq&dupSeqBit != 0 }

// Summary is the order-independent account of what a stream injected
// into one trial, surfaced on metrics.TrialResult via the collector.
type Summary struct {
	// Jittered counts jobs whose release the fault layer pushed later.
	Jittered int64
	// Dropped counts requests lost in transport (never submitted; they
	// are neither misses nor system drops — see DESIGN.md).
	Dropped int64
	// Duplicated counts injected duplicate requests.
	Duplicated int64
	// Delayed counts requests given extra transport delay.
	Delayed int64
}

// Action is the transport-layer verdict for one request.
type Action struct {
	Drop  bool
	Dup   bool
	Delay slot.Time
}

// Fault points, mixed into the hash so the same job draws
// independently at each decision.
const (
	pointJitter uint64 = iota + 1
	pointDrop
	pointDup
	pointDelay
	pointDelaySpan
)

// splitmix64 is the SplitMix64 finalizer (Steele et al.), the same
// mixer the trial-seed schedule uses.
func splitmix64(z uint64) uint64 {
	z = (z ^ (z >> 30)) * 0xBF58476D1CE4E5B9
	z = (z ^ (z >> 27)) * 0x94D049BB133111EB
	return z ^ (z >> 31)
}

// Stream is one trial's fault realization. All methods are pure in the
// decision they return; the mutation is limited to the summary
// counters, which every caller touches from the runner's one trial
// goroutine, in global release order.
type Stream struct {
	plan Plan
	base uint64
	sum  Summary
}

// New builds the stream for one trial, or nil for a clean plan — the
// runner branches on nil, keeping the zero-fault hot path identical to
// a build without this package.
func New(plan Plan, trialSeed int64) *Stream {
	if !plan.Enabled() {
		return nil
	}
	base := splitmix64(uint64(plan.Seed) + 0x9E3779B97F4A7C15)
	base = splitmix64(base ^ uint64(trialSeed))
	return &Stream{plan: plan, base: base}
}

// word derives the decision word for one (fault point, task, seq)
// triple. The dup marker bit is masked off first so a duplicate shares
// its original's identity at every point except its own injection —
// Perturbed must answer the same for both.
func (s *Stream) word(point uint64, t *task.Sporadic, seq int) uint64 {
	z := s.base + point*0x9E3779B97F4A7C15
	z = splitmix64(z + (uint64(t.ID)+1)*0xBF58476D1CE4E5B9)
	return splitmix64(z + uint64(seq&^dupSeqBit) + 1)
}

// hit converts a decision word into a Bernoulli draw at probability p.
func hit(w uint64, p float64) bool {
	if p <= 0 {
		return false
	}
	return float64(w>>11)/(1<<53) < p
}

// jitterFor is the pure release-jitter draw for job (t, seq). First
// jobs (sequence 0) are never jittered: their release is already drawn
// uniformly in [0, Period) by the fleet, and the jitter hook only
// shapes inter-release gaps — keeping the draw zero here keeps
// Perturbed consistent with what the workload layer actually applied.
func (s *Stream) jitterFor(t *task.Sporadic, seq int) slot.Time {
	if s.plan.ReleaseJitter <= 0 || seq&^dupSeqBit == 0 {
		return 0
	}
	w := s.word(pointJitter, t, seq)
	return slot.Time(w % uint64(s.plan.ReleaseJitter+1))
}

// actionFor is the pure transport verdict for job (t, seq). Drop wins
// over dup and delay: a lost packet is simply lost.
func (s *Stream) actionFor(t *task.Sporadic, seq int) Action {
	var a Action
	if hit(s.word(pointDrop, t, seq), s.plan.DropProb) {
		a.Drop = true
		return a
	}
	a.Dup = hit(s.word(pointDup, t, seq), s.plan.DupProb)
	if hit(s.word(pointDelay, t, seq), s.plan.DelayProb) {
		span := s.word(pointDelaySpan, t, seq)
		a.Delay = 1 + slot.Time(span%uint64(s.plan.DelayMax))
	}
	return a
}

// ReleaseJitter returns the extra release delay for job (t, seq) and
// accounts it. Its signature matches vm.JitterFunc so the runner can
// hand the method straight to the fleet.
func (s *Stream) ReleaseJitter(t *task.Sporadic, seq int) slot.Time {
	d := s.jitterFor(t, seq)
	if d > 0 {
		s.sum.Jittered++
	}
	return d
}

// Transport returns the transport verdict for job j and accounts it.
// Call exactly once per original (non-duplicate) request, at the
// submission boundary.
func (s *Stream) Transport(j *task.Job) Action {
	a := s.actionFor(j.Task, j.Seq)
	switch {
	case a.Drop:
		s.sum.Dropped++
	default:
		if a.Dup {
			s.sum.Duplicated++
		}
		if a.Delay > 0 {
			s.sum.Delayed++
		}
	}
	return a
}

// DupJob clones j as its injected duplicate: same spec, release and
// deadline, the sequence number marked with the duplicate bit.
func (s *Stream) DupJob(j *task.Job) *task.Job {
	return task.NewJob(j.Task, j.Seq|dupSeqBit, j.Release)
}

// Perturbed re-derives whether job j was touched by any fault —
// jittered release, transport delay, or being (or having spawned) a
// duplicate — without consuming randomness or touching counters. The
// collector uses it to split deadline misses into fault-conditioned
// and clean.
func (s *Stream) Perturbed(j *task.Job) bool {
	if IsDup(j) {
		return true
	}
	if s.jitterFor(j.Task, j.Seq) > 0 {
		return true
	}
	a := s.actionFor(j.Task, j.Seq)
	return a.Drop || a.Dup || a.Delay > 0
}

// Summary snapshots the injection counters.
func (s *Stream) Summary() Summary { return s.sum }
