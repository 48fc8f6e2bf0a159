// DistFold: the cross-trial distribution accumulator behind
// Aggregate. Per-trial recorders arrive in a fixed fold order (trial
// order — RunCells returns results by input index) and fold by
// recorder kind:
//
//   - exact *Sample recorders fold by reference and are concatenated
//     into one exact cross-trial Sample on the first read — the
//     reference the ε·n acceptance band is measured against;
//   - *Streaming recorders Merge — counts, moments and extrema combine
//     exactly, quantiles at the common ε (KLL's bound survives
//     merging).
//
// A sweep uses one metrics mode throughout, so in practice exactly
// one of the two paths populates.
package metrics

import (
	"encoding/json"
	"fmt"
)

// DistFold accumulates one cross-trial distribution. The zero value
// is an empty fold ready for AddRecorder.
//
// Exact samples fold by reference: a folded *Sample is final, and its
// owner must not Add to it afterwards. The fold keeps the samples as
// parts and, on the first read (N, Mean, Max, Quantile, String or a
// Merge that reads it), concatenates them in fold order into one
// buffer of exactly the folded length and drops them. Holding the
// trials' own buffers avoids the per-fold copy and its growth slack,
// so a fold that is never read costs no memory beyond the trials'.
//
// The concatenated buffer keeps 4 bytes per observation while every
// folded part does (every slot count fits, see Sample); one widened
// part makes it float64.
//
// The lazy fold answers exactly as an eager value-by-value copy would,
// even when a part's owner has sorted it in place before the first
// read (a trial-level Percentile does): N, Max and Quantile do not
// depend on value order, and every exact value is an integer slot
// count, so Mean's float64 sum is exact in any order.
type DistFold struct {
	parts  []*Sample // exact samples folded since the last read
	exact  *Sample
	merged *Streaming
}

// AddRecorder folds one trial's recorder. Call in trial order: the
// merged sketch's state is a pure function of the fold sequence. Every
// trial's collector builds its recorders at DefaultSketchEpsilon, so a
// recorder that cannot fold is a programming error and panics.
func (f *DistFold) AddRecorder(r Recorder) {
	if r == nil {
		return
	}
	switch p := r.(type) {
	case *Sample:
		f.parts = append(f.parts, p)
	case *Streaming:
		if f.merged == nil {
			f.merged = p.Clone()
			return
		}
		if err := f.merged.Merge(p); err != nil {
			panic(err)
		}
	default:
		panic(fmt.Sprintf("metrics: cannot fold %T", p))
	}
}

// Merge folds another DistFold into the receiver (aggregate-of-
// aggregates: per-cell folds combine into a per-sweep fold).
func (f *DistFold) Merge(o *DistFold) error {
	if o.resolve(); o.exact != nil {
		f.parts = append(f.parts, o.exact)
	}
	if o.merged != nil {
		if f.merged == nil {
			f.merged = o.merged.Clone()
		} else if err := f.merged.Merge(o.merged); err != nil {
			return err
		}
	}
	return nil
}

// Resolved reports whether the fold can answer distribution queries
// (at least one recorder folded).
func (f *DistFold) Resolved() bool {
	return len(f.parts) > 0 || f.exact != nil || f.merged != nil
}

// resolve concatenates the exact buffer and the pending parts, in fold
// order, into one buffer of exactly their total length: int32 when
// every part is, float64 when any part has widened.
func (f *DistFold) resolve() {
	if len(f.parts) == 0 {
		return
	}
	parts := f.parts
	if f.exact != nil {
		parts = append([]*Sample{f.exact}, parts...)
	}
	n, wide := 0, false
	for _, p := range parts {
		n += p.N()
		wide = wide || p.wide != nil
	}
	if wide {
		values := make([]float64, 0, n)
		for _, p := range parts {
			values = p.appendTo(values)
		}
		f.exact = &Sample{wide: values}
	} else {
		values := make([]int32, 0, n)
		for _, p := range parts {
			values = append(values, p.small...)
		}
		f.exact = &Sample{small: values}
	}
	f.parts = nil
}

// recorder returns the backing recorder, preferring the exact fold.
func (f *DistFold) recorder() Recorder {
	f.resolve()
	if f.exact != nil {
		return f.exact
	}
	if f.merged != nil {
		return f.merged
	}
	return nil
}

// N returns the total folded observation count.
func (f *DistFold) N() int {
	f.resolve()
	n := 0
	if f.exact != nil {
		n += f.exact.N()
	}
	if f.merged != nil {
		n += f.merged.N()
	}
	return n
}

// Mean returns the mean of the folded observations (exact in every
// resolvable mode), or 0 when empty.
func (f *DistFold) Mean() float64 {
	if r := f.recorder(); r != nil {
		return r.Mean()
	}
	return 0
}

// Max returns the largest folded observation (exact), or 0 when empty.
func (f *DistFold) Max() float64 {
	if r := f.recorder(); r != nil {
		return r.Max()
	}
	return 0
}

// Quantile returns the q-th (q in [0,1]) cross-trial quantile: exact
// from the exact fold, within ⌈εN⌉ ranks from the merged sketch; 0
// when the fold is empty.
func (f *DistFold) Quantile(q float64) float64 {
	if r := f.recorder(); r != nil {
		return r.Percentile(q * 100)
	}
	return 0
}

// Sketch returns the merged KLL-backed recorder, or nil when the fold
// is exact or empty — the handle the results pipeline serializes into
// the nightly trajectory.
func (f *DistFold) Sketch() *Streaming { return f.merged }

// String renders the fold for aggregate tables: a stable one-line
// summary per fold state.
func (f *DistFold) String() string {
	r := f.recorder()
	if r == nil || r.N() == 0 {
		return "n=0"
	}
	kind := "exact"
	if f.merged != nil {
		kind = fmt.Sprintf("merged ε=%g", f.merged.Epsilon())
	}
	return fmt.Sprintf("n=%d mean=%.2f p50=%.0f p90=%.0f p99=%.0f max=%.0f [%s]",
		r.N(), r.Mean(), r.Percentile(50), r.Percentile(90), r.Percentile(99), r.Max(), kind)
}

// distFoldJSON is the fold's wire form: only the merged sketch ships
// (the exact fold is a test-time reference, never persisted).
type distFoldJSON struct {
	Merged *Streaming `json:"merged,omitempty"`
}

// MarshalJSON serializes the mergeable state. Folds holding an exact
// reference refuse: persisting megabytes of raw values is what the
// sketch pipeline exists to avoid.
func (f *DistFold) MarshalJSON() ([]byte, error) {
	if len(f.parts) > 0 || f.exact != nil {
		return nil, fmt.Errorf("metrics: DistFold with exact buffer does not serialize")
	}
	return json.Marshal(distFoldJSON{Merged: f.merged})
}

// UnmarshalJSON decodes a fold; the embedded recorder revalidates its
// own invariants (see Streaming.UnmarshalJSON).
func (f *DistFold) UnmarshalJSON(data []byte) error {
	var w distFoldJSON
	if err := json.Unmarshal(data, &w); err != nil {
		return err
	}
	f.parts, f.exact = nil, nil
	f.merged = w.Merged
	return nil
}
