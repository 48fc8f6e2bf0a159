// KLL (Karnin–Lang–Liberty, FOCS'16): the mergeable ε-approximate
// quantile sketch behind cross-trial aggregation. The sketch keeps a
// pyramid of compactors: level i holds items of weight 2^i, and when
// the total size outgrows the capacity budget the lowest over-full
// level is sorted and every other item (a coin decides odd or even)
// is promoted one level up at doubled weight. Each compaction
// perturbs any fixed rank by at most the compacted weight, and the
// geometric capacity schedule (top levels widest, factor 2/3 per
// level down) keeps the summed perturbation below ⌈εn⌉ with high
// probability — a bound that, unlike Greenwald–Khanna's, survives
// Merge: folding two KLL summaries of the same ε yields a summary of
// the combined stream at the same ε, which is what lets a sweep fold
// per-trial sketches into per-cell and per-sweep aggregates.
//
// Determinism: the compaction coins come from a per-sketch SplitMix64
// stream seeded from trial identity — never the math/rand global — so
// a sketch's contents are a pure function of (seed, insert sequence)
// and a merged sketch of (seeds, fold order). That is what keeps
// ParallelSweep's rendered output byte-identical for any -workers.
package metrics

import (
	"encoding/json"
	"fmt"
	"math"
	"slices"
)

// DefaultSketchEpsilon is the rank-error bound used by the streaming
// recorders: a quantile query on n observations returns a value whose
// rank is within ⌈εn⌉ of the exact nearest rank. At 0.005 the p99 of
// one million observations is off by at most 5000 ranks (0.5 %).
const DefaultSketchEpsilon = 0.005

// kllSafety converts the advertised rank-error bound ε into the
// compactor width k = ⌈kllSafety/ε⌉. Empirically KLL's 99th-percentile
// normalized rank error sits near 2.3/k (DataSketches calibration);
// 3.0 leaves a ~30 % margin so the property tests' adversarial
// streams and K-way merges stay inside ε·n.
const kllSafety = 3.0

// kllLevelDecay is the capacity decay per level below the top (the
// paper's c): lower levels are cheaper to re-compact, so they get
// geometrically less space. 2/3 is the standard choice.
const kllLevelDecay = 2.0 / 3.0

// kllMinWidth floors every level's capacity.
const kllMinWidth = 2

// kllMaxLevels bounds the pyramid height: level weights are 2^i, so 61
// levels already cover any int64 observation count.
const kllMaxLevels = 61

// KLL is a mergeable quantile summary. The zero value is not usable;
// construct with NewKLL.
type KLL struct {
	eps    float64
	k      int
	n      int64
	rng    uint64 // SplitMix64 state for compaction coins
	levels [][]float64
}

// NewKLL returns an empty mergeable sketch with rank-error bound eps
// (clamped to (0, 0.5] via DefaultSketchEpsilon) whose compaction
// coins are seeded from seed — pass the trial seed so the sketch is a
// pure function of trial identity.
func NewKLL(eps float64, seed uint64) *KLL {
	if !(eps > 0) || eps > 0.5 {
		eps = DefaultSketchEpsilon
	}
	return &KLL{
		eps:    eps,
		k:      int(math.Ceil(kllSafety / eps)),
		rng:    splitmix64(seed ^ 0x4B4C4C736B657463), // "KLLsketc"
		levels: [][]float64{make([]float64, 0, 64)},
	}
}

// splitmix64 is the avalanche finalizer used for both seeding and the
// coin stream.
func splitmix64(z uint64) uint64 {
	z += 0x9E3779B97F4A7C15
	z = (z ^ (z >> 30)) * 0xBF58476D1CE4E5B9
	z = (z ^ (z >> 27)) * 0x94D049BB133111EB
	return z ^ (z >> 31)
}

// nextBit draws one compaction coin.
func (s *KLL) nextBit() int {
	s.rng = splitmix64(s.rng)
	return int(s.rng >> 63)
}

// Epsilon returns the advertised rank-error bound.
func (s *KLL) Epsilon() float64 { return s.eps }

// N returns the number of observations absorbed.
func (s *KLL) N() int64 { return s.n }

// Tuples returns the retained item count across all levels.
func (s *KLL) Tuples() int {
	total := 0
	for _, lv := range s.levels {
		total += len(lv)
	}
	return total
}

// capacity returns level i's item budget under the current pyramid
// height: k at the top, decaying by kllLevelDecay per level down,
// floored at kllMinWidth.
func (s *KLL) capacity(level int) int {
	depth := len(s.levels) - 1 - level
	c := float64(s.k)
	for i := 0; i < depth; i++ {
		c *= kllLevelDecay
		if c < kllMinWidth {
			return kllMinWidth
		}
	}
	return int(math.Ceil(c))
}

// capacityBudget sums the per-level budgets.
func (s *KLL) capacityBudget() int {
	total := 0
	for i := range s.levels {
		total += s.capacity(i)
	}
	return total
}

// Add absorbs one observation.
func (s *KLL) Add(v float64) {
	s.levels[0] = append(s.levels[0], v)
	s.n++
	if s.Tuples() > s.capacityBudget() {
		s.compress()
	}
}

// compress compacts over-full levels until the summary fits its
// budget again. Each pass compacts the lowest level exceeding its own
// capacity (falling back to the lowest non-empty level), which keeps
// the amortized work per insert constant.
func (s *KLL) compress() {
	for s.Tuples() > s.capacityBudget() {
		target := -1
		for i := range s.levels {
			if len(s.levels[i]) > s.capacity(i) {
				target = i
				break
			}
		}
		if target < 0 {
			for i := range s.levels {
				if len(s.levels[i]) > kllMinWidth-1 && len(s.levels[i]) >= 2 {
					target = i
					break
				}
			}
		}
		if target < 0 || len(s.levels[target]) < 2 {
			return // nothing compactable; accept the overshoot
		}
		s.compactLevel(target)
	}
}

// compactLevel sorts level i, retains the smallest item when the
// count is odd (weight must be conserved exactly), promotes every
// other remaining item to level i+1 at doubled weight, and discards
// the rest. The odd/even choice is one deterministic coin.
func (s *KLL) compactLevel(i int) {
	if i+1 >= len(s.levels) {
		if len(s.levels) >= kllMaxLevels {
			return
		}
		s.levels = append(s.levels, make([]float64, 0, kllMinWidth*2))
	}
	lv := s.levels[i]
	slices.Sort(lv)
	keep := 0
	if len(lv)%2 == 1 {
		keep = 1 // lv[0] stays behind at weight 2^i
	}
	pairs := lv[keep:]
	offset := s.nextBit()
	for j := offset; j < len(pairs); j += 2 {
		s.levels[i+1] = append(s.levels[i+1], pairs[j])
	}
	s.levels[i] = lv[:keep]
}

// Merge folds o into the receiver: level-wise concatenation plus a
// re-compression. Both sketches must share ε. The coin streams
// combine deterministically, so a fold executed in a fixed order
// yields identical bytes on every run.
func (s *KLL) Merge(o *KLL) error {
	if o.eps != s.eps {
		return fmt.Errorf("metrics: KLL ε mismatch (%g vs %g)", s.eps, o.eps)
	}
	for len(s.levels) < len(o.levels) {
		s.levels = append(s.levels, make([]float64, 0, kllMinWidth*2))
	}
	for i, lv := range o.levels {
		s.levels[i] = append(s.levels[i], lv...)
	}
	s.n += o.n
	s.rng = splitmix64(s.rng ^ splitmix64(o.rng))
	if s.Tuples() > s.capacityBudget() {
		s.compress()
	}
	return nil
}

// Clone returns a deep copy (fold seeds: the first trial folded into
// an aggregate is cloned rather than aliased, so later trials cannot
// mutate a result that was already scored).
func (s *KLL) Clone() *KLL {
	c := &KLL{eps: s.eps, k: s.k, n: s.n, rng: s.rng}
	c.levels = make([][]float64, len(s.levels))
	for i, lv := range s.levels {
		c.levels[i] = append(make([]float64, 0, cap(lv)), lv...)
	}
	return c
}

// kllItem pairs a retained value with its level weight for rank
// queries.
type kllItem struct {
	v float64
	w int64
}

// items flattens the pyramid into weighted items sorted by value.
func (s *KLL) items() []kllItem {
	out := make([]kllItem, 0, s.Tuples())
	for i, lv := range s.levels {
		w := int64(1) << uint(i)
		for _, v := range lv {
			out = append(out, kllItem{v: v, w: w})
		}
	}
	slices.SortFunc(out, func(a, b kllItem) int {
		switch {
		case a.v < b.v:
			return -1
		case a.v > b.v:
			return 1
		default:
			return 0
		}
	})
	return out
}

// Quantile returns a value whose rank among the observations is
// within ⌈εn⌉ of the nearest-rank target ⌈q·n⌉ (q in [0,1]). An
// empty sketch returns 0, matching Sample's convention.
func (s *KLL) Quantile(q float64) float64 {
	if s.n == 0 {
		return 0
	}
	it := s.items()
	if len(it) == 0 {
		return 0
	}
	if q <= 0 {
		return it[0].v
	}
	if q >= 1 {
		return it[len(it)-1].v
	}
	target := int64(math.Ceil(q * float64(s.n)))
	if target < 1 {
		target = 1
	}
	var cum int64
	for _, item := range it {
		cum += item.w
		if cum >= target {
			return item.v
		}
	}
	return it[len(it)-1].v
}

// String summarizes the sketch state.
func (s *KLL) String() string {
	return fmt.Sprintf("kll(ε=%g k=%d n=%d levels=%d tuples=%d)",
		s.eps, s.k, s.n, len(s.levels), s.Tuples())
}

// kllJSON is the wire form. The rng state rides along so a decoded
// sketch keeps compacting deterministically.
type kllJSON struct {
	Eps    float64     `json:"eps"`
	K      int         `json:"k"`
	N      int64       `json:"n"`
	Rng    uint64      `json:"rng"`
	Levels [][]float64 `json:"levels"`
}

// MarshalJSON emits the canonical wire form: levels are sorted first
// (semantics-preserving — compaction sorts anyway) so encode → decode
// → encode is byte-stable.
func (s *KLL) MarshalJSON() ([]byte, error) {
	for _, lv := range s.levels {
		slices.Sort(lv)
	}
	return json.Marshal(kllJSON{Eps: s.eps, K: s.k, N: s.n, Rng: s.rng, Levels: s.levels})
}

// kllMaxWireItems bounds the decoded summary size: a well-formed
// sketch holds O(k/(1−c)) ≈ 3k items, so anything past a generous
// multiple is a hostile or corrupt payload, not a sketch.
const kllMaxWireItems = 1 << 22

// UnmarshalJSON decodes and *revalidates* — wire state is never
// trusted. The observation count is recomputed from the level sizes
// and must match the stored n (level weights are 2^i, so the item
// counts fully determine n); every value must be finite; the pyramid
// height and total size are bounded before any allocation-driven
// work. See TestKLLUnmarshalRejectsMalformed for the case table.
func (s *KLL) UnmarshalJSON(data []byte) error {
	var w kllJSON
	if err := json.Unmarshal(data, &w); err != nil {
		return err
	}
	if !(w.Eps > 0) || w.Eps > 0.5 {
		return fmt.Errorf("metrics: KLL wire ε %g outside (0, 0.5]", w.Eps)
	}
	if w.K < kllMinWidth || w.K > kllMaxWireItems {
		return fmt.Errorf("metrics: KLL wire k %d outside [%d, %d]", w.K, kllMinWidth, kllMaxWireItems)
	}
	if len(w.Levels) == 0 || len(w.Levels) > kllMaxLevels {
		return fmt.Errorf("metrics: KLL wire has %d levels, want 1..%d", len(w.Levels), kllMaxLevels)
	}
	total := 0
	var n int64
	for i, lv := range w.Levels {
		total += len(lv)
		if total > kllMaxWireItems {
			return fmt.Errorf("metrics: KLL wire exceeds %d items", kllMaxWireItems)
		}
		weight := int64(1) << uint(i)
		n += int64(len(lv)) * weight
		for _, v := range lv {
			if math.IsNaN(v) || math.IsInf(v, 0) {
				return fmt.Errorf("metrics: KLL wire holds non-finite value at level %d", i)
			}
		}
	}
	if n < 0 {
		return fmt.Errorf("metrics: KLL wire item counts overflow int64")
	}
	if n != w.N {
		return fmt.Errorf("metrics: KLL wire n=%d disagrees with recomputed %d", w.N, n)
	}
	s.eps = w.Eps
	s.k = w.K
	s.n = n // recomputed, not the wire's word
	s.rng = w.Rng
	s.levels = w.Levels
	if len(s.levels[0]) == 0 && cap(s.levels[0]) == 0 {
		s.levels[0] = make([]float64, 0, 64)
	}
	if s.Tuples() > s.capacityBudget() {
		s.compress()
	}
	return nil
}
