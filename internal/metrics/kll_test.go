package metrics

import (
	"bytes"
	"encoding/json"
	"fmt"
	"math"
	"math/rand"
	"slices"
	"sort"
	"strings"
	"testing"
)

// rankBand locates the estimate's rank range in the exact sorted data
// and returns its distance (in ranks) from the nearest-rank target
// ⌈q·n⌉ — zero when the target falls inside the estimate's own tie
// range.
func rankBand(sorted []float64, est float64, q float64) int64 {
	n := int64(len(sorted))
	target := int64(math.Ceil(q * float64(n)))
	if target < 1 {
		target = 1
	}
	if target > n {
		target = n
	}
	lo := int64(sort.SearchFloat64s(sorted, est)) + 1 // min rank of est
	hi := int64(sort.Search(len(sorted), func(i int) bool { return sorted[i] > est }))
	if lo > hi { // est not present: distance to insertion point
		hi = lo - 1
	}
	switch {
	case target < lo:
		return lo - target
	case target > hi:
		return target - hi
	default:
		return 0
	}
}

// adversarialStreams are the shapes the merge bound must survive:
// monotone ramps stress compaction ordering, constants stress tie
// handling, bimodal stresses the gap between modes.
func adversarialStreams(n int, seed int64) map[string][]float64 {
	rng := rand.New(rand.NewSource(seed))
	sorted := make([]float64, n)
	for i := range sorted {
		sorted[i] = float64(i)
	}
	reversed := make([]float64, n)
	for i := range reversed {
		reversed[i] = float64(n - i)
	}
	constant := make([]float64, n)
	for i := range constant {
		constant[i] = 42
	}
	bimodal := make([]float64, n)
	for i := range bimodal {
		if rng.Intn(2) == 0 {
			bimodal[i] = rng.Float64()
		} else {
			bimodal[i] = 1e6 + rng.Float64()
		}
	}
	random := make([]float64, n)
	for i := range random {
		random[i] = rng.NormFloat64() * 1000
	}
	return map[string][]float64{
		"sorted": sorted, "reversed": reversed, "constant": constant,
		"bimodal": bimodal, "random": random,
	}
}

var testQuantiles = []float64{0, 0.01, 0.25, 0.5, 0.75, 0.9, 0.99, 1}

// checkRankError asserts every test quantile answers within ⌈εn⌉
// ranks of the exact data.
func checkRankError(t *testing.T, name string, s *KLL, values []float64) {
	t.Helper()
	sorted := append([]float64(nil), values...)
	slices.Sort(sorted)
	n := int64(len(sorted))
	if s.N() != n {
		t.Fatalf("%s: sketch n=%d, want %d", name, s.N(), n)
	}
	tol := int64(math.Ceil(s.Epsilon() * float64(n)))
	for _, q := range testQuantiles {
		est := s.Quantile(q)
		if err := rankBand(sorted, est, q); err > tol {
			t.Errorf("%s: Quantile(%g)=%g off by %d ranks, tolerance %d (n=%d)",
				name, q, est, err, tol, n)
		}
	}
}

// TestKLLRankError: single-sketch accuracy on every adversarial
// stream shape at two stream lengths and two ε values.
func TestKLLRankError(t *testing.T) {
	for _, eps := range []float64{0.005, 0.02} {
		for _, n := range []int{1000, 50_000} {
			for name, vals := range adversarialStreams(n, 7) {
				s := NewKLL(eps, 99)
				for _, v := range vals {
					s.Add(v)
				}
				checkRankError(t, fmt.Sprintf("%s/eps=%g/n=%d", name, eps, n), s, vals)
			}
		}
	}
}

// TestKLLKWayMergeRankError: K-way merges of adversarial streams must
// still answer within ⌈εN⌉ of the combined stream — the property GK
// lacks and the reason KLL backs sweep aggregation. Each of the K
// shards carries a differently shaped stream, merged pairwise in
// order like ParallelSweep's fold.
func TestKLLKWayMergeRankError(t *testing.T) {
	const eps = 0.01
	for _, k := range []int{2, 8, 32} {
		streams := adversarialStreams(2000, int64(k))
		names := make([]string, 0, len(streams))
		for name := range streams {
			names = append(names, name)
		}
		slices.Sort(names)
		agg := NewKLL(eps, 1)
		var all []float64
		for i := 0; i < k; i++ {
			vals := streams[names[i%len(names)]]
			shard := NewKLL(eps, uint64(i)*0x9E37+5)
			for _, v := range vals {
				shard.Add(v)
			}
			if err := agg.Merge(shard); err != nil {
				t.Fatalf("merge shard %d: %v", i, err)
			}
			all = append(all, vals...)
		}
		checkRankError(t, fmt.Sprintf("kway/k=%d", k), agg, all)
	}
}

// TestKLLMergeCommutativeAssociative: (A⊕B)⊕C and A⊕(B⊕C) and
// C⊕(B⊕A) must all answer within the rank-error bound of the same
// combined stream. The summaries themselves differ (coin streams
// combine differently), but the advertised contract — every ordering
// answers within ⌈εN⌉ — must hold for all of them.
func TestKLLMergeCommutativeAssociative(t *testing.T) {
	const eps = 0.01
	streams := adversarialStreams(3000, 21)
	build := func(name string, seed uint64) *KLL {
		s := NewKLL(eps, seed)
		for _, v := range streams[name] {
			s.Add(v)
		}
		return s
	}
	var all []float64
	for _, name := range []string{"sorted", "bimodal", "random"} {
		all = append(all, streams[name]...)
	}
	orders := [][]string{
		{"sorted", "bimodal", "random"},
		{"random", "bimodal", "sorted"},
		{"bimodal", "sorted", "random"},
	}
	for _, order := range orders {
		agg := NewKLL(eps, 17)
		for i, name := range order {
			if err := agg.Merge(build(name, uint64(i+3))); err != nil {
				t.Fatalf("order %v merge %s: %v", order, name, err)
			}
		}
		checkRankError(t, fmt.Sprintf("order=%v", order), agg, all)
	}
	// Right-associated: A⊕(B⊕C).
	right := build("bimodal", 4)
	if err := right.Merge(build("random", 5)); err != nil {
		t.Fatal(err)
	}
	agg := build("sorted", 3)
	if err := agg.Merge(right); err != nil {
		t.Fatal(err)
	}
	checkRankError(t, "right-assoc", agg, all)
}

// TestKLLDeterminism: a sketch is a pure function of (seed, insert
// sequence) — two runs marshal to identical bytes — and a different
// seed actually changes the coin stream (compaction state), so the
// seeding is live, not vestigial.
func TestKLLDeterminism(t *testing.T) {
	build := func(seed uint64) []byte {
		s := NewKLL(0.02, seed)
		rng := rand.New(rand.NewSource(11))
		for i := 0; i < 20_000; i++ {
			s.Add(rng.Float64() * 1000)
		}
		b, err := json.Marshal(s)
		if err != nil {
			t.Fatal(err)
		}
		return b
	}
	a, b := build(7), build(7)
	if !bytes.Equal(a, b) {
		t.Fatal("same seed + same stream produced different sketch bytes")
	}
	if c := build(8); bytes.Equal(a, c) {
		t.Fatal("different seeds produced identical sketch state; coin stream is not seeded")
	}
}

// TestKLLMergeDeterminism: folding the same shards in the same order
// twice yields identical bytes (the ParallelSweep byte-identical
// contract at the sketch layer).
func TestKLLMergeDeterminism(t *testing.T) {
	fold := func() []byte {
		agg := NewKLL(0.01, 1)
		for i := 0; i < 16; i++ {
			sh := NewKLL(0.01, uint64(i)+100)
			rng := rand.New(rand.NewSource(int64(i)))
			for j := 0; j < 3000; j++ {
				sh.Add(rng.Float64())
			}
			if err := agg.Merge(sh); err != nil {
				t.Fatal(err)
			}
		}
		b, err := json.Marshal(agg)
		if err != nil {
			t.Fatal(err)
		}
		return b
	}
	if !bytes.Equal(fold(), fold()) {
		t.Fatal("same fold order produced different merged sketch bytes")
	}
}

// TestKLLMergeRejectsIncompatible: an ε mismatch fails without
// mutating the receiver.
func TestKLLMergeRejectsIncompatible(t *testing.T) {
	a := NewKLL(0.01, 1)
	for i := 0; i < 100; i++ {
		a.Add(float64(i))
	}
	before, _ := json.Marshal(a)
	if err := a.Merge(NewKLL(0.02, 2)); err == nil {
		t.Fatal("merge with mismatched ε succeeded")
	}
	after, _ := json.Marshal(a)
	if !bytes.Equal(before, after) {
		t.Fatal("failed merge mutated the receiver")
	}
}

// TestKLLJSONRoundTrip: encode → decode → encode is byte-stable, and
// the decoded sketch keeps answering within the bound and keeps
// compacting deterministically (same future inserts → same state as
// the never-serialized original).
func TestKLLJSONRoundTrip(t *testing.T) {
	s := NewKLL(0.01, 5)
	rng := rand.New(rand.NewSource(3))
	vals := make([]float64, 30_000)
	for i := range vals {
		vals[i] = rng.ExpFloat64() * 50
		s.Add(vals[i])
	}
	b1, err := json.Marshal(s)
	if err != nil {
		t.Fatal(err)
	}
	dec := &KLL{}
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
	checkRankError(t, "roundtrip", dec, vals)
	// Continued determinism: same tail of inserts lands both in the
	// same state.
	for i := 0; i < 5000; i++ {
		v := rng.Float64()
		s.Add(v)
		dec.Add(v)
	}
	b3, _ := json.Marshal(s)
	b4, _ := json.Marshal(dec)
	if !bytes.Equal(b3, b4) {
		t.Fatal("decoded sketch diverged from original on identical tail inserts")
	}
}

// TestKLLUnmarshalRejectsMalformed: the wire state is never trusted —
// every invariant the decoder re-derives has a hostile case here.
func TestKLLUnmarshalRejectsMalformed(t *testing.T) {
	valid := func() kllJSON {
		return kllJSON{
			Eps: 0.01, K: 300, N: 5,
			Rng: 12345, Levels: [][]float64{{1, 2, 3}, {4}}, // 3·1 + 1·2 = 5
		}
	}
	cases := []struct {
		name   string
		mutate func(*kllJSON)
		want   string
	}{
		{"eps zero", func(w *kllJSON) { w.Eps = 0 }, "ε"},
		{"eps negative", func(w *kllJSON) { w.Eps = -0.1 }, "ε"},
		{"eps above half", func(w *kllJSON) { w.Eps = 0.7 }, "ε"},
		{"k too small", func(w *kllJSON) { w.K = 1 }, "k"},
		{"k absurd", func(w *kllJSON) { w.K = 1 << 30 }, "k"},
		{"no levels", func(w *kllJSON) { w.Levels = nil }, "levels"},
		{"too many levels", func(w *kllJSON) {
			w.Levels = make([][]float64, kllMaxLevels+1)
			w.N = 0
		}, "levels"},
		{"n understates items", func(w *kllJSON) { w.N = 4 }, "disagrees"},
		{"n overstates items", func(w *kllJSON) { w.N = 1 << 40 }, "disagrees"},
	}
	for _, tc := range cases {
		t.Run(tc.name, func(t *testing.T) {
			w := valid()
			tc.mutate(&w)
			b, err := json.Marshal(w)
			if err != nil {
				t.Fatal(err)
			}
			var s KLL
			if err := json.Unmarshal(b, &s); err == nil {
				t.Fatalf("decode of %q payload succeeded", tc.name)
			} else if tc.want != "" && !strings.Contains(err.Error(), tc.want) {
				t.Fatalf("decode of %q: error %v does not mention %q", tc.name, err, tc.want)
			}
		})
	}
	// Standard JSON cannot spell NaN/Inf, so the hostile forms are
	// out-of-range literals (rejected by the decoder itself) and the
	// finiteness revalidation guards any non-JSON ingress path.
	for _, raw := range []string{
		`{"eps":0.01,"k":300,"n":5,"rng":1,"levels":[[1,1e999,3],[4]]}`,
		`{"eps":0.01,"k":300,"n":5,"rng":1,"levels":[[1,-1e999,3],[4]]}`,
	} {
		var s KLL
		if err := json.Unmarshal([]byte(raw), &s); err == nil {
			t.Fatalf("decode of out-of-range literal payload succeeded: %s", raw)
		}
	}
	if s := (&KLL{}); func() bool {
		w := valid()
		w.Levels[0][1] = math.NaN()
		s.eps, s.k, s.n, s.rng, s.levels = w.Eps, w.K, w.N, w.Rng, w.Levels
		b, err := s.MarshalJSON()
		return err == nil && b != nil
	}() {
		t.Fatal("marshal of sketch holding NaN succeeded")
	}
	// The untouched valid payload must decode — otherwise the table
	// proves nothing.
	b, err := json.Marshal(valid())
	if err != nil {
		t.Fatal(err)
	}
	var s KLL
	if err := json.Unmarshal(b, &s); err != nil {
		t.Fatalf("valid payload rejected: %v", err)
	}
	if s.N() != 5 || s.Tuples() != 4 {
		t.Fatalf("valid payload decoded to n=%d tuples=%d, want 5/4", s.N(), s.Tuples())
	}
}

// TestKLLWireOversizeRejected: a payload claiming more retained items
// than any well-formed sketch could hold is rejected before the
// decoder does allocation-driven work on it.
func TestKLLWireOversizeRejected(t *testing.T) {
	var sb strings.Builder
	sb.WriteString(`{"eps":0.01,"k":300,"n":`)
	n := kllMaxWireItems + 1
	sb.WriteString(fmt.Sprint(n))
	sb.WriteString(`,"rng":1,"levels":[[`)
	for i := 0; i < n; i++ {
		if i > 0 {
			sb.WriteByte(',')
		}
		sb.WriteByte('1')
	}
	sb.WriteString(`]]}`)
	var s KLL
	if err := json.Unmarshal([]byte(sb.String()), &s); err == nil {
		t.Fatal("oversize payload decoded")
	}
}

// TestKLLMemoryBound: the retained-item count stays O(k) no matter
// how long the stream runs — the bound that makes sweep memory
// independent of trial count.
func TestKLLMemoryBound(t *testing.T) {
	s := NewKLL(0.01, 1)
	rng := rand.New(rand.NewSource(9))
	limit := 4 * s.k // budget ≈ k/(1−c) = 3k, plus slack for lazy compaction
	for i := 0; i < 500_000; i++ {
		s.Add(rng.Float64())
		if i%10_000 == 0 && s.Tuples() > limit {
			t.Fatalf("after %d inserts: %d tuples exceeds bound %d", i+1, s.Tuples(), limit)
		}
	}
	if s.Tuples() > limit {
		t.Fatalf("final size %d exceeds bound %d", s.Tuples(), limit)
	}
}

// TestKLLEmptyAndTiny: empty and few-observation sketches answer
// exactly (no compaction has happened, so ranks are exact).
func TestKLLEmptyAndTiny(t *testing.T) {
	s := NewKLL(0.01, 1)
	if got := s.Quantile(0.5); got != 0 {
		t.Fatalf("empty Quantile = %v, want 0", got)
	}
	for _, v := range []float64{5, 1, 9} {
		s.Add(v)
	}
	if got := s.Quantile(0); got != 1 {
		t.Fatalf("Quantile(0) = %v, want 1", got)
	}
	if got := s.Quantile(0.5); got != 5 {
		t.Fatalf("Quantile(0.5) = %v, want 5", got)
	}
	if got := s.Quantile(1); got != 9 {
		t.Fatalf("Quantile(1) = %v, want 9", got)
	}
}

// TestKLLAddSteadyStateAllocs: Add must be amortized alloc-free —
// level slices retain capacity across compactions, so once the
// pyramid reaches its steady shape the only allocations are the rare
// new-top-level appends, which vanish in the average.
func TestKLLAddSteadyStateAllocs(t *testing.T) {
	s := NewKLL(0.005, 1)
	rng := rand.New(rand.NewSource(2))
	for i := 0; i < 200_000; i++ { // reach steady pyramid shape
		s.Add(rng.Float64())
	}
	avg := testing.AllocsPerRun(50_000, func() {
		s.Add(rng.Float64())
	})
	if avg > 0.001 {
		t.Fatalf("steady-state Add allocates %.4f/op, want ~0", avg)
	}
}
