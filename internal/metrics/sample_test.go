package metrics

import (
	"encoding/binary"
	"fmt"
	"math"
	"math/rand"
	"runtime"
	"sort"
	"testing"
	"unsafe"
)

// float64Sample is Sample as it was before the int32 storage, kept as
// the oracle: every observation buffered as a float64.
type float64Sample struct {
	values []float64
	sorted bool
}

func (s *float64Sample) Add(v float64) {
	s.values = append(s.values, v)
	s.sorted = false
}

func (s *float64Sample) Clip() {
	if cap(s.values) > len(s.values) {
		s.values = append(make([]float64, 0, len(s.values)), s.values...)
	}
}

func (s *float64Sample) N() int { return len(s.values) }

func (s *float64Sample) Mean() float64 {
	if len(s.values) == 0 {
		return 0
	}
	var sum float64
	for _, v := range s.values {
		sum += v
	}
	return sum / float64(len(s.values))
}

func (s *float64Sample) Variance() float64 {
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

func (s *float64Sample) StdDev() float64 { return math.Sqrt(s.Variance()) }

func (s *float64Sample) Min() float64 {
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

func (s *float64Sample) Max() float64 {
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

func (s *float64Sample) Percentile(p float64) float64 {
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

func (s *float64Sample) String() string {
	return fmt.Sprintf("n=%d mean=%.2f sd=%.2f min=%.0f p99=%.0f max=%.0f",
		s.N(), s.Mean(), s.StdDev(), s.Min(), s.Percentile(99), s.Max())
}

// samplePercentiles are the ranks every compared sample is read at,
// out-of-range ones included.
var samplePercentiles = []float64{-1, 0, 0.1, 1, 5, 10, 20, 25, 100.0 / 3, 50,
	200.0 / 3, 75, 80, 90, 95, 99, 99.9, 99.99, 100, 101}

// foldQuantiles are the ranks every compared fold is read at.
var foldQuantiles = []float64{0, 0.01, 0.25, 0.5, 0.9, 0.99, 0.999, 1}

// wideningValues each make a Sample switch to float64 storage.
var wideningValues = []float64{0.5, math.Copysign(0, -1), math.NaN(), math.Inf(1), 1 << 31,
	math.Inf(-1), -(1 << 31), -2.5, 1e300}

// sameBits reports whether a and b are the same float64, bit for bit,
// or both NaN: Go leaves a NaN result's payload to the instruction
// order the compiler picks, and every NaN renders as "NaN".
func sameBits(a, b float64) bool {
	return math.Float64bits(a) == math.Float64bits(b) || (math.IsNaN(a) && math.IsNaN(b))
}

// requireSameSample fails unless got answers every query exactly as
// want does. Percentile sorts both in place, the same way.
func requireSameSample(t *testing.T, got *Sample, want *float64Sample) {
	t.Helper()
	if got.N() != want.N() {
		t.Fatalf("N = %d, want %d", got.N(), want.N())
	}
	for _, q := range []struct {
		name      string
		got, want float64
	}{
		{"Mean", got.Mean(), want.Mean()},
		{"Variance", got.Variance(), want.Variance()},
		{"StdDev", got.StdDev(), want.StdDev()},
		{"Min", got.Min(), want.Min()},
		{"Max", got.Max(), want.Max()},
	} {
		if !sameBits(q.got, q.want) {
			t.Fatalf("%s = %v, want %v (n=%d)", q.name, q.got, q.want, want.N())
		}
	}
	for _, p := range samplePercentiles {
		if g, w := got.Percentile(p), want.Percentile(p); !sameBits(g, w) {
			t.Fatalf("Percentile(%g) = %v, want %v", p, g, w)
		}
	}
	if g, w := got.String(), want.String(); g != w {
		t.Fatalf("String = %q, want %q", g, w)
	}
}

// requireSameFold fails unless the fold answers every query exactly as
// the eager float64 concatenation ref does (nil: nothing folded), and
// holds int32 storage unless some folded value widens a Sample.
func requireSameFold(t *testing.T, f *DistFold, ref *float64Sample) {
	t.Helper()
	if ref == nil {
		ref = &float64Sample{}
	}
	if f.N() != ref.N() {
		t.Fatalf("fold N = %d, want %d", f.N(), ref.N())
	}
	if !sameBits(f.Mean(), ref.Mean()) || !sameBits(f.Max(), ref.Max()) {
		t.Fatalf("fold Mean, Max = %v, %v; want %v, %v", f.Mean(), f.Max(), ref.Mean(), ref.Max())
	}
	for _, q := range foldQuantiles {
		if g, w := f.Quantile(q), ref.Percentile(q*100); !sameBits(g, w) {
			t.Fatalf("fold Quantile(%g) = %v, want %v", q, g, w)
		}
	}
	want := "n=0"
	if ref.N() > 0 {
		want = fmt.Sprintf("n=%d mean=%.2f p50=%.0f p90=%.0f p99=%.0f max=%.0f [exact]",
			ref.N(), ref.Mean(), ref.Percentile(50), ref.Percentile(90), ref.Percentile(99), ref.Max())
	}
	if got := f.String(); got != want {
		t.Fatalf("fold String = %q, want %q", got, want)
	}
	if f.exact == nil {
		return
	}
	wide := false
	for _, v := range ref.values {
		if _, ok := asInt32(v); !ok {
			wide = true
		}
	}
	if (f.exact.wide != nil) != wide || cap(f.exact.small) != len(f.exact.small) {
		t.Fatalf("fold storage: wide %v (want %v), int32 len %d cap %d",
			f.exact.wide != nil, wide, len(f.exact.small), cap(f.exact.small))
	}
}

// oracleResolve is the eager fold: on a read, the float64 values of
// the earlier fold and then of each pending part, in their current
// order, copied into a fresh unsorted sample.
func oracleResolve(ref *float64Sample, pending []*float64Sample) *float64Sample {
	if len(pending) == 0 {
		return ref
	}
	var values []float64
	if ref != nil {
		values = append(values, ref.values...)
	}
	for _, p := range pending {
		values = append(values, p.values...)
	}
	return &float64Sample{values: values}
}

type sampleOpKind int

const (
	opAdd      sampleOpKind = iota
	opQuery                 // read every statistic of the current part
	opClip                  // Clip the current part
	opCut                   // fold the current part and start a new one
	opSortLast              // the owner of the last folded part reads a Percentile
	opFoldRead              // read every statistic of the fold
	numSampleOps
)

// sampleOp is one step of a script run against a Sample and the
// float64 oracle side by side; v is the observation of an opAdd.
type sampleOp struct {
	kind sampleOpKind
	v    float64
}

// runSampleScript runs ops against both recorders, folding each
// finished part into a DistFold and its oracle twin into the eager
// reference, and compares every query along the way and at the end.
func runSampleScript(t *testing.T, ops []sampleOp) {
	t.Helper()
	got, want := &Sample{}, &float64Sample{}
	var (
		fold     DistFold
		ref      *float64Sample
		pending  []*float64Sample
		lastGot  *Sample
		lastWant *float64Sample
		sortIdx  int
	)
	cut := func() {
		fold.AddRecorder(got)
		pending = append(pending, want)
		lastGot, lastWant = got, want
		got, want = &Sample{}, &float64Sample{}
	}
	for _, op := range ops {
		switch op.kind {
		case opAdd:
			got.Add(op.v)
			want.Add(op.v)
		case opQuery:
			requireSameSample(t, got, want)
		case opClip:
			got.Clip()
			want.Clip()
		case opCut:
			cut()
		case opSortLast:
			if lastGot != nil {
				p := samplePercentiles[sortIdx%len(samplePercentiles)]
				sortIdx++
				if g, w := lastGot.Percentile(p), lastWant.Percentile(p); !sameBits(g, w) {
					t.Fatalf("folded part: Percentile(%g) = %v, want %v", p, g, w)
				}
			}
		case opFoldRead:
			ref, pending = oracleResolve(ref, pending), nil
			requireSameFold(t, &fold, ref)
		}
	}
	requireSameSample(t, got, want)
	cut()
	ref, pending = oracleResolve(ref, pending), nil
	requireSameFold(t, &fold, ref)
	// A fold merged into another is concatenated after its parts.
	var g DistFold
	if err := g.Merge(&fold); err != nil {
		t.Fatal(err)
	}
	requireSameFold(t, &g, oracleResolve(nil, []*float64Sample{ref}))
}

// randomIntegral draws an observation that Sample stores as an int32:
// mostly small slot counts with many ties, sometimes anywhere in
// ±(2³¹−1), sometimes an extreme.
func randomIntegral(rng *rand.Rand) float64 {
	switch r := rng.Intn(10); {
	case r < 6:
		return float64(rng.Intn(5000))
	case r < 8:
		return float64(rng.Int63n(2*math.MaxInt32+1) - math.MaxInt32)
	case r < 9:
		return float64(math.MaxInt32)
	default:
		return -math.MaxInt32
	}
}

// TestSampleCompactMatchesFloat64 pins the int32-backed Sample to the
// float64 one it replaced: random streams of integral observations
// with widening values (0.5, −0, NaN, ±Inf, ±2³¹, …) at random points,
// Percentile reads (which sort in place) between Adds, Clips, and
// parts folded into a DistFold that mixes int32 and float64 parts, all
// answer every query bit for bit as the float64 oracle does.
func TestSampleCompactMatchesFloat64(t *testing.T) {
	rng := rand.New(rand.NewSource(30))
	for stream := 0; stream < 300; stream++ {
		widenPct := []int{0, 1, 5}[stream%3]
		ops := make([]sampleOp, 0, 400)
		for i, n := 0, rng.Intn(400); i < n; i++ {
			switch r := rng.Intn(100); {
			case r < widenPct:
				ops = append(ops, sampleOp{kind: opAdd, v: wideningValues[rng.Intn(len(wideningValues))]})
			case r < 90:
				ops = append(ops, sampleOp{kind: opAdd, v: randomIntegral(rng)})
			default:
				ops = append(ops, sampleOp{kind: sampleOpKind(1 + rng.Intn(int(numSampleOps)-1))})
			}
		}
		runSampleScript(t, ops)
	}
}

// decodeSampleScript reads a fuzz input as a script: each op byte's low
// three bits pick a small count (next 2 bytes), an int32 (next 4), raw
// float64 bits (next 8), a widening value or a non-Add op; missing
// bytes read as zero.
func decodeSampleScript(data []byte) []sampleOp {
	take := func(n int) []byte {
		b := make([]byte, 8)
		copy(b, data[:min(n, len(data))])
		data = data[min(n, len(data)):]
		return b
	}
	var ops []sampleOp
	for len(data) > 0 {
		b := data[0]
		data = data[1:]
		hi := int(b >> 3)
		switch b & 7 {
		case 0, 1, 2:
			ops = append(ops, sampleOp{kind: opAdd, v: float64(binary.LittleEndian.Uint16(take(2)))})
		case 3:
			ops = append(ops, sampleOp{kind: opAdd, v: float64(int32(binary.LittleEndian.Uint32(take(4))))})
		case 4:
			ops = append(ops, sampleOp{kind: opAdd, v: math.Float64frombits(binary.LittleEndian.Uint64(take(8)))})
		case 5:
			ops = append(ops, sampleOp{kind: opAdd, v: wideningValues[hi%len(wideningValues)]})
		default:
			ops = append(ops, sampleOp{kind: sampleOpKind(1 + hi%(int(numSampleOps)-1))})
		}
	}
	return ops
}

// FuzzSampleCompact: any script of Adds (arbitrary float64 bits
// included), reads, Clips and folds answers bit for bit as the float64
// oracle does.
func FuzzSampleCompact(f *testing.F) {
	f.Add([]byte{})
	f.Add([]byte{0, 7, 0, 1, 9, 0, 6, 3, 255, 255, 255, 127, 14})
	f.Add([]byte{0, 1, 0, 0, 2, 0, 5, 14, 0, 3, 0, 22, 13, 30, 6})
	f.Add([]byte{3, 0, 0, 0, 128, 4, 0, 0, 0, 0, 0, 0, 248, 127, 6, 21, 14, 38})
	f.Fuzz(func(t *testing.T, data []byte) {
		runSampleScript(t, decodeSampleScript(data))
	})
}

// TestSampleRetainsFourBytesPerObservation: a clipped Sample of
// integral observations keeps 4 heap bytes per observation plus its
// header (and the allocator's rounding of one large buffer up to whole
// 8 KiB pages), not the 8 of a float64 buffer. What it retains is the
// live heap with the sample minus the live heap once it is dropped.
func TestSampleRetainsFourBytesPerObservation(t *testing.T) {
	const n = 100_000
	s := &Sample{}
	for i := 0; i < n; i++ {
		s.Add(float64(i % 7919))
	}
	s.Clip()
	if s.N() != n || s.Max() != 7918 {
		t.Fatalf("N, Max = %d, %v; want %d, 7918", s.N(), s.Max(), n)
	}
	var with, without runtime.MemStats
	runtime.GC() // twice: sync.Pools drop their victims only on the second
	runtime.GC()
	runtime.ReadMemStats(&with)
	runtime.KeepAlive(s)
	s = nil
	runtime.GC()
	runtime.ReadMemStats(&without)
	retained := int64(with.HeapAlloc) - int64(without.HeapAlloc)
	const pageRounding = 8 << 10
	if limit := int64(4*n + unsafe.Sizeof(Sample{}) + pageRounding); retained > limit {
		t.Errorf("a clipped Sample of %d slot counts retains %d heap bytes (%.2f per observation); want at most %d",
			n, retained, float64(retained)/n, limit)
	}
}
