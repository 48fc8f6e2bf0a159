package metrics

import (
	"math/rand"
	"testing"
)

// TestDistFoldExactMatchesEagerCopy pins the by-reference exact fold
// to the eager value-by-value copy it replaced: folding random
// integer-valued samples (one empty, one sorted in place by a
// trial-level Percentile after folding, as the server's per-trial
// response does) and merging a second fold must answer every query
// identically, and the first read must leave one int32 buffer of
// exactly the folded length.
func TestDistFoldExactMatchesEagerCopy(t *testing.T) {
	rng := rand.New(rand.NewSource(11))
	var ref Sample        // eager copy, taken at fold time
	var added [][]float64 // each part's observations, in Add order
	newPart := func(n int) *Sample {
		s := &Sample{}
		var vs []float64
		for i := 0; i < n; i++ {
			v := float64(rng.Intn(5000))
			s.Add(v)
			vs = append(vs, v)
		}
		added = append(added, vs)
		return s
	}
	var f, g DistFold
	var parts []*Sample
	for i, n := range []int{40, 0, 333, 1, 97, 1200} {
		p := newPart(n)
		parts = append(parts, p)
		if i%2 == 0 {
			f.AddRecorder(p)
		} else {
			g.AddRecorder(p)
		}
	}
	// The reference folds f's parts, then g's: that is Merge's order.
	for _, i := range []int{0, 2, 4, 1, 3, 5} {
		for _, v := range added[i] {
			ref.Add(v)
		}
	}
	parts[4].Percentile(50) // sorts one folded part in place
	if err := f.Merge(&g); err != nil {
		t.Fatal(err)
	}
	if got, want := f.N(), ref.N(); got != want {
		t.Fatalf("N = %d, want %d", got, want)
	}
	if cap(f.exact.small) != len(f.exact.small) || f.exact.wide != nil || f.parts != nil {
		t.Errorf("after the first read: cap %d, len %d, wide %v, %d parts; want cap == len, int32, no parts",
			cap(f.exact.small), len(f.exact.small), f.exact.wide != nil, len(f.parts))
	}
	if got, want := f.Mean(), ref.Mean(); got != want {
		t.Errorf("Mean = %v, want %v", got, want)
	}
	if got, want := f.Max(), ref.Max(); got != want {
		t.Errorf("Max = %v, want %v", got, want)
	}
	for _, q := range []float64{0, 0.01, 0.25, 0.5, 0.9, 0.99, 0.999, 1} {
		if got, want := f.Quantile(q), ref.Percentile(q*100); got != want {
			t.Errorf("Quantile(%g) = %v, want %v", q, got, want)
		}
	}
	eager := DistFold{exact: &ref}
	if got, want := f.String(), eager.String(); got != want {
		t.Errorf("String = %q, want %q", got, want)
	}
	// A fold read, then fed again, concatenates the new parts after the
	// resolved buffer.
	extra := newPart(9)
	f.AddRecorder(extra)
	for _, v := range added[len(added)-1] {
		ref.Add(v)
	}
	if got, want := f.String(), eager.String(); got != want {
		t.Errorf("after a second fold: String = %q, want %q", got, want)
	}
	if cap(f.exact.small) != len(f.exact.small) || f.exact.wide != nil {
		t.Errorf("after a second fold: cap %d, len %d, wide %v",
			cap(f.exact.small), len(f.exact.small), f.exact.wide != nil)
	}
}
