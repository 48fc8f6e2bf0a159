package metrics

import (
	"bytes"
	"encoding/json"
	"testing"
)

// fuzzQuantiles are the ranks every decoded distribution is queried at.
var fuzzQuantiles = []float64{0, 0.01, 0.25, 0.5, 0.9, 0.99, 1}

// requireQuantilesIn fails unless quantile(q) lies in [lo, hi] for
// every q of fuzzQuantiles.
func requireQuantilesIn(t *testing.T, quantile func(q float64) float64, lo, hi float64) {
	t.Helper()
	for _, q := range fuzzQuantiles {
		if v := quantile(q); !(v >= lo && v <= hi) {
			t.Fatalf("quantile(%g) = %g outside [%g, %g]", q, v, lo, hi)
		}
	}
}

// requireStableEncoding fails unless v encodes, its encoding decodes
// into fresh(), and that value encodes to the same bytes: a decoded
// value re-encodes to its canonical form.
func requireStableEncoding(t *testing.T, v any, fresh func() any) {
	t.Helper()
	first, err := json.Marshal(v)
	if err != nil {
		t.Fatalf("decoded value does not encode: %v", err)
	}
	w := fresh()
	if err := json.Unmarshal(first, w); err != nil {
		t.Fatalf("re-encoded form %s rejected: %v", first, err)
	}
	second, err := json.Marshal(w)
	if err != nil {
		t.Fatalf("second decode does not encode: %v", err)
	}
	if !bytes.Equal(first, second) {
		t.Fatalf("encoding not stable:\nfirst:  %s\nsecond: %s", first, second)
	}
}

// fuzzStreaming returns a recorder that has absorbed n observations.
func fuzzStreaming(n int, seed uint64) *Streaming {
	s := NewStreaming(0.05, seed)
	for i := 0; i < n; i++ {
		s.Add(float64((i * 37) % 101))
	}
	return s
}

// addJSON adds v's encoding to the seed corpus.
func addJSON(f *testing.F, v any) {
	data, err := json.Marshal(v)
	if err != nil {
		f.Fatal(err)
	}
	f.Add(data)
}

// FuzzKLLJSON: decoding arbitrary bytes as a KLL sketch either fails
// or yields a sketch whose quantiles stay within its retained items'
// range and whose encoding is canonical.
func FuzzKLLJSON(f *testing.F) {
	for _, n := range []int{0, 1, 50, 5000} {
		addJSON(f, fuzzStreaming(n, uint64(n)).sketch)
	}
	f.Add([]byte(`{"eps":0.5,"k":2,"n":3,"rng":1,"levels":[[1],[2]]}`))
	f.Add([]byte(`{"eps":0.1,"k":30,"n":0,"rng":0,"levels":[[]]}`))
	f.Fuzz(func(t *testing.T, data []byte) {
		var s KLL
		if err := json.Unmarshal(data, &s); err != nil {
			return
		}
		if s.N() > 0 {
			it := s.items()
			requireQuantilesIn(t, s.Quantile, it[0].v, it[len(it)-1].v)
		}
		requireStableEncoding(t, &s, func() any { return new(KLL) })
	})
}

// FuzzStreamingJSON: decoding arbitrary bytes as a streaming recorder
// either fails or yields one whose percentiles and mean (up to
// meanSlackUlps) stay within its [Min, Max] and whose encoding is
// canonical.
func FuzzStreamingJSON(f *testing.F) {
	for _, n := range []int{0, 1, 50, 5000} {
		addJSON(f, fuzzStreaming(n, uint64(n)))
	}
	f.Add([]byte(`{"n":1,"mean":5,"m2":0,"min":5,"max":5,"sketch":{"eps":0.5,"k":2,"n":1,"rng":0,"levels":[[5]]}}`))
	f.Fuzz(func(t *testing.T, data []byte) {
		var s Streaming
		if err := json.Unmarshal(data, &s); err != nil {
			return
		}
		if s.N() > 0 {
			requireQuantilesIn(t, func(q float64) float64 { return s.Percentile(100 * q) }, s.Min(), s.Max())
			if !meanWithin(s.Mean(), s.Min(), s.Max()) {
				t.Fatalf("mean %g outside [%g, %g]", s.Mean(), s.Min(), s.Max())
			}
		}
		requireStableEncoding(t, &s, func() any { return new(Streaming) })
	})
}

// FuzzDistFoldJSON: decoding arbitrary bytes as a cross-trial fold
// either fails or yields one whose quantiles stay within the merged
// recorder's [Min, Max] and whose encoding is canonical.
func FuzzDistFoldJSON(f *testing.F) {
	for _, n := range []int{1, 5000} {
		var fold DistFold
		fold.AddRecorder(fuzzStreaming(n, 1))
		fold.AddRecorder(fuzzStreaming(n/2, 2))
		addJSON(f, &fold)
	}
	f.Add([]byte(`{}`))
	f.Add([]byte(`{"merged":null}`))
	f.Fuzz(func(t *testing.T, data []byte) {
		var fold DistFold
		if err := json.Unmarshal(data, &fold); err != nil {
			return
		}
		if m := fold.Sketch(); m != nil && fold.N() > 0 {
			requireQuantilesIn(t, fold.Quantile, m.Min(), m.Max())
			if fold.Max() != m.Max() {
				t.Fatalf("fold Max %g, merged recorder's %g", fold.Max(), m.Max())
			}
		}
		requireStableEncoding(t, &fold, func() any { return new(DistFold) })
	})
}
