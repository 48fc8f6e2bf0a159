package metrics

import (
	"strings"
	"testing"
	"testing/quick"
)

func TestNewHistogramValidation(t *testing.T) {
	if _, err := NewHistogram(0, 10, 0); err == nil {
		t.Error("zero buckets accepted")
	}
	if _, err := NewHistogram(10, 10, 4); err == nil {
		t.Error("empty range accepted")
	}
	if _, err := NewHistogram(10, 5, 4); err == nil {
		t.Error("inverted range accepted")
	}
}

func TestHistogramBucketing(t *testing.T) {
	h, err := NewHistogram(0, 100, 4)
	if err != nil {
		t.Fatal(err)
	}
	for _, v := range []float64{5, 30, 55, 80, 99, -1, 100, 250} {
		h.Add(v)
	}
	if h.N() != 8 {
		t.Errorf("N = %d", h.N())
	}
	want := []int64{1, 1, 1, 2} // 5 | 30 | 55 | 80,99
	for i, w := range want {
		if h.Bucket(i) != w {
			t.Errorf("bucket %d = %d, want %d", i, h.Bucket(i), w)
		}
	}
	under, over := h.OutOfRange()
	if under != 1 || over != 2 {
		t.Errorf("under/over = %d/%d, want 1/2", under, over)
	}
}

func TestHistogramRender(t *testing.T) {
	h, _ := NewHistogram(0, 10, 2)
	h.Add(1)
	h.Add(6)
	h.Add(7)
	h.Add(-5)
	h.Add(20)
	out := h.Render(10)
	for _, want := range []string{"< 0", "0–5", "5–10", "≥ 10", "#"} {
		if !strings.Contains(out, want) {
			t.Errorf("render missing %q:\n%s", want, out)
		}
	}
	empty, _ := NewHistogram(0, 1, 1)
	if empty.Render(0) == "" {
		t.Error("empty histogram should still render its bucket row")
	}
}

func TestHistogramCountConservation(t *testing.T) {
	f := func(raw []int16) bool {
		h, _ := NewHistogram(-100, 100, 8)
		for _, r := range raw {
			h.Add(float64(r))
		}
		var sum int64
		for i := 0; i < 8; i++ {
			sum += h.Bucket(i)
		}
		u, o := h.OutOfRange()
		return sum+u+o == h.N() && h.N() == int64(len(raw))
	}
	if err := quick.Check(f, nil); err != nil {
		t.Error(err)
	}
}
