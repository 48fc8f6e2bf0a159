// Histogram: fixed-bucket distribution summaries with an ASCII
// rendering, used to visualize response-time and tardiness
// distributions (the experimental-variance aspect of Obs. 3: the
// paper reports I/O-GUARD's curves with "less experimental
// variance").
package metrics

import (
	"fmt"
	"math"
	"strings"
)

// Histogram counts observations into equal-width buckets over
// [Lo, Hi); values outside the range fall into under/overflow buckets.
type Histogram struct {
	Lo, Hi  float64
	buckets []int64
	under   int64
	over    int64
	n       int64
}

// NewHistogram builds a histogram with n equal buckets over [lo, hi).
func NewHistogram(lo, hi float64, n int) (*Histogram, error) {
	if n <= 0 {
		return nil, fmt.Errorf("metrics: need positive bucket count, got %d", n)
	}
	if !(lo < hi) {
		return nil, fmt.Errorf("metrics: invalid range [%v,%v)", lo, hi)
	}
	return &Histogram{Lo: lo, Hi: hi, buckets: make([]int64, n)}, nil
}

// Add counts one observation.
func (h *Histogram) Add(v float64) {
	h.n++
	switch {
	case v < h.Lo:
		h.under++
	case v >= h.Hi:
		h.over++
	default:
		i := int(float64(len(h.buckets)) * (v - h.Lo) / (h.Hi - h.Lo))
		if i >= len(h.buckets) {
			i = len(h.buckets) - 1
		}
		h.buckets[i]++
	}
}

// N returns the total observation count (including out-of-range).
func (h *Histogram) N() int64 { return h.n }

// Bucket returns the count of bucket i.
func (h *Histogram) Bucket(i int) int64 { return h.buckets[i] }

// OutOfRange returns the underflow and overflow counts.
func (h *Histogram) OutOfRange() (under, over int64) { return h.under, h.over }

// Render draws the histogram with unit-scaled bars of at most width
// characters.
func (h *Histogram) Render(width int) string {
	if width <= 0 {
		width = 40
	}
	max := h.under
	if h.over > max {
		max = h.over
	}
	for _, c := range h.buckets {
		if c > max {
			max = c
		}
	}
	if max == 0 {
		max = 1
	}
	bar := func(c int64) string {
		n := int(math.Round(float64(c) / float64(max) * float64(width)))
		return strings.Repeat("#", n)
	}
	var b strings.Builder
	step := (h.Hi - h.Lo) / float64(len(h.buckets))
	if h.under > 0 {
		fmt.Fprintf(&b, "%12s %6d %s\n", fmt.Sprintf("< %.0f", h.Lo), h.under, bar(h.under))
	}
	for i, c := range h.buckets {
		lo := h.Lo + float64(i)*step
		fmt.Fprintf(&b, "%12s %6d %s\n", fmt.Sprintf("%.0f–%.0f", lo, lo+step), c, bar(c))
	}
	if h.over > 0 {
		fmt.Fprintf(&b, "%12s %6d %s\n", fmt.Sprintf("≥ %.0f", h.Hi), h.over, bar(h.over))
	}
	return b.String()
}
