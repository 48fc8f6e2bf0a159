package metrics

import (
	"math"
	"strings"
	"testing"
	"testing/quick"
)

func TestSampleEmpty(t *testing.T) {
	var s Sample
	if s.N() != 0 || s.Mean() != 0 || s.Variance() != 0 || s.Min() != 0 || s.Max() != 0 || s.Percentile(50) != 0 {
		t.Error("empty sample should report zeros")
	}
}

func TestSampleBasics(t *testing.T) {
	var s Sample
	for _, v := range []float64{4, 2, 8, 6} {
		s.Add(v)
	}
	if s.N() != 4 {
		t.Errorf("N = %d", s.N())
	}
	if s.Mean() != 5 {
		t.Errorf("Mean = %v, want 5", s.Mean())
	}
	if s.Min() != 2 || s.Max() != 8 {
		t.Errorf("Min/Max = %v/%v", s.Min(), s.Max())
	}
	if got := s.Variance(); got != 5 {
		t.Errorf("Variance = %v, want 5", got)
	}
	if math.Abs(s.StdDev()-math.Sqrt(5)) > 1e-12 {
		t.Errorf("StdDev = %v", s.StdDev())
	}
}

func TestSamplePercentile(t *testing.T) {
	var s Sample
	for i := 1; i <= 100; i++ {
		s.Add(float64(i))
	}
	cases := []struct{ p, want float64 }{
		{0, 1}, {1, 1}, {50, 50}, {99, 99}, {100, 100}, {-5, 1}, {150, 100},
	}
	for _, c := range cases {
		if got := s.Percentile(c.p); got != c.want {
			t.Errorf("P%v = %v, want %v", c.p, got, c.want)
		}
	}
}

func TestSamplePercentileAfterAdd(t *testing.T) {
	var s Sample
	s.Add(10)
	_ = s.Percentile(50) // sorts
	s.Add(1)             // must re-sort on next query
	if got := s.Percentile(0); got != 1 {
		t.Errorf("P0 after Add = %v, want 1", got)
	}
}

func TestSampleString(t *testing.T) {
	var s Sample
	s.Add(1)
	if !strings.Contains(s.String(), "n=1") {
		t.Errorf("String = %q", s.String())
	}
}

func TestSampleMeanBounds(t *testing.T) {
	f := func(raw []int32) bool {
		var s Sample
		min, max := math.Inf(1), math.Inf(-1)
		for _, r := range raw {
			v := float64(r)
			s.Add(v)
			if v < min {
				min = v
			}
			if v > max {
				max = v
			}
		}
		if s.N() == 0 {
			return true
		}
		m := s.Mean()
		return m >= min-1e-9*math.Abs(min)-1e-9 && m <= max+1e-9*math.Abs(max)+1e-9
	}
	if err := quick.Check(f, nil); err != nil {
		t.Error(err)
	}
}

func TestTrialResultSuccess(t *testing.T) {
	tr := TrialResult{Completed: 10}
	if !tr.Success() {
		t.Error("no misses should be success")
	}
	tr.CriticalMisses = 1
	if tr.Success() {
		t.Error("critical miss should fail the trial")
	}
	tr.CriticalMisses = 0
	tr.OtherMisses = 5
	if !tr.Success() {
		t.Error("synthetic misses must not fail the trial")
	}
}

func TestThroughput(t *testing.T) {
	tr := TrialResult{BytesServed: 2_000_000, Horizon: 1_000_000} // 2MB in 1s
	if got := tr.ThroughputMBps(); math.Abs(got-2) > 1e-9 {
		t.Errorf("throughput = %v, want 2", got)
	}
	if (&TrialResult{}).ThroughputMBps() != 0 {
		t.Error("zero horizon should give 0 throughput")
	}
}

func TestAggregate(t *testing.T) {
	var a Aggregate
	good := TrialResult{BytesServed: 1_000_000, Horizon: 1_000_000}
	bad := TrialResult{CriticalMisses: 3, BytesServed: 500_000, Horizon: 1_000_000}
	a.AddTrial(&good)
	a.AddTrial(&bad)
	if a.Trials != 2 || a.Successes != 1 {
		t.Errorf("aggregate = %+v", a)
	}
	if a.SuccessRatio() != 0.5 {
		t.Errorf("SuccessRatio = %v", a.SuccessRatio())
	}
	if a.Misses.Max() != 3 {
		t.Errorf("Misses.Max = %v", a.Misses.Max())
	}
	if !strings.Contains(a.String(), "50.0%") {
		t.Errorf("String = %q", a.String())
	}
	if (&Aggregate{}).SuccessRatio() != 0 {
		t.Error("empty aggregate ratio should be 0")
	}
}
