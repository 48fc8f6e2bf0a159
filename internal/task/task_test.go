package task

import (
	"strings"
	"testing"
	"testing/quick"

	"ioguard/internal/slot"
)

func valid(id, vm int, t, c, d slot.Time) Sporadic {
	return Sporadic{ID: id, Name: "t", VM: vm, Period: t, WCET: c, Deadline: d}
}

func TestKindString(t *testing.T) {
	if Safety.String() != "safety" || Function.String() != "function" || Synthetic.String() != "synthetic" {
		t.Error("kind names wrong")
	}
	if !strings.Contains(Kind(9).String(), "9") {
		t.Error("unknown kind should include numeric value")
	}
}

func TestSporadicUtilization(t *testing.T) {
	tk := valid(0, 0, 10, 2, 10)
	if got := tk.Utilization(); got != 0.2 {
		t.Errorf("U = %v, want 0.2", got)
	}
	if (Sporadic{}).Utilization() != 0 {
		t.Error("zero task utilization should be 0")
	}
}

func TestSporadicValidate(t *testing.T) {
	if err := valid(0, 0, 10, 2, 8).Validate(); err != nil {
		t.Errorf("valid task rejected: %v", err)
	}
	bad := []Sporadic{
		{Period: 0, WCET: 1, Deadline: 1},
		{Period: 10, WCET: 0, Deadline: 1},
		{Period: 10, WCET: 5, Deadline: 4},
		{Period: 10, WCET: 2, Deadline: 12},
		{Period: 10, WCET: 2, Deadline: 8, VM: -1},
		{Period: 10, WCET: 2, Deadline: 8, Jitter: -1},
	}
	for i, b := range bad {
		if err := b.Validate(); err == nil {
			t.Errorf("case %d: invalid task %+v accepted", i, b)
		}
	}
}

func TestSporadicString(t *testing.T) {
	s := valid(3, 1, 10, 2, 8).String()
	if !strings.Contains(s, "τ3") || !strings.Contains(s, "T=10") {
		t.Errorf("String() = %q", s)
	}
}

func TestServerValidate(t *testing.T) {
	if err := (Server{VM: 0, Period: 10, Budget: 3}).Validate(); err != nil {
		t.Errorf("valid server rejected: %v", err)
	}
	bad := []Server{
		{Period: 0, Budget: 1},
		{Period: 10, Budget: 0},
		{Period: 10, Budget: 11},
		{VM: -1, Period: 10, Budget: 3},
	}
	for i, b := range bad {
		if err := b.Validate(); err == nil {
			t.Errorf("case %d: invalid server %+v accepted", i, b)
		}
	}
}

func TestServerUtilization(t *testing.T) {
	s := Server{Period: 8, Budget: 2}
	if got := s.Utilization(); got != 0.25 {
		t.Errorf("U = %v, want 0.25", got)
	}
	if (Server{}).Utilization() != 0 {
		t.Error("zero server utilization should be 0")
	}
	if !strings.Contains(s.String(), "Π=8") {
		t.Errorf("String() = %q", s.String())
	}
}

func TestSetUtilization(t *testing.T) {
	s := Set{valid(0, 0, 10, 2, 10), valid(1, 0, 20, 5, 20)}
	if got := s.Utilization(); got != 0.45 {
		t.Errorf("U = %v, want 0.45", got)
	}
}

func TestSetHyperperiod(t *testing.T) {
	s := Set{valid(0, 0, 4, 1, 4), valid(1, 0, 6, 1, 6)}
	if got := s.Hyperperiod(); got != 12 {
		t.Errorf("H = %d, want 12", got)
	}
	if (Set{}).Hyperperiod() != 0 {
		t.Error("empty set hyperperiod should be 0")
	}
}

// TestSetHorizon: n hyper-periods in slots, with non-positive counts
// and any product that would overflow slot.Time rejected instead of
// wrapping into a short horizon.
func TestSetHorizon(t *testing.T) {
	s := Set{valid(0, 0, 4, 1, 4), valid(1, 0, 6, 1, 6)} // H = 12
	if got, err := s.Horizon(3); err != nil || got != 36 {
		t.Errorf("Horizon(3) = %d, %v; want 36", got, err)
	}
	max := int((slot.Never - 1) / 12)
	if got, err := s.Horizon(max); err != nil || got != slot.Time(max)*12 {
		t.Errorf("Horizon(%d) = %d, %v; want the largest representable horizon", max, got, err)
	}
	for _, n := range []int{0, -1, max + 1, 1 << 62} {
		if got, err := s.Horizon(n); err == nil {
			t.Errorf("Horizon(%d) = %d, want an error", n, got)
		}
	}
	// A hyper-period LCMAll saturated at Never is itself an overflow.
	huge := Set{valid(0, 0, slot.Never/3, 1, 1), valid(1, 0, slot.Never/3-1, 1, 1)}
	if got, err := huge.Horizon(1); err == nil {
		t.Errorf("Horizon(1) of a saturated hyper-period = %d, want an error", got)
	}
}

func TestSetValidate(t *testing.T) {
	ok := Set{valid(0, 0, 10, 1, 10), valid(1, 1, 10, 1, 10)}
	if err := ok.Validate(); err != nil {
		t.Errorf("valid set rejected: %v", err)
	}
	dup := Set{valid(0, 0, 10, 1, 10), valid(0, 1, 10, 1, 10)}
	if err := dup.Validate(); err == nil {
		t.Error("duplicate IDs accepted")
	}
	bad := Set{{Period: -1, WCET: 1, Deadline: 1}}
	if err := bad.Validate(); err == nil {
		t.Error("invalid member accepted")
	}
}

func TestSetByVMAndVMs(t *testing.T) {
	s := Set{valid(0, 2, 10, 1, 10), valid(1, 0, 10, 1, 10), valid(2, 2, 10, 1, 10)}
	m := s.ByVM()
	if len(m) != 2 || len(m[2]) != 2 || len(m[0]) != 1 {
		t.Errorf("ByVM = %v", m)
	}
	vms := s.VMs()
	if len(vms) != 2 || vms[0] != 0 || vms[1] != 2 {
		t.Errorf("VMs = %v, want [0 2]", vms)
	}
}

func TestSetFilter(t *testing.T) {
	s := Set{
		{ID: 0, Kind: Safety, Period: 10, WCET: 1, Deadline: 10},
		{ID: 1, Kind: Synthetic, Period: 10, WCET: 1, Deadline: 10},
	}
	got := s.Filter(func(t Sporadic) bool { return t.Kind == Safety })
	if len(got) != 1 || got[0].ID != 0 {
		t.Errorf("Filter = %v", got)
	}
}

func TestSetMaxLaxity(t *testing.T) {
	s := Set{valid(0, 0, 10, 1, 8), valid(1, 0, 20, 1, 15)}
	if got := s.MaxLaxity(); got != 5 {
		t.Errorf("MaxLaxity = %d, want 5", got)
	}
	if (Set{}).MaxLaxity() != 0 {
		t.Error("empty set MaxLaxity should be 0")
	}
}

func TestJobLifecycle(t *testing.T) {
	tk := valid(0, 0, 10, 2, 8)
	j := NewJob(&tk, 0, 100)
	if j.Deadline != 108 || j.Remaining != 2 || j.Done() {
		t.Fatalf("new job state wrong: %+v", j)
	}
	if j.ResponseTime() != slot.Never {
		t.Error("incomplete job should have Never response time")
	}
	j.Tick(100)
	if j.Done() {
		t.Error("job done after 1 of 2 slots")
	}
	j.Tick(105)
	if !j.Done() || j.Finish != 106 {
		t.Errorf("finish = %d, want 106", j.Finish)
	}
	if j.ResponseTime() != 6 {
		t.Errorf("response time = %d, want 6", j.ResponseTime())
	}
	if j.Missed(200) {
		t.Error("job finishing at 106 with deadline 108 should not be a miss")
	}
}

func TestJobMissed(t *testing.T) {
	tk := valid(0, 0, 10, 2, 4)
	j := NewJob(&tk, 0, 0)
	if j.Missed(3) {
		t.Error("not missed before deadline")
	}
	if !j.Missed(5) {
		t.Error("pending job past deadline should be missed")
	}
	j.Tick(10)
	j.Tick(11)
	if !j.Missed(0) {
		t.Error("job finished at 12 with deadline 4 should be a miss")
	}
}

func TestJobTickPanicsWhenDone(t *testing.T) {
	tk := valid(0, 0, 10, 1, 8)
	j := NewJob(&tk, 0, 0)
	j.Tick(0)
	defer func() {
		if recover() == nil {
			t.Error("Tick on completed job should panic")
		}
	}()
	j.Tick(1)
}

func TestJobAdvance(t *testing.T) {
	tk := valid(0, 0, 10, 5, 8)
	j := NewJob(&tk, 0, 20)
	j.Advance(3, 22)
	if j.Remaining != 2 || j.Done() || j.Finish != slot.Never {
		t.Fatalf("after 3 of 5 slots: %+v", j)
	}
	j.Advance(2, 30)
	if !j.Done() || j.Finish != 31 {
		t.Errorf("finish = %d, want 31 (the slot after the last one advanced)", j.Finish)
	}
	for _, n := range []slot.Time{0, -1, 6} {
		func() {
			defer func() {
				if recover() == nil {
					t.Errorf("Advance(%d) on a job with 5 slots left should panic", n)
				}
			}()
			NewJob(&tk, 0, 0).Advance(n, 0)
		}()
	}
}

func TestJobString(t *testing.T) {
	tk := valid(7, 0, 10, 1, 8)
	j := NewJob(&tk, 2, 5)
	if !strings.Contains(j.String(), "τ7#2") {
		t.Errorf("String() = %q", j.String())
	}
}

func TestSetUtilizationProperty(t *testing.T) {
	// Utilization of a set equals the sum over the per-VM partition.
	f := func(raw []uint8) bool {
		var s Set
		for i, r := range raw {
			p := slot.Time(r%16) + 2
			c := slot.Time(r%3) + 1
			if c > p {
				c = p
			}
			s = append(s, Sporadic{ID: i, VM: int(r % 4), Period: p, WCET: c, Deadline: p})
		}
		var sum float64
		for _, part := range s.ByVM() {
			sum += part.Utilization()
		}
		diff := sum - s.Utilization()
		if diff < 0 {
			diff = -diff
		}
		return diff < 1e-9
	}
	if err := quick.Check(f, nil); err != nil {
		t.Error(err)
	}
}
