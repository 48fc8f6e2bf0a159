package faults

import (
	"encoding/json"
	"testing"

	"ioguard/internal/slot"
	"ioguard/internal/task"
)

// FuzzFaultPlan checks the plan contract for an arbitrary plan and
// trial seed: a plan either fails Validate or survives a JSON round
// trip unchanged, New returns nil exactly for a clean plan, and a
// valid plan's draws stay inside their declared bounds, are reported
// by Perturbed, and replay identically from a fresh stream.
func FuzzFaultPlan(f *testing.F) {
	for i, c := range planCases {
		p := c.p
		f.Add(p.Seed, int64(p.ReleaseJitter), p.DropProb, p.DupProb, p.DelayProb, int64(p.DelayMax), int64(i))
	}
	f.Fuzz(func(t *testing.T, seed, jitter int64, drop, dup, delay float64, delayMax, trialSeed int64) {
		p := Plan{Seed: seed, ReleaseJitter: slot.Time(jitter), DropProb: drop, DupProb: dup, DelayProb: delay, DelayMax: slot.Time(delayMax)}
		if p.Validate() != nil {
			return
		}
		wire, err := json.Marshal(p)
		if err != nil {
			t.Fatalf("%+v: marshal: %v", p, err)
		}
		var back Plan
		if err := json.Unmarshal(wire, &back); err != nil || back != p {
			t.Fatalf("%+v: round trip through %s gave %+v (%v)", p, wire, back, err)
		}
		s := New(p, trialSeed)
		if (s == nil) != !p.Enabled() {
			t.Fatalf("%+v: New returned %v, Enabled() = %v", p, s, p.Enabled())
		}
		if s == nil {
			return
		}
		fresh := New(p, trialSeed)
		spec := testSpec(int(uint64(trialSeed) % 64))
		for seq := 0; seq < 16; seq++ {
			jit := s.ReleaseJitter(spec, seq)
			if jit < 0 || jit > p.ReleaseJitter || (seq == 0 && jit != 0) {
				t.Fatalf("%+v: seq %d jitter %d outside [0, %d] (first job: 0)", p, seq, jit, p.ReleaseJitter)
			}
			j := task.NewJob(spec, seq, slot.Time(seq)*spec.Period)
			a := s.Transport(j)
			if a.Drop && (a.Dup || a.Delay != 0) {
				t.Fatalf("%+v: seq %d dropped and also %+v", p, seq, a)
			}
			if a.Delay != 0 && (a.Delay < 1 || a.Delay > p.DelayMax) || p.DelayProb == 0 && a.Delay != 0 {
				t.Fatalf("%+v: seq %d delay %d outside [1, %d]", p, seq, a.Delay, p.DelayMax)
			}
			if hit := jit > 0 || a.Drop || a.Dup || a.Delay > 0; s.Perturbed(j) != hit {
				t.Fatalf("%+v: seq %d Perturbed = %v, decisions say %v", p, seq, !hit, hit)
			}
			if fresh.ReleaseJitter(spec, seq) != jit || fresh.Transport(j) != a {
				t.Fatalf("%+v: seq %d: a fresh stream answered differently", p, seq)
			}
		}
	})
}
