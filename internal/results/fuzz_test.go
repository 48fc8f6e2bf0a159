package results

import (
	"bytes"
	"encoding/json"
	"testing"

	"ioguard/internal/metrics"
)

// FuzzDecodeTrajectory: decoding arbitrary bytes as a trajectory
// either fails or yields one whose sweep sketches answer percentiles
// within their [Min, Max], which the report pipeline analyses and
// renders, and which re-encodes to its canonical form.
func FuzzDecodeTrajectory(f *testing.F) {
	resp := metrics.NewStreaming(0.05, 1)
	for i := 0; i < 300; i++ {
		resp.Add(float64(i % 17))
	}
	rep := Report{
		Schema:   ReportSchema,
		Results:  []Result{{Name: "RunSparse/dense", Iterations: 1, NsPerOp: 10}, {Name: "RunSparse/fastforward", Iterations: 1, NsPerOp: 2}},
		Speedups: []Speedup{{Name: "RunSparse", DenseNsPerOp: 10, FFNsPerOp: 2, Speedup: 5}},
		SweepSketches: []SweepSketch{{
			Suite: "nightly", Sweep: "s", System: "I/O-GUARD-70", Trials: 3, SuccessRatio: 1, Response: resp,
		}},
		Robustness: []RobustnessRow{{Scenario: "storm", System: "BS|PART", Trials: 1, SuccessRatio: 0.5}},
	}
	single, err := json.Marshal(rep)
	if err != nil {
		f.Fatal(err)
	}
	f.Add(single)
	traj, err := json.Marshal(Trajectory{Schema: TrajectorySchema, Runs: []Report{rep, rep}})
	if err != nil {
		f.Fatal(err)
	}
	f.Add(traj)
	f.Fuzz(func(t *testing.T, data []byte) {
		traj, err := DecodeTrajectory(data)
		if err != nil {
			return
		}
		for _, r := range traj.Runs {
			for _, sk := range r.SweepSketches {
				for _, s := range []*metrics.Streaming{sk.Response, sk.Tardiness} {
					if s == nil || s.N() == 0 {
						continue
					}
					for _, p := range []float64{0, 1, 50, 99, 100} {
						if v := s.Percentile(p); !(v >= s.Min() && v <= s.Max()) {
							t.Fatalf("%s: p%g = %g outside [%g, %g]", sk.Key(), p, v, s.Min(), s.Max())
						}
					}
				}
			}
		}
		Render(Analyze(traj))
		first, err := json.Marshal(traj)
		if err != nil {
			t.Fatalf("decoded trajectory does not encode: %v", err)
		}
		again, err := DecodeTrajectory(first)
		if err != nil {
			t.Fatalf("re-encoded trajectory rejected: %v\n%s", err, first)
		}
		second, err := json.Marshal(again)
		if err != nil {
			t.Fatal(err)
		}
		if !bytes.Equal(first, second) {
			t.Fatalf("encoding not stable:\nfirst:  %s\nsecond: %s", first, second)
		}
	})
}
