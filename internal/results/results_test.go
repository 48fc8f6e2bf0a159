package results

import (
	"encoding/json"
	"fmt"
	"math/rand"
	"os"
	"path/filepath"
	"strings"
	"testing"

	"ioguard/internal/metrics"
)

// sketchFor builds a small merged recorder for synthetic runs.
func sketchFor(t *testing.T, seed uint64, scale float64) *metrics.Streaming {
	t.Helper()
	s := metrics.NewStreaming(0.01, seed)
	rng := rand.New(rand.NewSource(int64(seed)))
	for i := 0; i < 5000; i++ {
		s.Add(rng.ExpFloat64() * scale)
	}
	return s
}

func run(t *testing.T, stamp string, sweepP99Scale float64, speedup float64) Report {
	t.Helper()
	return Report{
		Schema:    ReportSchema,
		Timestamp: stamp,
		Suite:     "nightly",
		Results: []Result{
			{Name: "CaseStudy1000/4vm/stream", Iterations: 1, NsPerOp: 1e9},
		},
		Speedups: []Speedup{
			{Name: "RunSparse", DenseNsPerOp: speedup, FFNsPerOp: 1, Speedup: speedup},
		},
		SweepSketches: []SweepSketch{{
			Suite: "nightly", Sweep: "CaseStudy1000/4vm/stream", System: "I/O-GUARD-70",
			Trials: 1000, SuccessRatio: 0.99, ThroughputMean: 5,
			Response:  sketchFor(t, 7, sweepP99Scale),
			Tardiness: sketchFor(t, 8, 0.01),
		}},
	}
}

// TestAppendWrapsSingleReport: appending onto a file holding a single
// report wraps it as run 0 of a trajectory, and appending onto that
// trajectory extends it, every earlier run preserved.
func TestAppendWrapsSingleReport(t *testing.T) {
	path := filepath.Join(t.TempDir(), "BENCH_sim.json")
	first := run(t, "2026-01-01T00:00:00Z", 100, 5)
	src, err := json.Marshal(first)
	if err != nil {
		t.Fatal(err)
	}
	if err := os.WriteFile(path, src, 0o644); err != nil {
		t.Fatal(err)
	}
	for want := 2; want <= 3; want++ {
		data, err := AppendRun(path, run(t, fmt.Sprintf("2026-01-0%dT00:00:00Z", want), 100, 5))
		if err != nil {
			t.Fatal(err)
		}
		traj, err := DecodeTrajectory(data)
		if err != nil {
			t.Fatalf("appended trajectory rejected: %v", err)
		}
		if traj.Schema != TrajectorySchema || len(traj.Runs) != want {
			t.Fatalf("append produced schema=%q runs=%d, want %q/%d", traj.Schema, len(traj.Runs), TrajectorySchema, want)
		}
		if r := traj.Runs[0]; r.Timestamp != first.Timestamp || len(r.SweepSketches) != 1 {
			t.Fatalf("run 0 rewritten: %q with %d sketches", r.Timestamp, len(r.SweepSketches))
		}
		if err := os.WriteFile(path, data, 0o644); err != nil {
			t.Fatal(err)
		}
	}
}

// TestDecodeRejectsMalformed: schema and sanity gates.
func TestDecodeRejectsMalformed(t *testing.T) {
	cases := []struct {
		name, raw, want string
	}{
		{"unknown schema", `{"schema":"ioguard/other/v9"}`, "unknown schema"},
		{"no schema", `{"runs":[]}`, "unknown schema"},
		{"v1 report", `{"schema":"ioguard/bench_sim/v1","results":[{"name":"x","iterations":1,"ns_per_op":1}]}`, "unknown schema"},
		{"v1 trajectory", `{"schema":"ioguard/bench_sim_trajectory/v1","runs":[]}`, "unknown schema"},
		{"v1 run in a trajectory", `{"schema":"ioguard/bench_sim_trajectory/v2","runs":[{"schema":"ioguard/bench_sim/v1"}]}`, "unknown schema"},
		{"negative ns", `{"schema":"ioguard/bench_sim/v2","results":[{"name":"x","ns_per_op":-1}]}`, "negative"},
		{"empty result name", `{"schema":"ioguard/bench_sim/v2","results":[{"name":""}]}`, "empty name"},
		{"sketch missing key", `{"schema":"ioguard/bench_sim/v2","sweep_sketches":[{"sweep":"","system":"x"}]}`, "missing sweep/system"},
		{"success ratio out of range", `{"schema":"ioguard/bench_sim/v2","sweep_sketches":[{"sweep":"s","system":"x","success_ratio":1.5}]}`, "outside [0,1]"},
		{"negative trials", `{"schema":"ioguard/bench_sim/v2","sweep_sketches":[{"sweep":"s","system":"x","trials":-1}]}`, "negative trials"},
		{"corrupt embedded sketch", `{"schema":"ioguard/bench_sim/v2","sweep_sketches":[{"sweep":"s","system":"x","trials":1,"response":{"n":2,"mean":1,"m2":0,"min":1,"max":1,"sketch":{"eps":0.01,"k":300,"n":3,"rng":1,"levels":[[1,1,1]]}}}]}`, "disagrees"},
		{"run inside trajectory", `{"schema":"ioguard/bench_sim_trajectory/v2","runs":[{"schema":"bogus"}]}`, "unknown schema"},
		{"robustness missing key", `{"schema":"ioguard/bench_sim/v2","robustness":[{"scenario":"storm","system":""}]}`, "missing scenario/system"},
		{"robustness bad success", `{"schema":"ioguard/bench_sim/v2","robustness":[{"scenario":"storm","system":"BS|PART","success_ratio":-0.2}]}`, "outside [0,1]"},
		{"robustness negative", `{"schema":"ioguard/bench_sim/v2","robustness":[{"scenario":"storm","system":"BS|PART","drops_per_trial":-1}]}`, "negative measurement"},
	}
	for _, tc := range cases {
		t.Run(tc.name, func(t *testing.T) {
			if _, err := DecodeTrajectory([]byte(tc.raw)); err == nil {
				t.Fatalf("decode of %q payload succeeded", tc.name)
			} else if !strings.Contains(err.Error(), tc.want) {
				t.Fatalf("decode of %q: error %v does not mention %q", tc.name, err, tc.want)
			}
		})
	}
}

// TestAnalyzeVerdicts: each gate fires on the trend that violates it
// and stays quiet on stable trends.
func TestAnalyzeVerdicts(t *testing.T) {
	stable := &Trajectory{Schema: TrajectorySchema, Runs: []Report{
		run(t, "1", 100, 5), run(t, "2", 100, 5), run(t, "3", 100, 5),
	}}
	if a := Analyze(stable); a.Regressed() {
		t.Fatalf("stable trajectory regressed: %v", a.Regressions)
	}

	slow := &Trajectory{Schema: TrajectorySchema, Runs: []Report{
		run(t, "1", 100, 5), run(t, "2", 100, 5), run(t, "3", 100, 1.5),
	}}
	a := Analyze(slow)
	if !a.Regressed() || !strings.Contains(a.Regressions[0], "speedup") {
		t.Fatalf("speedup drop not flagged: %v", a.Regressions)
	}

	tail := &Trajectory{Schema: TrajectorySchema, Runs: []Report{
		run(t, "1", 100, 5), run(t, "2", 100, 5), run(t, "3", 1000, 5),
	}}
	a = Analyze(tail)
	if !a.Regressed() || !strings.Contains(strings.Join(a.Regressions, ";"), "p99") {
		t.Fatalf("p99 growth not flagged: %v", a.Regressions)
	}

	// Below minRuns nothing fires even on a bad latest run.
	single := &Trajectory{Schema: TrajectorySchema, Runs: []Report{run(t, "1", 1000, 0.1)}}
	if a := Analyze(single); a.Regressed() {
		t.Fatalf("single run regressed: %v", a.Regressions)
	}
}

// TestAnalyzeSuccessDrop: the success-ratio gate.
func TestAnalyzeSuccessDrop(t *testing.T) {
	good := run(t, "1", 100, 5)
	bad := run(t, "2", 100, 5)
	bad.SweepSketches[0].SuccessRatio = 0.80
	traj := &Trajectory{Schema: TrajectorySchema, Runs: []Report{good, bad}}
	a := Analyze(traj)
	if !a.Regressed() || !strings.Contains(strings.Join(a.Regressions, ";"), "success ratio") {
		t.Fatalf("success drop not flagged: %v", a.Regressions)
	}
}

// TestRenderShape: the rendered report carries every section and the
// verdict line.
func TestRenderShape(t *testing.T) {
	traj := &Trajectory{Schema: TrajectorySchema, Runs: []Report{
		run(t, "1", 100, 5), run(t, "2", 100, 5),
	}}
	out := Render(Analyze(traj))
	for _, want := range []string{
		"benchmark trajectory report", "Sweep latency distributions",
		"Response p99 trend", "Speedup pairs", "Verdict", "OK",
		"nightly/CaseStudy1000/4vm/stream/I/O-GUARD-70",
	} {
		if !strings.Contains(out, want) {
			t.Fatalf("rendered report missing %q:\n%s", want, out)
		}
	}
	reg := Render(Analyze(&Trajectory{Schema: TrajectorySchema, Runs: []Report{
		run(t, "1", 100, 5), run(t, "2", 100, 0.5),
	}}))
	if !strings.Contains(reg, "REGRESSION") {
		t.Fatalf("regressed report missing REGRESSION:\n%s", reg)
	}
}

// TestRenderRobustness: the fault-robustness table shows the rows of
// the newest run carrying any, one line per (scenario, system) in run
// order, and a later run appended without the sweep keeps that table.
func TestRenderRobustness(t *testing.T) {
	older, latest, bare := run(t, "1", 100, 5), run(t, "2", 100, 5), run(t, "3", 100, 5)
	older.Robustness = []RobustnessRow{{Scenario: "storm", System: "BS|PART", Trials: 1, SuccessRatio: 1}}
	latest.Robustness = []RobustnessRow{
		{Scenario: "storm", System: "BS|PART", Trials: 20, SuccessRatio: 0.85,
			MissesPerTrial: 3.25, FaultedMissesPerTrial: 1.5, DropsPerTrial: 12.05, DupsPerTrial: 0.4,
			AccuracyMeanSlots: 17.3, AccuracyP99Slots: 88},
		{Scenario: "clean", System: "I/O-GUARD-70", Trials: 20, SuccessRatio: 1,
			AccuracyMeanSlots: 2.5, AccuracyP99Slots: 9},
	}
	const table = `
## Fault robustness (latest run)

| scenario | system | trials | success | misses/trial | faulted misses/trial | drops/trial | dups/trial | accuracy mean | accuracy p99 |
|---|---|---|---|---|---|---|---|---|---|
| storm | BS|PART | 20 | 0.850 | 3.25 | 1.50 | 12.05 | 0.40 | 17.30 | 88 |
| clean | I/O-GUARD-70 | 20 | 1.000 | 0.00 | 0.00 | 0.00 | 0.00 | 2.50 | 9 |
`
	for name, runs := range map[string][]Report{
		"latest":         {older, latest},
		"appended-after": {older, latest, bare},
	} {
		out := Render(Analyze(&Trajectory{Schema: TrajectorySchema, Runs: runs}))
		if !strings.Contains(out, table) {
			t.Errorf("%s: rendered report lacks the robustness table\n%s\ngot:\n%s", name, table, out)
		}
	}
	out := Render(Analyze(&Trajectory{Schema: TrajectorySchema, Runs: []Report{bare}}))
	if strings.Contains(out, "Fault robustness") {
		t.Errorf("a trajectory without robustness rows renders the table:\n%s", out)
	}
}

// TestReportJSONRoundTrip: a v2 report with sketches survives encode →
// decode with its quantiles intact.
func TestReportJSONRoundTrip(t *testing.T) {
	rep := run(t, "1", 100, 5)
	rep.Robustness = []RobustnessRow{{
		Scenario: "storm", System: "BS|PART", Trials: 3,
		SuccessRatio: 0.5, MissesPerTrial: 12, FaultedMissesPerTrial: 4,
		DropsPerTrial: 2, DupsPerTrial: 1, AccuracyMeanSlots: 7.5, AccuracyP99Slots: 40,
	}}
	wantP99 := rep.SweepSketches[0].Response.Percentile(99)
	data, err := json.Marshal(rep)
	if err != nil {
		t.Fatal(err)
	}
	traj, err := DecodeTrajectory(data)
	if err != nil {
		t.Fatal(err)
	}
	got := traj.Runs[0].SweepSketches[0].Response.Percentile(99)
	if got != wantP99 {
		t.Fatalf("round-tripped p99 %g, want %g", got, wantP99)
	}
	rr := traj.Runs[0].Robustness
	if len(rr) != 1 || rr[0] != rep.Robustness[0] {
		t.Fatalf("round-tripped robustness rows %+v, want %+v", rr, rep.Robustness)
	}
}
