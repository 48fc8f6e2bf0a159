package results

import (
	"encoding/json"
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

// TestDecodeV1Fixture: the pre-change BENCH_sim.json (committed
// before the v2 schema existed) must keep decoding — the back-compat
// contract of the schema bump.
func TestDecodeV1Fixture(t *testing.T) {
	data, err := os.ReadFile(filepath.Join("testdata", "bench_sim_v1.json"))
	if err != nil {
		t.Fatal(err)
	}
	traj, err := DecodeTrajectory(data)
	if err != nil {
		t.Fatalf("v1 fixture rejected: %v", err)
	}
	if len(traj.Runs) != 1 {
		t.Fatalf("fixture decoded to %d runs, want 1", len(traj.Runs))
	}
	r := traj.Runs[0]
	if r.Schema != ReportSchemaV1 || len(r.Results) == 0 || len(r.Speedups) == 0 {
		t.Fatalf("fixture run lost content: schema=%q results=%d speedups=%d",
			r.Schema, len(r.Results), len(r.Speedups))
	}
	if len(r.SweepSketches) != 0 {
		t.Fatalf("v1 run decoded phantom sweep sketches")
	}
	// And the analysis pipeline runs on it without findings (single
	// run → no verdict).
	a := Analyze(traj, AnalysisConfig{})
	if a.Regressed() {
		t.Fatalf("single v1 run produced regressions: %v", a.Regressions)
	}
}

// TestAppendUpgradesV1: appending a v2 run onto the v1 single-report
// fixture wraps it as run 0 and writes a v2 trajectory whose old run
// survives a second decode.
func TestAppendUpgradesV1(t *testing.T) {
	dir := t.TempDir()
	path := filepath.Join(dir, "BENCH_sim.json")
	src, err := os.ReadFile(filepath.Join("testdata", "bench_sim_v1.json"))
	if err != nil {
		t.Fatal(err)
	}
	if err := os.WriteFile(path, src, 0o644); err != nil {
		t.Fatal(err)
	}
	data, err := AppendRun(path, run(t, "2026-01-02T00:00:00Z", 100, 5))
	if err != nil {
		t.Fatal(err)
	}
	traj, err := DecodeTrajectory(data)
	if err != nil {
		t.Fatalf("appended trajectory rejected: %v", err)
	}
	if traj.Schema != TrajectorySchema || len(traj.Runs) != 2 {
		t.Fatalf("append produced schema=%q runs=%d, want v2/2", traj.Schema, len(traj.Runs))
	}
	if traj.Runs[0].Schema != ReportSchemaV1 {
		t.Fatalf("v1 run 0 rewritten to %q", traj.Runs[0].Schema)
	}
	if len(traj.Runs[1].SweepSketches) != 1 {
		t.Fatalf("v2 run lost its sweep sketches")
	}
	// Round-trip again: append on top of the mixed file.
	if err := os.WriteFile(path, data, 0o644); err != nil {
		t.Fatal(err)
	}
	data2, err := AppendRun(path, run(t, "2026-01-03T00:00:00Z", 100, 5))
	if err != nil {
		t.Fatal(err)
	}
	traj2, err := DecodeTrajectory(data2)
	if err != nil || len(traj2.Runs) != 3 {
		t.Fatalf("second append: %v, runs=%d", err, len(traj2.Runs))
	}
}

// TestDecodeRejectsMalformed: schema and sanity gates.
func TestDecodeRejectsMalformed(t *testing.T) {
	cases := []struct {
		name, raw, want string
	}{
		{"unknown schema", `{"schema":"ioguard/other/v9"}`, "unknown schema"},
		{"no schema", `{"runs":[]}`, "unknown schema"},
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
	if a := Analyze(stable, AnalysisConfig{}); a.Regressed() {
		t.Fatalf("stable trajectory regressed: %v", a.Regressions)
	}

	slow := &Trajectory{Schema: TrajectorySchema, Runs: []Report{
		run(t, "1", 100, 5), run(t, "2", 100, 5), run(t, "3", 100, 1.5),
	}}
	a := Analyze(slow, AnalysisConfig{})
	if !a.Regressed() || !strings.Contains(a.Regressions[0], "speedup") {
		t.Fatalf("speedup drop not flagged: %v", a.Regressions)
	}

	tail := &Trajectory{Schema: TrajectorySchema, Runs: []Report{
		run(t, "1", 100, 5), run(t, "2", 100, 5), run(t, "3", 1000, 5),
	}}
	a = Analyze(tail, AnalysisConfig{})
	if !a.Regressed() || !strings.Contains(strings.Join(a.Regressions, ";"), "p99") {
		t.Fatalf("p99 growth not flagged: %v", a.Regressions)
	}

	// Below MinRuns nothing fires even on a bad latest run.
	single := &Trajectory{Schema: TrajectorySchema, Runs: []Report{run(t, "1", 1000, 0.1)}}
	if a := Analyze(single, AnalysisConfig{}); a.Regressed() {
		t.Fatalf("single run regressed: %v", a.Regressions)
	}
}

// TestAnalyzeSuccessDrop: the success-ratio gate.
func TestAnalyzeSuccessDrop(t *testing.T) {
	good := run(t, "1", 100, 5)
	bad := run(t, "2", 100, 5)
	bad.SweepSketches[0].SuccessRatio = 0.80
	traj := &Trajectory{Schema: TrajectorySchema, Runs: []Report{good, bad}}
	a := Analyze(traj, AnalysisConfig{})
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
	out := Render(Analyze(traj, AnalysisConfig{}))
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
	}}, AnalysisConfig{}))
	if !strings.Contains(reg, "REGRESSION") {
		t.Fatalf("regressed report missing REGRESSION:\n%s", reg)
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
