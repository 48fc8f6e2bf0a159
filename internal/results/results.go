// Package results owns the machine-readable benchmark record:
// BENCH_sim.json's report and trajectory schemas, their validation,
// and the fleet-scale analysis the ioguard-report command renders.
//
// Schema history:
//
//   - ioguard/bench_sim/v1 — one benchmark run: results, derived
//     speedup pairs, slot-table footprints. No longer decoded: the
//     committed BENCH_sim.json carries no v1 run.
//   - ioguard/bench_sim/v2 — v1 plus sweep_sketches: serialized
//     merged KLL recorders of the nightly sweeps' response/tardiness
//     distributions, so the trajectory accumulates true cross-trial
//     latency distributions over time instead of only wall-clock
//     numbers.
//
// Decoding never trusts wire state: schemas must be known, embedded
// sketches revalidate their own invariants (metrics.Streaming /
// metrics.KLL UnmarshalJSON), and per-run sanity checks (names
// non-empty, counts non-negative) run before any analysis.
package results

import (
	"encoding/json"
	"fmt"
	"os"
	"strings"

	"ioguard/internal/footprint"
	"ioguard/internal/metrics"
)

// Schema identifiers. Encoding writes them and decoding accepts only
// them.
const (
	ReportSchema     = "ioguard/bench_sim/v2"
	TrajectorySchema = "ioguard/bench_sim_trajectory/v2"
)

// Result is one benchmark measurement.
type Result struct {
	Name        string  `json:"name"`
	Iterations  int     `json:"iterations"`
	NsPerOp     float64 `json:"ns_per_op"`
	AllocsPerOp int64   `json:"allocs_per_op"`
	BytesPerOp  int64   `json:"bytes_per_op"`
	// SlotsPerOp is how many simulated slots one iteration advances
	// (0 when not meaningful, e.g. queue micro-benchmarks).
	SlotsPerOp  int64   `json:"slots_per_op,omitempty"`
	SlotsPerSec float64 `json:"slots_per_sec,omitempty"`
}

// Speedup compares the dense variant of one benchmark pair against
// its optimized sibling — the fast-forward protocol for engine-level
// pairs, or the run-length interval table for the Slot* pairs.
type Speedup struct {
	Name          string  `json:"name"`
	DenseNsPerOp  float64 `json:"dense_ns_per_op"`
	FFNsPerOp     float64 `json:"fastforward_ns_per_op"`
	Speedup       float64 `json:"speedup"`
	DenseSlotsSec float64 `json:"dense_slots_per_sec,omitempty"`
	FFSlotsSec    float64 `json:"fastforward_slots_per_sec,omitempty"`
}

// SweepSketch is one nightly sweep's merged cross-trial distribution
// for one system: the per-trial KLL recorders of every (utilization,
// trial) cell folded in canonical order. The (Suite, Sweep, System)
// triple is the grouping key ioguard-report tracks across runs.
type SweepSketch struct {
	Suite  string `json:"suite"`  // e.g. "nightly"
	Sweep  string `json:"sweep"`  // e.g. "CaseStudy1000/4vm/stream"
	System string `json:"system"` // e.g. "I/O-GUARD-70"
	Trials int    `json:"trials"` // trials folded into the sketches
	// SuccessRatio and ThroughputMean carry the sweep's headline
	// scalars so report tables need no re-simulation.
	SuccessRatio   float64 `json:"success_ratio"`
	ThroughputMean float64 `json:"throughput_mean_mbps"`
	// Response and Tardiness are the merged recorders (slots). Either
	// may be nil when a sweep recorded no completions.
	Response  *metrics.Streaming `json:"response,omitempty"`
	Tardiness *metrics.Streaming `json:"tardiness,omitempty"`
}

// RobustnessRow is one (scenario, system) cell of the fault-injection
// robustness sweep: the fault-conditioned miss/drop classification and
// the ROTA-I/O-style timing-accuracy scalars for one system under one
// named fault scenario. Rows are additive to the v2 schema — older
// payloads simply lack them.
type RobustnessRow struct {
	Scenario     string  `json:"scenario"` // fault menu entry, e.g. "storm"
	System       string  `json:"system"`   // e.g. "BS|PART"
	Trials       int     `json:"trials"`
	SuccessRatio float64 `json:"success_ratio"`
	// Per-trial means of the fault-conditioned counters.
	MissesPerTrial        float64 `json:"misses_per_trial"`
	FaultedMissesPerTrial float64 `json:"faulted_misses_per_trial"`
	DropsPerTrial         float64 `json:"drops_per_trial"`
	DupsPerTrial          float64 `json:"dups_per_trial"`
	// Release-to-actuation error distribution, in slots.
	AccuracyMeanSlots float64 `json:"accuracy_mean_slots"`
	AccuracyP99Slots  float64 `json:"accuracy_p99_slots"`
}

// Report is one benchmark run — the ioguard/bench_sim/v2 schema, and
// one element of a trajectory's runs array.
type Report struct {
	Schema    string    `json:"schema"`
	Timestamp string    `json:"timestamp,omitempty"`
	Suite     string    `json:"suite,omitempty"`
	GoVersion string    `json:"go_version"`
	GOOS      string    `json:"goos"`
	GOARCH    string    `json:"goarch"`
	NumCPU    int       `json:"num_cpu"`
	BenchTime string    `json:"benchtime"`
	Results   []Result  `json:"results"`
	Speedups  []Speedup `json:"speedups,omitempty"`
	// SlotTables pairs the σ* encodings' memory footprints at the
	// avionics stress cell (H = 4M slots), complementing the Slot*
	// latency pairs in Speedups.
	SlotTables []footprint.SlotTableRow `json:"slot_tables,omitempty"`
	// SweepSketches are the nightly sweeps' merged latency
	// distributions (nightly suite only).
	SweepSketches []SweepSketch `json:"sweep_sketches,omitempty"`
	// Robustness holds the fault-injection sweep's per-(scenario,
	// system) rows (additive; absent from pre-fault runs).
	Robustness []RobustnessRow `json:"robustness,omitempty"`
}

// Trajectory accumulates one Report per invocation: the
// perf-over-PRs record the nightly CI job maintains.
type Trajectory struct {
	Schema string   `json:"schema"`
	Runs   []Report `json:"runs"`
}

// Validate sanity-checks one run beyond what decoding enforced.
func (r *Report) Validate() error {
	switch r.Schema {
	case ReportSchema:
	default:
		return fmt.Errorf("results: run has unknown schema %q", r.Schema)
	}
	for i, res := range r.Results {
		if res.Name == "" {
			return fmt.Errorf("results: result %d has empty name", i)
		}
		if res.Iterations < 0 || res.NsPerOp < 0 || res.AllocsPerOp < 0 || res.BytesPerOp < 0 {
			return fmt.Errorf("results: result %q has negative measurement", res.Name)
		}
	}
	for i, s := range r.Speedups {
		if s.Name == "" {
			return fmt.Errorf("results: speedup %d has empty name", i)
		}
		if s.Speedup < 0 || s.DenseNsPerOp < 0 || s.FFNsPerOp < 0 {
			return fmt.Errorf("results: speedup %q has negative measurement", s.Name)
		}
	}
	for i, sk := range r.SweepSketches {
		if sk.Sweep == "" || sk.System == "" {
			return fmt.Errorf("results: sweep sketch %d missing sweep/system key", i)
		}
		if sk.Trials < 0 {
			return fmt.Errorf("results: sweep sketch %q/%q has negative trials", sk.Sweep, sk.System)
		}
		if sk.SuccessRatio < 0 || sk.SuccessRatio > 1 {
			return fmt.Errorf("results: sweep sketch %q/%q success ratio %g outside [0,1]",
				sk.Sweep, sk.System, sk.SuccessRatio)
		}
		// Sketch invariants were revalidated by Streaming.UnmarshalJSON
		// during decode; here only cross-field consistency remains.
		if sk.Response != nil && sk.Trials == 0 && sk.Response.N() > 0 {
			return fmt.Errorf("results: sweep sketch %q/%q has observations but zero trials",
				sk.Sweep, sk.System)
		}
	}
	for i, rr := range r.Robustness {
		if rr.Scenario == "" || rr.System == "" {
			return fmt.Errorf("results: robustness row %d missing scenario/system key", i)
		}
		if rr.Trials < 0 {
			return fmt.Errorf("results: robustness row %s/%s has negative trials", rr.Scenario, rr.System)
		}
		if rr.SuccessRatio < 0 || rr.SuccessRatio > 1 {
			return fmt.Errorf("results: robustness row %s/%s success ratio %g outside [0,1]",
				rr.Scenario, rr.System, rr.SuccessRatio)
		}
		if rr.MissesPerTrial < 0 || rr.FaultedMissesPerTrial < 0 || rr.DropsPerTrial < 0 ||
			rr.DupsPerTrial < 0 || rr.AccuracyMeanSlots < 0 || rr.AccuracyP99Slots < 0 {
			return fmt.Errorf("results: robustness row %s/%s has negative measurement", rr.Scenario, rr.System)
		}
	}
	return nil
}

// Key returns the sketch's grouping key.
func (s *SweepSketch) Key() string {
	suite := s.Suite
	if suite == "" {
		suite = "default"
	}
	return suite + "/" + s.Sweep + "/" + s.System
}

// DecodeTrajectory parses data as either a trajectory or a bare single
// report, normalizing the latter into a one-run trajectory. Every run
// is validated.
func DecodeTrajectory(data []byte) (*Trajectory, error) {
	var probe struct {
		Schema string `json:"schema"`
	}
	if err := json.Unmarshal(data, &probe); err != nil {
		return nil, fmt.Errorf("results: unreadable payload: %w", err)
	}
	traj := &Trajectory{Schema: TrajectorySchema}
	switch probe.Schema {
	case TrajectorySchema:
		if err := json.Unmarshal(data, traj); err != nil {
			return nil, fmt.Errorf("results: bad trajectory: %w", err)
		}
	case ReportSchema:
		var rep Report
		if err := json.Unmarshal(data, &rep); err != nil {
			return nil, fmt.Errorf("results: bad report: %w", err)
		}
		traj.Runs = append(traj.Runs, rep)
	default:
		return nil, fmt.Errorf("results: unknown schema %q", probe.Schema)
	}
	for i := range traj.Runs {
		if err := traj.Runs[i].Validate(); err != nil {
			return nil, fmt.Errorf("results: run %d: %w", i, err)
		}
	}
	return traj, nil
}

// LoadTrajectory reads and decodes path.
func LoadTrajectory(path string) (*Trajectory, error) {
	data, err := os.ReadFile(path)
	if err != nil {
		return nil, err
	}
	return DecodeTrajectory(data)
}

// AppendRun folds rep into the trajectory at path and returns the
// encoded bytes: an existing trajectory file (either version) gains
// one run, an existing single-report file is wrapped as the first
// run, and a missing file starts a fresh trajectory. The written
// schema is always the current version; earlier runs ride along
// unmodified.
func AppendRun(path string, rep Report) ([]byte, error) {
	traj := &Trajectory{Schema: TrajectorySchema}
	if data, err := os.ReadFile(path); err == nil {
		traj, err = DecodeTrajectory(data)
		if err != nil {
			return nil, fmt.Errorf("results: existing %s: %w", path, err)
		}
		traj.Schema = TrajectorySchema
	} else if !os.IsNotExist(err) {
		return nil, err
	}
	traj.Runs = append(traj.Runs, rep)
	return json.MarshalIndent(traj, "", "  ")
}

// Speedups pairs every <base>/dense result with its <base>/fastforward
// sibling — or, for the slot-table pairs that have no engine variant,
// the <base>/interval sibling. The Dense* fields hold the dense
// variant's numbers.
func Speedups(results []Result) []Speedup {
	byName := make(map[string]Result, len(results))
	for _, r := range results {
		byName[r.Name] = r
	}
	var out []Speedup
	for _, r := range results {
		base, ok := strings.CutSuffix(r.Name, "/dense")
		if !ok {
			continue
		}
		ff, ok := byName[base+"/fastforward"]
		if !ok {
			ff, ok = byName[base+"/interval"]
		}
		if !ok || ff.NsPerOp == 0 {
			continue
		}
		out = append(out, Speedup{
			Name:          base,
			DenseNsPerOp:  r.NsPerOp,
			FFNsPerOp:     ff.NsPerOp,
			Speedup:       r.NsPerOp / ff.NsPerOp,
			DenseSlotsSec: r.SlotsPerSec,
			FFSlotsSec:    ff.SlotsPerSec,
		})
	}
	return out
}
