// Command ioguard-bench runs the simulation benchmark suite
// (internal/benchsuite — the same bodies `go test -bench` wraps) and
// writes a machine-readable report to BENCH_sim.json. The derived
// dense/fast-forward speedups quantify the engine's idle-slot
// fast-forward on the idle-heavy cells; allocs/op tracks the
// zero-allocation hot paths.
//
// Two suites exist: the default one is sized for per-PR smoke runs,
// while -suite nightly selects the paper-scale case study (1000 trials
// per point, streaming metrics) and additionally persists each sweep's
// merged cross-trial response/tardiness sketches (results.SweepSketch)
// so the trajectory accumulates a true latency distribution over time.
// With -append the report is appended to a trajectory file (schema
// ioguard/bench_sim_trajectory/v2; a single v2 report is wrapped as
// its first run) whose runs array accumulates one entry per
// invocation — the nightly CI job uses this to track the sweep's
// performance PR over PR, and cmd/ioguard-report renders and gates
// the accumulated trajectory.
package main

import (
	"encoding/json"
	"flag"
	"fmt"
	"os"
	"runtime"
	"strings"
	"testing"
	"time"

	"ioguard/internal/benchsuite"
	"ioguard/internal/experiments"
	"ioguard/internal/footprint"
	"ioguard/internal/results"
)

// robustnessRows runs the fault-injection robustness sweep at smoke
// scale and flattens it into report rows: every system (the case-study
// five plus BS|PART) under every fault scenario, scored with the
// fault-conditioned miss/drop counters and the timing-accuracy
// distribution. The sweep is a deterministic simulation — identical
// rows on every host — so unlike the wall-clock benchmarks these
// columns are comparable across trajectory runs byte for byte.
func robustnessRows(seed int64) ([]results.RobustnessRow, error) {
	pts, err := experiments.Robustness(experiments.RobustnessConfig{
		VMs:          4,
		Util:         0.8,
		Trials:       3,
		HyperPeriods: 2,
		Seed:         seed,
	})
	if err != nil {
		return nil, err
	}
	rows := make([]results.RobustnessRow, 0, len(pts))
	for _, p := range pts {
		rows = append(rows, results.RobustnessRow{
			Scenario:              p.Scenario,
			System:                p.System,
			Trials:                p.Agg.Trials,
			SuccessRatio:          p.Agg.SuccessRatio(),
			MissesPerTrial:        p.Agg.Misses.Mean(),
			FaultedMissesPerTrial: p.Agg.FaultedMisses.Mean(),
			DropsPerTrial:         p.Agg.FaultDropped.Mean(),
			DupsPerTrial:          p.Agg.DupDelivered.Mean(),
			AccuracyMeanSlots:     p.Agg.Accuracy.Mean(),
			AccuracyP99Slots:      p.Agg.Accuracy.Quantile(0.99),
		})
	}
	return rows, nil
}

func measure(spec benchsuite.Spec) results.Result {
	r := testing.Benchmark(spec.Bench)
	res := results.Result{
		Name:        spec.Name,
		Iterations:  r.N,
		NsPerOp:     float64(r.T.Nanoseconds()) / float64(r.N),
		AllocsPerOp: r.AllocsPerOp(),
		BytesPerOp:  r.AllocedBytesPerOp(),
		SlotsPerOp:  spec.SlotsPerOp,
	}
	if spec.SlotsPerOp > 0 && res.NsPerOp > 0 {
		res.SlotsPerSec = float64(spec.SlotsPerOp) / (res.NsPerOp / 1e9)
	}
	return res
}

func main() {
	testing.Init()
	var (
		out       = flag.String("o", "BENCH_sim.json", "output path (\"-\" for stdout)")
		benchtime = flag.String("benchtime", "1s", "per-benchmark measuring time (forwarded to test.benchtime; e.g. 2s, 100x)")
		match     = flag.String("bench", "", "only run benchmarks whose name contains this substring")
		suite     = flag.String("suite", "default", "benchmark suite: default (per-PR smoke scale) or nightly (paper-scale 1000-trial case study)")
		appendRep = flag.Bool("append", false, "append this run to the output file's trajectory (ioguard/bench_sim_trajectory/v2) instead of overwriting it")
		robust    = flag.Bool("robust", true, "include the fault-injection robustness rows (deterministic smoke-scale sweep over every system and fault scenario)")
		robustSd  = flag.Int64("robust-seed", 11, "base seed for the robustness sweep's workloads and fault realizations")
	)
	flag.Parse()
	if err := flag.Set("test.benchtime", *benchtime); err != nil {
		fmt.Fprintf(os.Stderr, "ioguard-bench: bad -benchtime %q: %v\n", *benchtime, err)
		os.Exit(1)
	}
	var specs []benchsuite.Spec
	switch *suite {
	case "default":
		specs = benchsuite.Specs()
	case "nightly":
		specs = benchsuite.NightlySpecs()
	default:
		fmt.Fprintf(os.Stderr, "ioguard-bench: unknown suite %q (want default|nightly)\n", *suite)
		os.Exit(1)
	}

	rep := results.Report{
		Schema:    results.ReportSchema,
		Timestamp: time.Now().UTC().Format(time.RFC3339),
		Suite:     *suite,
		GoVersion: runtime.Version(),
		GOOS:      runtime.GOOS,
		GOARCH:    runtime.GOARCH,
		NumCPU:    runtime.NumCPU(),
		BenchTime: *benchtime,
	}
	for _, spec := range specs {
		if *match != "" && !strings.Contains(spec.Name, *match) {
			continue
		}
		fmt.Fprintf(os.Stderr, "running %s...\n", spec.Name)
		res := measure(spec)
		fmt.Fprintf(os.Stderr, "  %d iterations, %.0f ns/op, %d allocs/op\n",
			res.Iterations, res.NsPerOp, res.AllocsPerOp)
		rep.Results = append(rep.Results, res)
	}
	rep.Speedups = results.Speedups(rep.Results)
	slotRows, err := footprint.SlotTableRows(benchsuite.AvionicsTableRequirements())
	if err != nil {
		fmt.Fprintf(os.Stderr, "ioguard-bench: slot-table footprint: %v\n", err)
		os.Exit(1)
	}
	rep.SlotTables = slotRows
	for _, sk := range benchsuite.TakeSweepSketches() {
		sk.Suite = *suite
		rep.SweepSketches = append(rep.SweepSketches, sk)
	}
	if *robust {
		fmt.Fprintln(os.Stderr, "running robustness sweep...")
		rep.Robustness, err = robustnessRows(*robustSd)
		if err != nil {
			fmt.Fprintf(os.Stderr, "ioguard-bench: robustness sweep: %v\n", err)
			os.Exit(1)
		}
	}

	var data []byte
	if *appendRep && *out != "-" {
		data, err = results.AppendRun(*out, rep)
	} else {
		data, err = json.MarshalIndent(rep, "", "  ")
	}
	if err != nil {
		fmt.Fprintf(os.Stderr, "ioguard-bench: %v\n", err)
		os.Exit(1)
	}
	data = append(data, '\n')
	if *out == "-" {
		os.Stdout.Write(data)
		return
	}
	if err := os.WriteFile(*out, data, 0o644); err != nil {
		fmt.Fprintf(os.Stderr, "ioguard-bench: %v\n", err)
		os.Exit(1)
	}
	for _, s := range rep.Speedups {
		fmt.Printf("%s: %.1f× over baseline\n", s.Name, s.Speedup)
	}
	for _, r := range rep.SlotTables {
		fmt.Printf("slot-table %s: dense %d B → interval %d B (%.0f× smaller, %d runs over %d slots)\n",
			r.Device, r.DenseBytes, r.IntervalBytes, r.Reduction, r.Runs, r.HyperPeriod)
	}
	for _, sk := range rep.SweepSketches {
		fmt.Printf("sweep sketch %s: %d trials, response p99 %.0f slots\n",
			sk.Key(), sk.Trials, sk.Response.Percentile(99))
	}
	if n := len(rep.Robustness); n > 0 {
		fmt.Printf("robustness: %d (scenario, system) rows\n", n)
	}
	fmt.Printf("wrote %s (%d benchmarks)\n", *out, len(rep.Results))
}
