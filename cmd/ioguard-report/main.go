// Command ioguard-report renders and gates the benchmark trajectory
// BENCH_sim.json accumulates (cmd/ioguard-bench -append): it
// validates the file (schema, per-run sanity, sketch invariants),
// groups measurements across runs by stable keys — speedup pair,
// nightly sweep (suite, sweep, system), slot-table device — and
// summarizes each group's trend against its prior-run median. The
// sweep rows come from the persisted merged KLL sketches, so the
// latency quantiles are true cross-trial distributions, not per-run
// scalars.
//
// Exit status is the verdict: 0 when no gate fired, 1 on a
// regression (latest speedup below prior-median/2, response p99 above
// prior-median×1.5, success ratio down more than 0.05, footprint
// growth), 2 when the trajectory itself is invalid. The nightly CI
// job runs this after appending a run and fails on a nonzero exit.
package main

import (
	"flag"
	"fmt"
	"os"

	"ioguard/internal/results"
)

func main() {
	var (
		file = flag.String("f", "BENCH_sim.json", "trajectory (or single report) to analyze")
		out  = flag.String("o", "-", "write the rendered report here (\"-\" for stdout)")
	)
	flag.Parse()

	traj, err := results.LoadTrajectory(*file)
	if err != nil {
		fmt.Fprintf(os.Stderr, "ioguard-report: %v\n", err)
		os.Exit(2)
	}
	a := results.Analyze(traj)
	rendered := results.Render(a)
	if *out == "-" {
		fmt.Print(rendered)
	} else if err := os.WriteFile(*out, []byte(rendered), 0o644); err != nil {
		fmt.Fprintf(os.Stderr, "ioguard-report: %v\n", err)
		os.Exit(2)
	}
	if a.Regressed() {
		fmt.Fprintf(os.Stderr, "ioguard-report: REGRESSION (%d finding(s))\n", len(a.Regressions))
		os.Exit(1)
	}
}
