// Command ioguard-experiments regenerates the tables and figures of
// the paper's evaluation (Sec. V). Each experiment prints the same
// rows/series the paper reports.
//
// Usage:
//
//	ioguard-experiments -exp fig6
//	ioguard-experiments -exp table1
//	ioguard-experiments -exp fig7a [-trials N] [-hyperperiods N] [-workers N]
//	ioguard-experiments -exp fig7b [-trials N]
//	ioguard-experiments -exp fig7c [-trials N]
//	ioguard-experiments -exp fig8 [-maxeta N]
//	ioguard-experiments -exp ablation [-util U]
//	ioguard-experiments -exp all
package main

import (
	"flag"
	"fmt"
	"os"

	"ioguard/internal/cliflags"
	"ioguard/internal/experiments"
	"ioguard/internal/footprint"
)

func main() {
	var (
		exp     = flag.String("exp", "all", "experiment: fig6|table1|fig7a|fig7b|fig7c|fig8|ablation|preload|response|robust|all (robust is opt-in, not part of all)")
		trials  = flag.Int("trials", 5, "trials per case-study point (paper: 1000)")
		hps     = flag.Int("hyperperiods", 3, "horizon in workload hyper-periods (paper: 100 s runs)")
		maxEta  = flag.Int("maxeta", 4, "maximum scaling factor η for fig8")
		utilArg = flag.Float64("util", 0.8, "target utilization for the ablation")
		seed    = flag.Int64("seed", 1, "base random seed")
		quants  = flag.Bool("quantiles", false, "after each case-study table, print the merged cross-trial response/tardiness quantiles per (system, util) cell (exact in -metrics exact, ε-bounded in -metrics stream)")
	)
	execFlags := cliflags.RegisterDefault()
	flag.Parse()
	r, err := execFlags.Resolve()
	if err != nil {
		fmt.Fprintln(os.Stderr, "ioguard-experiments:", err)
		os.Exit(1)
	}
	if err := run(*exp, *trials, *hps, *maxEta, *utilArg, *seed, *quants, r); err != nil {
		fmt.Fprintln(os.Stderr, "ioguard-experiments:", err)
		os.Exit(1)
	}
}

func run(exp string, trials, hps, maxEta int, util float64, seed int64, quants bool, ec cliflags.Resolved) error {
	if trials < 1 {
		return fmt.Errorf("-trials %d: need at least one trial", trials)
	}
	workers := ec.Workers
	switch exp {
	case "fig6":
		return fig6()
	case "table1":
		return table1()
	case "fig7a":
		return fig7(4, trials, hps, seed, quants, ec)
	case "fig7b":
		return fig7(8, trials, hps, seed, quants, ec)
	case "fig7c":
		// Fig. 7(c) shares the sweep; print both VM groups' throughput.
		if err := fig7(4, trials, hps, seed, quants, ec); err != nil {
			return err
		}
		return fig7(8, trials, hps, seed, quants, ec)
	case "fig8":
		return fig8(maxEta)
	case "ablation":
		return ablation(util, trials, seed, workers)
	case "preload":
		return preload(util, trials, seed, workers)
	case "response":
		return response(util, seed)
	case "robust":
		return robust(util, trials, hps, seed, ec)
	case "all":
		if err := fig6(); err != nil {
			return err
		}
		if err := table1(); err != nil {
			return err
		}
		if err := fig7(4, trials, hps, seed, quants, ec); err != nil {
			return err
		}
		if err := fig7(8, trials, hps, seed, quants, ec); err != nil {
			return err
		}
		return fig8(maxEta)
	default:
		return fmt.Errorf("unknown experiment %q", exp)
	}
}

func fig6() error {
	out, err := footprint.Render()
	if err != nil {
		return err
	}
	fmt.Println("Fig. 6 — run-time software overhead (KB)")
	fmt.Print(out)
	fmt.Println()
	return nil
}

func table1() error {
	out, err := experiments.RenderTable1()
	if err != nil {
		return err
	}
	fmt.Print(out)
	fmt.Println()
	return nil
}

func fig7(vms, trials, hps int, seed int64, quants bool, ec cliflags.Resolved) error {
	points, err := experiments.CaseStudy(experiments.CaseStudyConfig{
		VMs:          vms,
		Trials:       trials,
		HyperPeriods: hps,
		Seed:         seed,
		Workers:      ec.Workers,
		Metrics:      ec.Metrics,
	})
	if err != nil {
		return err
	}
	fmt.Print(experiments.RenderCaseStudy(points, vms))
	fmt.Println()
	if quants {
		fmt.Print(experiments.RenderCaseStudyQuantiles(points, vms))
		fmt.Println()
	}
	return nil
}

func fig8(maxEta int) error {
	points, err := experiments.Fig8(maxEta)
	if err != nil {
		return err
	}
	fmt.Print(experiments.RenderFig8(points))
	fmt.Println()
	return nil
}

func preload(util float64, trials int, seed int64, workers int) error {
	points, err := experiments.PreloadSweep(8, util, nil, trials, seed, workers)
	if err != nil {
		return err
	}
	fmt.Print(experiments.RenderPreloadSweep(points, 8, util))
	return nil
}

func response(util float64, seed int64) error {
	profiles, err := experiments.ResponseProfile(8, util, seed)
	if err != nil {
		return err
	}
	fmt.Printf("Response-time distributions at U=%.2f, 8 VMs\n\n", util)
	fmt.Print(experiments.RenderResponseProfile(profiles))
	return nil
}

// robust runs the fault-scenario sweep across every buildable system
// (including BS|PART). Deliberately not part of -exp all: the
// committed experiments_output.txt pins the clean reproduction.
func robust(util float64, trials, hps int, seed int64, ec cliflags.Resolved) error {
	points, err := experiments.Robustness(experiments.RobustnessConfig{
		VMs:          4,
		Util:         util,
		Trials:       trials,
		HyperPeriods: hps,
		Seed:         seed,
		Workers:      ec.Workers,
		Metrics:      ec.Metrics,
	})
	if err != nil {
		return err
	}
	fmt.Print(experiments.RenderRobustness(points, 4, util))
	return nil
}

func ablation(util float64, trials int, seed int64, workers int) error {
	points, err := experiments.SchedulerAblation(8, util, trials, seed, workers)
	if err != nil {
		return err
	}
	fmt.Printf("R-channel scheduler ablation at U=%.2f, 8 VMs\n", util)
	for _, p := range points {
		fmt.Printf("%-24s %s\n", p.Config, p.Agg)
	}
	return nil
}
