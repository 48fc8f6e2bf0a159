// Benchmark harness: one benchmark per table and figure of the
// paper's evaluation (Sec. V). Each benchmark regenerates its result
// (printing the same rows/series the paper reports on the first
// iteration) and reports headline numbers as custom metrics, so
//
//	go test -bench=. -benchmem
//
// reproduces the entire evaluation. The case-study benchmarks default
// to a laptop-scale grid; use cmd/ioguard-experiments for the full
// sweep with more trials.
package ioguard

import (
	"fmt"
	"sync"
	"testing"

	"ioguard/internal/benchsuite"
	"ioguard/internal/experiments"
	"ioguard/internal/footprint"
	"ioguard/internal/hw"
	"ioguard/internal/rtos"
	"ioguard/internal/workload"
)

// printOnce prints a rendered experiment exactly once per process, no
// matter how many benchmark iterations run.
var printOnce sync.Map

func printExperiment(key, text string) {
	if _, loaded := printOnce.LoadOrStore(key, true); !loaded {
		fmt.Println(text)
	}
}

// BenchmarkFig6SoftwareOverhead regenerates Fig. 6: the run-time
// memory footprint of hypervisor, kernel and I/O drivers across the
// four architectures.
func BenchmarkFig6SoftwareOverhead(b *testing.B) {
	var rtxenOverKB float64
	for i := 0; i < b.N; i++ {
		out, err := footprint.Render()
		if err != nil {
			b.Fatal(err)
		}
		printExperiment("fig6", "Fig. 6 — run-time software overhead (KB)\n"+out)
		rtxenOverKB, _ = footprint.OverheadVsLegacy(rtos.RTXen)
	}
	b.ReportMetric(rtxenOverKB, "rtxen-overhead-KB")
	iog, _ := footprint.StackTotal(rtos.IOGuard, rtos.DriverDevices())
	leg, _ := footprint.StackTotal(rtos.Legacy, rtos.DriverDevices())
	b.ReportMetric(iog/leg, "ioguard/legacy-stack-ratio")
}

// BenchmarkTable1HardwareOverhead regenerates Table I: FPGA resource
// consumption of the hypervisor vs. reference designs.
func BenchmarkTable1HardwareOverhead(b *testing.B) {
	var prop hw.Resources
	for i := 0; i < b.N; i++ {
		out, err := experiments.RenderTable1()
		if err != nil {
			b.Fatal(err)
		}
		printExperiment("table1", out)
		prop, err = hw.Hypervisor(16, 2)
		if err != nil {
			b.Fatal(err)
		}
	}
	b.ReportMetric(float64(prop.LUTs), "LUTs")
	b.ReportMetric(float64(prop.Registers), "registers")
	b.ReportMetric(prop.PowerMW, "power-mW")
}

// benchFig7 runs a reduced Fig. 7 sweep for one VM group and reports
// the success ratios at the ends of the utilization range.
func benchFig7(b *testing.B, vms int, key string) {
	b.Helper()
	cfg := experiments.CaseStudyConfig{
		VMs:          vms,
		Utils:        []float64{0.40, 0.55, 0.70, 0.85, 1.00},
		Trials:       3,
		HyperPeriods: 4,
		Seed:         1,
	}
	var points []experiments.CaseStudyPoint
	for i := 0; i < b.N; i++ {
		var err error
		points, err = experiments.CaseStudy(cfg)
		if err != nil {
			b.Fatal(err)
		}
		printExperiment(key, experiments.RenderCaseStudy(points, vms))
	}
	report := func(sys string, util float64, name string) {
		for _, p := range points {
			if p.System == sys && p.Util == util {
				b.ReportMetric(p.Agg.SuccessRatio(), name)
			}
		}
	}
	report("I/O-GUARD-70", 1.00, "iog70-success@1.0")
	report("I/O-GUARD-40", 1.00, "iog40-success@1.0")
	report("BS|RT-XEN", 0.70, "rtxen-success@0.7")
	report("BS|BV", 0.70, "bv-success@0.7")
}

// BenchmarkFig7aSuccessRatio4VM regenerates Fig. 7(a): success ratio
// vs target utilization in the 4-VM group.
func BenchmarkFig7aSuccessRatio4VM(b *testing.B) { benchFig7(b, 4, "fig7a") }

// BenchmarkFig7bSuccessRatio8VM regenerates Fig. 7(b): success ratio
// vs target utilization in the 8-VM group.
func BenchmarkFig7bSuccessRatio8VM(b *testing.B) { benchFig7(b, 8, "fig7b") }

// BenchmarkFig7cThroughput regenerates Fig. 7(c): I/O throughput vs
// target utilization (the throughput panel is printed together with
// each success-ratio sweep; this benchmark reports the headline
// throughput numbers for both groups at full load).
func BenchmarkFig7cThroughput(b *testing.B) {
	cfg := experiments.CaseStudyConfig{
		VMs:          4,
		Utils:        []float64{0.40, 1.00},
		Trials:       3,
		HyperPeriods: 4,
		Seed:         1,
	}
	var points []experiments.CaseStudyPoint
	for i := 0; i < b.N; i++ {
		var err error
		points, err = experiments.CaseStudy(cfg)
		if err != nil {
			b.Fatal(err)
		}
		printExperiment("fig7c", experiments.RenderCaseStudy(points, 4))
	}
	for _, p := range points {
		if p.Util == 1.00 && p.System == "I/O-GUARD-70" {
			b.ReportMetric(p.Agg.Throughput.Mean(), "iog70-MBps@1.0")
		}
		if p.Util == 1.00 && p.System == "BS|RT-XEN" {
			b.ReportMetric(p.Agg.Throughput.Mean(), "rtxen-MBps@1.0")
		}
	}
}

// benchFig8 renders the scalability sweep once and reports one panel.
func benchFig8(b *testing.B, metric func(p experiments.Fig8Point) (string, float64)) {
	b.Helper()
	var points []experiments.Fig8Point
	for i := 0; i < b.N; i++ {
		var err error
		points, err = experiments.Fig8(4)
		if err != nil {
			b.Fatal(err)
		}
		printExperiment("fig8", experiments.RenderFig8(points))
	}
	for _, p := range points {
		if p.Eta == 4 {
			name, v := metric(p)
			b.ReportMetric(v, name)
		}
	}
}

// BenchmarkFig8aAreaScaling regenerates Fig. 8(a): normalized area vs
// η for BS|Legacy and I/O-GUARD.
func BenchmarkFig8aAreaScaling(b *testing.B) {
	benchFig8(b, func(p experiments.Fig8Point) (string, float64) {
		return "area-overhead@eta4", (p.GuardArea - p.LegacyArea) / p.LegacyArea
	})
}

// BenchmarkFig8bPowerScaling regenerates Fig. 8(b): power vs η.
func BenchmarkFig8bPowerScaling(b *testing.B) {
	benchFig8(b, func(p experiments.Fig8Point) (string, float64) {
		return "guard-power-mW@eta4", p.GuardPower
	})
}

// BenchmarkFig8cFmaxScaling regenerates Fig. 8(c): maximum frequency
// vs η.
func BenchmarkFig8cFmaxScaling(b *testing.B) {
	benchFig8(b, func(p experiments.Fig8Point) (string, float64) {
		return "guard-fmax-MHz@eta4", p.GuardFmax
	})
}

// BenchmarkAblationScheduler quantifies the R-channel design choices
// (DESIGN.md Sec. 5): DirectEDF vs work-conserving reclaiming vs no
// pre-loading, at 80 % utilization on 8 VMs.
func BenchmarkAblationScheduler(b *testing.B) {
	var points []experiments.AblationPoint
	for i := 0; i < b.N; i++ {
		var err error
		points, err = experiments.SchedulerAblation(8, 0.8, 2, 1, 0)
		if err != nil {
			b.Fatal(err)
		}
	}
	var text string
	for _, p := range points {
		text += fmt.Sprintf("%-24s %s\n", p.Config, p.Agg)
	}
	printExperiment("ablation", "R-channel ablation at U=0.80, 8 VMs\n"+text)
	for _, p := range points {
		b.ReportMetric(p.Agg.SuccessRatio(), p.Config+"-success")
	}
}

// BenchmarkAblationPreloadFraction sweeps the P-channel pre-load
// fraction at full load (the mechanism behind Obs. 3: I/O-GUARD-70
// beats I/O-GUARD-40 because more tasks are table-guaranteed).
func BenchmarkAblationPreloadFraction(b *testing.B) {
	var points []experiments.PreloadPoint
	for i := 0; i < b.N; i++ {
		var err error
		points, err = experiments.PreloadSweep(8, 1.0, nil, 3, 1, 0)
		if err != nil {
			b.Fatal(err)
		}
		printExperiment("preload", experiments.RenderPreloadSweep(points, 8, 1.0))
	}
	for _, p := range points {
		b.ReportMetric(p.Agg.SuccessRatio(), fmt.Sprintf("success@%.0f%%", p.Frac*100))
	}
}

// BenchmarkCaseStudyParallel runs one Fig. 7 column at increasing
// worker counts. The (util × trial × system) cells are independent,
// so wall-clock time should fall near-linearly with workers (up to
// the core count) while the folded output stays byte-identical —
// compare the ns/op across sub-benchmarks:
//
//	go test -bench=CaseStudyParallel -benchtime=1x
func BenchmarkCaseStudyParallel(b *testing.B) {
	cfg := experiments.CaseStudyConfig{
		VMs:          4,
		Utils:        []float64{0.70, 0.85, 1.00},
		Trials:       4,
		HyperPeriods: 3,
		Seed:         1,
	}
	var baseline string
	for _, workers := range []int{1, 2, 4, 8} {
		b.Run(fmt.Sprintf("workers=%d", workers), func(b *testing.B) {
			c := cfg
			c.Workers = workers
			var points []experiments.CaseStudyPoint
			for i := 0; i < b.N; i++ {
				var err error
				points, err = experiments.CaseStudy(c)
				if err != nil {
					b.Fatal(err)
				}
			}
			// The deterministic-merge guarantee, enforced while timing:
			// every worker count renders the same table.
			table := experiments.RenderCaseStudy(points, c.VMs)
			if baseline == "" {
				baseline = table
			} else if table != baseline {
				b.Fatal("parallel case study diverged from workers=1 output")
			}
			b.ReportMetric(float64(len(c.Utils)*c.Trials*len(experiments.SystemNames())), "cells")
		})
	}
}

// BenchmarkParallelSweep measures the raw worker-pool scaling on a
// single configuration (no workload regeneration in the loop).
func BenchmarkParallelSweep(b *testing.B) {
	ts, err := workload.Generate(workload.Config{VMs: 8, TargetUtil: 0.8, Seed: 1})
	if err != nil {
		b.Fatal(err)
	}
	tr := Trial{VMs: 8, Tasks: ts, Horizon: ts.Hyperperiod() * 3, Seed: 1}
	build := experiments.IOGuardBuilder(0.70)
	for _, workers := range []int{1, 2, 4, 8} {
		b.Run(fmt.Sprintf("workers=%d", workers), func(b *testing.B) {
			for i := 0; i < b.N; i++ {
				if _, err := ParallelSweep(build, tr, 8, workers); err != nil {
					b.Fatal(err)
				}
			}
		})
	}
}

// benchSuite exposes a benchsuite prefix as sub-benchmarks, so that
// `go test -bench` and cmd/ioguard-bench time identical bodies.
func benchSuite(b *testing.B, prefix string) {
	b.Helper()
	specs, err := benchsuite.ByPrefix(prefix)
	if err != nil {
		b.Fatal(err)
	}
	for _, s := range specs {
		b.Run(s.Name, s.Bench)
	}
}

// BenchmarkRunSparse measures a full idle-heavy case-study trial
// (stretched automotive workload, 0.05 per-device utilization) through
// system.Run, dense vs fast-forward.
func BenchmarkRunSparse(b *testing.B) { benchSuite(b, "RunSparse") }

// BenchmarkRunAvionics measures the long-hyper-period stress cell (the
// ARINC-653-style avionics workload, H = 4,000,000 slots at ~3%
// per-device utilization) end to end through system.Run, dense
// stepping vs the fast-forward stack over the interval slot table.
func BenchmarkRunAvionics(b *testing.B) { benchSuite(b, "RunAvionics") }

// BenchmarkSlotBuild, BenchmarkSlotNextFree and BenchmarkSlotFreeIn
// compare the σ* representations (dense per-slot array vs run-length
// intervals) on the avionics stress cell's table: compilation plus
// first supply query, and mode-change-then-query-burst cycles for the
// two supply primitives the fast-forward stack leans on.
func BenchmarkSlotBuild(b *testing.B)    { benchSuite(b, "SlotBuild") }
func BenchmarkSlotNextFree(b *testing.B) { benchSuite(b, "SlotNextFree") }
func BenchmarkSlotFreeIn(b *testing.B)   { benchSuite(b, "SlotFreeIn") }

// BenchmarkRunSkewed measures the one-busy-device skew cell (bursty
// telemetry on four near-idle devices plus a 60%-utilized CAN
// controller) as a dense/fastforward pair: the ratio is what the
// per-device clocks of the sharded executor buy when a busy device no
// longer throttles idle peers.
func BenchmarkRunSkewed(b *testing.B) { benchSuite(b, "RunSkewed") }

// BenchmarkRunSkewedLegacy and BenchmarkRunSkewedRTXen measure the
// same skew cell on the mesh-coupled baselines, whose transports run
// as two boundary-horizon regions (processor band / device row): only
// the device row steps densely while the processor band skips.
func BenchmarkRunSkewedLegacy(b *testing.B) { benchSuite(b, "RunSkewedLegacy") }

func BenchmarkRunSkewedRTXen(b *testing.B) { benchSuite(b, "RunSkewedRTXen") }

// BenchmarkHypervisorStep measures the simulator's slot-processing
// rate for the full I/O-GUARD system (useful when sizing longer
// sweeps; not a paper figure).
func BenchmarkHypervisorStep(b *testing.B) {
	ts, err := workload.Generate(workload.Config{VMs: 8, TargetUtil: 0.8, Seed: 1})
	if err != nil {
		b.Fatal(err)
	}
	build := experiments.IOGuardBuilder(0.70)
	sys, err := build(Trial{VMs: 8, Tasks: ts}, &Collector{})
	if err != nil {
		b.Fatal(err)
	}
	b.ReportAllocs()
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		sys.Step(Time(i))
	}
}
