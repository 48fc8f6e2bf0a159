// Package experiments reproduces every table and figure of the
// paper's evaluation (Sec. V):
//
//	Fig. 6   — run-time software overhead (internal/footprint)
//	Table I  — hardware overhead on the FPGA (internal/hw)
//	Fig. 7   — case-study success ratio and I/O throughput across
//	           target utilizations, 4- and 8-VM groups
//	Fig. 8   — area / power / fmax scalability over η
//
// Each experiment returns structured data plus a Render function that
// prints the same rows/series the paper reports. The paper runs 1000
// trials of 100 s each; the drivers default to a laptop-scale setting
// (configurable) that preserves the curves' shape.
package experiments

import (
	"errors"
	"fmt"
	"math"
	"sort"
	"strings"

	"ioguard/internal/core"
	"ioguard/internal/faults"
	"ioguard/internal/hw"
	"ioguard/internal/metrics"
	"ioguard/internal/slot"
	"ioguard/internal/system"
	"ioguard/internal/task"
	"ioguard/internal/workload"
)

// CaseStudyConfig parameterizes the Fig. 7 sweep.
type CaseStudyConfig struct {
	VMs    int
	Utils  []float64 // target utilizations; nil = 0.40..1.00 step 0.05
	Trials int       // trials per point; ≤0 = 5
	// HyperPeriods sets the horizon in workload hyper-periods; ≤0 = 6.
	HyperPeriods int
	Seed         int64
	// Systems restricts the sweep; nil = all of SystemNames().
	Systems []string
	// Workers is the goroutine count fanning the (utilization × trial
	// × system) cells; ≤0 = runtime.GOMAXPROCS(0). Results are folded
	// in canonical order, so any worker count yields identical output.
	Workers int
	// Metrics selects each trial's collector mode. The rendered Fig. 7
	// tables use only exactly-counted quantities (success ratio from
	// CriticalMisses, throughput from BytesServed), so exact and
	// streaming sweeps render byte-identical output — the streaming
	// mode just bounds per-trial collector memory (enforced by the CI
	// cmp job).
	Metrics system.MetricsMode
}

// trialSeed derives the per-(utilization, trial) seed. The
// utilization mixes in as its grid index in percent via math.Round —
// a plain int64(util*1000) float-truncates (0.55 may be stored as
// 0.55000000000000004 or 0.549999...), which can shift or collide
// seeds between grid points and across platforms.
func trialSeed(base int64, trial int, util float64) int64 {
	return base + int64(trial)*7919 + int64(math.Round(util*100))
}

// sweep is the cell grid CaseStudy and Robustness share: groups ×
// trials × systems. Each (group, trial) draws one case-study workload
// at the group's utilization and every system runs it under the
// group's fault plan, so the cells of one (group, trial) differ only
// by architecture ("the data input to the examined systems was
// identical in each execution").
type sweep struct {
	vms, trials, hyperPeriods int
	seed                      int64
	names                     []string
	workers                   int
	metrics                   system.MetricsMode
	accuracy                  bool
}

// sweepGroup is one group of a sweep: a Fig. 7 utilization point or a
// robustness fault scenario.
type sweepGroup struct {
	util  float64
	plan  faults.Plan
	where string // names the group in errors, e.g. "at U=0.40"
}

// run lays the cells out group-major, then trial, then system, runs
// them with system.RunCells on s.workers goroutines and folds each
// (group, system) over its trials in trial order. aggs[g][i] is
// s.names[i]'s aggregate in groups[g]; the canonical layout makes it
// identical for every worker count.
func (s sweep) run(builders map[string]system.Builder, groups []sweepGroup) ([][]*metrics.Aggregate, error) {
	cells := make([]system.Cell, 0, len(groups)*s.trials*len(s.names))
	for _, g := range groups {
		for trial := 0; trial < s.trials; trial++ {
			seed := trialSeed(s.seed, trial, g.util)
			ts, err := workload.Generate(workload.Config{
				VMs:        s.vms,
				TargetUtil: g.util,
				Seed:       seed,
			})
			if err != nil {
				return nil, err
			}
			horizon, err := ts.Horizon(s.hyperPeriods)
			if err != nil {
				return nil, err
			}
			for _, name := range s.names {
				build, ok := builders[name]
				if !ok {
					return nil, fmt.Errorf("experiments: unknown system %q", name)
				}
				cells = append(cells, system.Cell{Build: build, Trial: system.Trial{
					VMs:      s.vms,
					Tasks:    ts,
					Horizon:  horizon,
					Seed:     seed,
					Metrics:  s.metrics,
					Faults:   g.plan,
					Accuracy: s.accuracy,
				}})
			}
		}
	}
	results, err := system.RunCells(cells, s.workers)
	if err != nil {
		var ce *system.CellError
		if errors.As(err, &ce) {
			g := groups[ce.Index/(s.trials*len(s.names))]
			name := s.names[ce.Index%len(s.names)]
			return nil, fmt.Errorf("experiments: %s %s: %w", name, g.where, ce.Err)
		}
		return nil, err
	}
	aggs := make([][]*metrics.Aggregate, len(groups))
	for gi := range groups {
		aggs[gi] = make([]*metrics.Aggregate, len(s.names))
		for ni := range s.names {
			agg := &metrics.Aggregate{}
			for trial := 0; trial < s.trials; trial++ {
				agg.AddTrial(results[(gi*s.trials+trial)*len(s.names)+ni])
			}
			aggs[gi][ni] = agg
		}
	}
	return aggs, nil
}

// DefaultUtils returns the paper's grid: 40 % to 100 % in 5 % steps.
func DefaultUtils() []float64 {
	var out []float64
	for u := 0.40; u < 1.001; u += 0.05 {
		out = append(out, float64(int(u*100+0.5))/100)
	}
	return out
}

// CaseStudyPoint is one (system, utilization) cell of Fig. 7.
type CaseStudyPoint struct {
	System string
	Util   float64
	Agg    *metrics.Aggregate
}

// CaseStudy runs the Fig. 7 sweep: for each target utilization the
// same generated workload is fed to every system, each repeated over
// the configured trials. The (utilization × trial × system) cells fan
// across cfg.Workers goroutines and are folded back in canonical
// (util, trial, system) order, so the returned points — and any table
// rendered from them — are byte-identical for every worker count.
func CaseStudy(cfg CaseStudyConfig) ([]CaseStudyPoint, error) {
	return caseStudy(cfg, Builders())
}

// caseStudy is CaseStudy over the given builders.
func caseStudy(cfg CaseStudyConfig, builders map[string]system.Builder) ([]CaseStudyPoint, error) {
	if cfg.VMs <= 0 {
		return nil, fmt.Errorf("experiments: need VMs > 0")
	}
	if cfg.Utils == nil {
		cfg.Utils = DefaultUtils()
	}
	if cfg.Trials <= 0 {
		cfg.Trials = 5
	}
	if cfg.HyperPeriods <= 0 {
		cfg.HyperPeriods = 6
	}
	names := cfg.Systems
	if names == nil {
		names = SystemNames()
	}
	groups := make([]sweepGroup, len(cfg.Utils))
	for i, util := range cfg.Utils {
		groups[i] = sweepGroup{util: util, where: fmt.Sprintf("at U=%.2f", util)}
	}
	aggs, err := sweep{
		vms:          cfg.VMs,
		trials:       cfg.Trials,
		hyperPeriods: cfg.HyperPeriods,
		seed:         cfg.Seed,
		names:        names,
		workers:      cfg.Workers,
		metrics:      cfg.Metrics,
	}.run(builders, groups)
	if err != nil {
		return nil, err
	}
	var out []CaseStudyPoint
	for ui, util := range cfg.Utils {
		for ni, name := range names {
			out = append(out, CaseStudyPoint{System: name, Util: util, Agg: aggs[ui][ni]})
		}
	}
	return out, nil
}

// RenderCaseStudy prints Fig. 7's two panels for one VM group: the
// success-ratio series (7a/7b) and the throughput series (7c).
func RenderCaseStudy(points []CaseStudyPoint, vms int) string {
	type keyT struct {
		sys  string
		util float64
	}
	cells := map[keyT]*metrics.Aggregate{}
	utilSet := map[float64]bool{}
	sysSet := map[string]bool{}
	for _, p := range points {
		cells[keyT{p.System, p.Util}] = p.Agg
		utilSet[p.Util] = true
		sysSet[p.System] = true
	}
	var utils []float64
	for u := range utilSet {
		utils = append(utils, u)
	}
	sort.Float64s(utils)
	var names []string
	for _, n := range SystemNames() {
		if sysSet[n] {
			names = append(names, n)
		}
	}
	var b strings.Builder
	fmt.Fprintf(&b, "Fig. 7 — success ratio (%%), %d VMs\n", vms)
	fmt.Fprintf(&b, "%-14s", "util")
	for _, n := range names {
		fmt.Fprintf(&b, " %13s", n)
	}
	b.WriteByte('\n')
	for _, u := range utils {
		fmt.Fprintf(&b, "%-14.2f", u)
		for _, n := range names {
			if agg := cells[keyT{n, u}]; agg != nil {
				fmt.Fprintf(&b, " %12.1f%%", 100*agg.SuccessRatio())
			} else {
				fmt.Fprintf(&b, " %13s", "-")
			}
		}
		b.WriteByte('\n')
	}
	fmt.Fprintf(&b, "\nFig. 7(c) — I/O throughput (MB/s), %d VMs\n", vms)
	fmt.Fprintf(&b, "%-14s", "util")
	for _, n := range names {
		fmt.Fprintf(&b, " %13s", n)
	}
	b.WriteByte('\n')
	for _, u := range utils {
		fmt.Fprintf(&b, "%-14.2f", u)
		for _, n := range names {
			if agg := cells[keyT{n, u}]; agg != nil {
				fmt.Fprintf(&b, " %13.3f", agg.Throughput.Mean())
			} else {
				fmt.Fprintf(&b, " %13s", "-")
			}
		}
		b.WriteByte('\n')
	}
	return b.String()
}

// RenderCaseStudyQuantiles renders the merged cross-trial response
// and tardiness distributions of a case-study sweep, one line per
// (system, util) cell — the opt-in `-quantiles` companion to the
// Fig. 7 tables (which stay byte-identical across metrics modes). In
// exact mode the lines are exact; in stream mode they come from the
// per-cell merged KLL folds at the sketch's ε.
func RenderCaseStudyQuantiles(points []CaseStudyPoint, vms int) string {
	type keyT struct {
		sys  string
		util float64
	}
	cells := map[keyT]*metrics.Aggregate{}
	utilSet := map[float64]bool{}
	sysSet := map[string]bool{}
	for _, p := range points {
		cells[keyT{p.System, p.Util}] = p.Agg
		utilSet[p.Util] = true
		sysSet[p.System] = true
	}
	var utils []float64
	for u := range utilSet {
		utils = append(utils, u)
	}
	sort.Float64s(utils)
	var b strings.Builder
	fmt.Fprintf(&b, "Fig. 7 companion — merged cross-trial response-time quantiles (slots), %d VMs\n", vms)
	for _, n := range SystemNames() {
		if !sysSet[n] {
			continue
		}
		fmt.Fprintf(&b, "%s\n", n)
		for _, u := range utils {
			agg := cells[keyT{n, u}]
			if agg == nil {
				continue
			}
			fmt.Fprintf(&b, "  util %.2f  response:  %s\n", u, agg.Response.String())
			fmt.Fprintf(&b, "            tardiness: %s\n", agg.Tardiness.String())
		}
	}
	return b.String()
}

// RenderTable1 prints Table I.
func RenderTable1() (string, error) {
	rows, err := hw.Table1()
	if err != nil {
		return "", err
	}
	var b strings.Builder
	fmt.Fprintf(&b, "Table I — hardware overhead (implemented on FPGA)\n")
	fmt.Fprintf(&b, "%-12s %8s %10s %5s %9s %11s\n", "", "LUTs", "Registers", "DSP", "RAM (KB)", "Power (mW)")
	for _, r := range rows {
		fmt.Fprintf(&b, "%-12s %8d %10d %5d %9d %11.0f\n",
			r.Name, r.Res.LUTs, r.Res.Registers, r.Res.DSPs, r.Res.RAMKB, r.Res.PowerMW)
	}
	return b.String(), nil
}

// Fig8Point is one η sample of the scalability study.
type Fig8Point struct {
	Eta         int
	VMs         int
	LegacyArea  float64
	GuardArea   float64
	LegacyPower float64
	GuardPower  float64
	LegacyFmax  float64
	GuardFmax   float64
}

// Fig8 sweeps the scaling factor η over [0, maxEta].
func Fig8(maxEta int) ([]Fig8Point, error) {
	if maxEta < 0 {
		return nil, fmt.Errorf("experiments: negative maxEta")
	}
	var out []Fig8Point
	for eta := 0; eta <= maxEta; eta++ {
		p := Fig8Point{Eta: eta, VMs: 1 << eta}
		var err error
		if p.LegacyArea, err = hw.NormalizedArea(false, eta); err != nil {
			return nil, err
		}
		if p.GuardArea, err = hw.NormalizedArea(true, eta); err != nil {
			return nil, err
		}
		if p.LegacyPower, err = hw.SystemPowerMW(false, eta); err != nil {
			return nil, err
		}
		if p.GuardPower, err = hw.SystemPowerMW(true, eta); err != nil {
			return nil, err
		}
		if p.LegacyFmax, err = hw.MaxFrequencyMHz(false, eta); err != nil {
			return nil, err
		}
		if p.GuardFmax, err = hw.MaxFrequencyMHz(true, eta); err != nil {
			return nil, err
		}
		out = append(out, p)
	}
	return out, nil
}

// RenderFig8 prints the three scalability panels.
func RenderFig8(points []Fig8Point) string {
	var b strings.Builder
	fmt.Fprintf(&b, "Fig. 8 — scalability over η (VMs = 2^η)\n")
	fmt.Fprintf(&b, "%-4s %-5s | %-10s %-10s %-7s | %-11s %-11s | %-10s %-10s\n",
		"η", "VMs", "area(leg)", "area(iog)", "over%", "power(leg)", "power(iog)", "fmax(leg)", "fmax(iog)")
	for _, p := range points {
		over := 0.0
		if p.LegacyArea > 0 {
			over = (p.GuardArea - p.LegacyArea) / p.LegacyArea * 100
		}
		fmt.Fprintf(&b, "%-4d %-5d | %-10.4f %-10.4f %-7.1f | %-11.0f %-11.0f | %-10.1f %-10.1f\n",
			p.Eta, p.VMs, p.LegacyArea, p.GuardArea, over,
			p.LegacyPower, p.GuardPower, p.LegacyFmax, p.GuardFmax)
	}
	return b.String()
}

// ResponseProfile runs every system once on an identical workload and
// returns the response-time histogram of each — the distributional
// view behind Obs. 3's "less experimental variance" claim: I/O-GUARD's
// mass sits in tight bands while the FIFO baselines grow heavy tails.
// The histogram is filled by a Collector.Observe sink while the trial
// runs, so it works identically in both metrics modes.
func ResponseProfile(vms int, util float64, seed int64) (map[string]*metrics.Histogram, error) {
	ts, err := workload.Generate(workload.Config{VMs: vms, TargetUtil: util, Seed: seed})
	if err != nil {
		return nil, err
	}
	out := map[string]*metrics.Histogram{}
	for name, build := range Builders() {
		h, err := metrics.NewHistogram(0, 4000, 16)
		if err != nil {
			return nil, err
		}
		profiled := func(tr system.Trial, col *system.Collector) (system.System, error) {
			col.Observe(func(j *task.Job, at slot.Time) { h.Add(float64(at - j.Release)) })
			return build(tr, col)
		}
		if _, err := system.Run(profiled, system.Trial{
			VMs: vms, Tasks: ts, Horizon: ts.Hyperperiod() * 4, Seed: seed,
		}); err != nil {
			return nil, err
		}
		out[name] = h
	}
	return out, nil
}

// RenderResponseProfile prints each system's histogram.
func RenderResponseProfile(profiles map[string]*metrics.Histogram) string {
	var b strings.Builder
	for _, name := range SystemNames() {
		h, ok := profiles[name]
		if !ok {
			continue
		}
		fmt.Fprintf(&b, "%s — response time distribution (slots, n=%d)\n", name, h.N())
		b.WriteString(h.Render(48))
		b.WriteByte('\n')
	}
	return b.String()
}

// PreloadPoint is one cell of the preload-fraction sweep.
type PreloadPoint struct {
	Frac float64
	Agg  *metrics.Aggregate
}

// preloadSeed derives the per-(fraction, trial) seed. Each fraction
// mixes in its own component (scaled by a prime well clear of the
// trial stride) so different fractions don't silently reuse identical
// workload realizations.
func preloadSeed(base int64, trial int, frac float64) int64 {
	return base + int64(trial)*7919 + int64(math.Round(frac*100))*104729
}

// PreloadSweep quantifies Obs. 3's mechanism directly: at a fixed
// target utilization, sweep the fraction of tasks pre-loaded into the
// P-channel from 0 % to 100 % and measure the success ratio. More
// pre-loading → more table-guaranteed tasks → higher success under
// overload. The (fraction × trial) cells fan across `workers`
// goroutines (≤0 = GOMAXPROCS) with a deterministic fold.
func PreloadSweep(vms int, util float64, fracs []float64, trials int, seed int64, workers int) ([]PreloadPoint, error) {
	if fracs == nil {
		fracs = []float64{0, 0.2, 0.4, 0.6, 0.8, 1.0}
	}
	if trials <= 0 {
		trials = 5
	}
	cells := make([]system.Cell, 0, len(fracs)*trials)
	for _, frac := range fracs {
		for trial := 0; trial < trials; trial++ {
			s := preloadSeed(seed, trial, frac)
			ts, err := workload.Generate(workload.Config{VMs: vms, TargetUtil: util, Seed: s})
			if err != nil {
				return nil, err
			}
			cells = append(cells, system.Cell{Build: IOGuardBuilder(frac), Trial: system.Trial{
				VMs: vms, Tasks: ts, Horizon: ts.Hyperperiod() * 6, Seed: s,
			}})
		}
	}
	results, err := system.RunCells(cells, workers)
	if err != nil {
		return nil, err
	}
	var out []PreloadPoint
	for fi, frac := range fracs {
		agg := &metrics.Aggregate{}
		for trial := 0; trial < trials; trial++ {
			agg.AddTrial(results[fi*trials+trial])
		}
		out = append(out, PreloadPoint{Frac: frac, Agg: agg})
	}
	return out, nil
}

// RenderPreloadSweep prints the sweep as a table.
func RenderPreloadSweep(points []PreloadPoint, vms int, util float64) string {
	var b strings.Builder
	fmt.Fprintf(&b, "Pre-load fraction sweep — %d VMs, target utilization %.0f%%\n", vms, util*100)
	fmt.Fprintf(&b, "%-10s %10s %16s %14s\n", "preload", "success", "throughput MB/s", "misses/trial")
	for _, p := range points {
		fmt.Fprintf(&b, "%-10.0f %9.1f%% %16.3f %14.1f\n",
			p.Frac*100, 100*p.Agg.SuccessRatio(), p.Agg.Throughput.Mean(), p.Agg.Misses.Mean())
	}
	return b.String()
}

// AblationPoint compares R-channel scheduler configurations at one
// utilization (beyond the paper: quantifies the design choices of
// Sec. III-A called out in DESIGN.md).
type AblationPoint struct {
	Config string
	Agg    *metrics.Aggregate
}

// SchedulerAblation compares three variants of the I/O-GUARD
// configuration (ioguardConfig) at a given utilization: "direct-edf"
// (40% of the tasks pre-loaded into the slot table),
// "direct-edf+reclaim" (the same, plus the R-channel reclaiming idle
// table slots) and "no-preload" (every task on the R-channel). The
// trials of each configuration run on `workers` goroutines (≤0 =
// GOMAXPROCS).
func SchedulerAblation(vms int, util float64, trials int, seed int64, workers int) ([]AblationPoint, error) {
	ts, err := workload.Generate(workload.Config{VMs: vms, TargetUtil: util, Seed: seed})
	if err != nil {
		return nil, err
	}
	horizon := ts.Hyperperiod() * 3
	base := ioguardConfig(vms, 0.4)
	reclaim, noPreload := base, base
	reclaim.WorkConserving = true
	noPreload.PreloadFrac = 0
	configs := []struct {
		name string
		cfg  core.Config
	}{
		{"direct-edf", base},
		{"direct-edf+reclaim", reclaim},
		{"no-preload", noPreload},
	}
	var out []AblationPoint
	for _, c := range configs {
		cc := c.cfg
		build := func(tr system.Trial, col *system.Collector) (system.System, error) {
			return core.New(cc, tr.Tasks, col)
		}
		agg, err := system.ParallelSweep(build, system.Trial{VMs: vms, Tasks: ts, Horizon: horizon, Seed: seed}, trials, workers)
		if err != nil {
			return nil, err
		}
		out = append(out, AblationPoint{Config: c.name, Agg: agg})
	}
	return out, nil
}
