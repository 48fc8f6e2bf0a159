package main

// The three in-process workloads — fig7a, avionics and robust — share
// one shape: a pass lays out a fixed list of trial cells from the
// seed, runs them on a pool of nproc goroutines through system.Run,
// and folds the results in cell order with Aggregate.AddTrial into the
// rendering a user would print. The timed phase repeats the pass.
//
// The pool mirrors system.RunCells (a private copy of each cell's task
// set, results indexed by cell) but times every system.Run call, which
// gives the per-trial latency percentiles and, in a traced pass, the
// wall time the layer split is taken against.

import (
	"crypto/sha256"
	"encoding/hex"
	"fmt"
	"math"
	"strings"
	"sync"
	"time"

	"ioguard/internal/experiments"
	"ioguard/internal/metrics"
	"ioguard/internal/system"
	"ioguard/internal/task"
	"ioguard/internal/workload"
)

// benchCell is one trial of a pass.
type benchCell struct {
	key    string // stable identity, the key of the recorded digests
	system string // case-study system name
	group  string // fault scenario (robust) or ""
	cell   system.Cell
}

// cellOut is one executed cell.
type cellOut struct {
	res  *metrics.TrialResult
	err  error
	wall time.Duration
	tt   *trialTrace // traced passes only
}

// runCell executes one cell the way system.RunCells does.
func runCell(bc benchCell, traced bool) cellOut {
	c := bc.cell
	c.Trial.Tasks = append(task.Set(nil), c.Trial.Tasks...)
	var tt *trialTrace
	if traced {
		tt = &trialTrace{system: bc.system}
		c.Build = tracedBuilder(c.Build, tt)
	}
	t0 := time.Now()
	res, err := system.Run(c.Build, c.Trial)
	return cellOut{res: res, err: err, wall: time.Since(t0), tt: tt}
}

// runPool executes cells on workers goroutines and returns the
// outcomes in cell order.
func runPool(cells []benchCell, workers int, traced bool) []cellOut {
	outs := make([]cellOut, len(cells))
	next := make(chan int)
	var wg sync.WaitGroup
	for w := 0; w < workers; w++ {
		wg.Add(1)
		go func() {
			defer wg.Done()
			for i := range next {
				outs[i] = runCell(cells[i], traced)
			}
		}()
	}
	for i := range cells {
		next <- i
	}
	close(next)
	wg.Wait()
	return outs
}

// digest identifies a trial's simulated outcome: its rendered metrics
// block (counts, misses, throughput, response, accuracy, faults) plus
// the release count and horizon.
func digest(name string, res *metrics.TrialResult) string {
	h := sha256.New()
	fmt.Fprintf(h, "%s\nreleased=%d horizon=%d\n", experiments.RenderTrial(name, res), res.Released, res.Horizon)
	return hex.EncodeToString(h.Sum(nil))[:16]
}

// sweepSpec defines one in-process workload.
type sweepSpec struct {
	name string
	// cells lays out a pass. Workloads whose user path generates task
	// sets per call (fig7a, robust) do so here, inside the pass.
	cells func() ([]benchCell, error)
	// fold aggregates a pass in cell order and renders it.
	fold func(cells []benchCell, res []*metrics.TrialResult) string
}

// passOut is one executed pass. Once digested, a pass drops its trial
// results, so memory does not grow with the number of passes.
type passOut struct {
	cells   []benchCell
	outs    []cellOut
	digests []string
	render  string
	// golden is the rendering of the avionics cell the CLI golden pins,
	// when the pass has it.
	golden string
	start  time.Time
	wall   time.Duration
	genNs  int64
	foldNs int64
	// slowdown is the host slowdown the monitor saw during the pass
	// (see hostspeed.go); 1 until set.
	slowdown float64
}

// digestAll fills p.digests and p.golden.
func (p *passOut) digestAll() {
	p.digests = make([]string, len(p.outs))
	for i, o := range p.outs {
		p.digests[i] = digest(p.cells[i].system, o.res)
		if p.cells[i].key == avionicsGoldenCell {
			p.golden = experiments.RenderTrial("ioguard-70", o.res)
		}
	}
}

// release drops the pass's trial results and traces.
func (p *passOut) release() {
	for i := range p.outs {
		p.outs[i].res = nil
		p.outs[i].tt = nil
	}
}

// corrected is the pass's wall time at nominal host speed.
func (p *passOut) corrected() time.Duration {
	return time.Duration(float64(p.wall) / p.slowdown)
}

func (p *passOut) horizon() float64 {
	var h float64
	for _, c := range p.cells {
		h += float64(c.cell.Trial.Horizon)
	}
	return h
}

// runPass executes one pass.
func runPass(spec *sweepSpec, workers int, traced bool) (*passOut, error) {
	t0 := time.Now()
	cells, err := spec.cells()
	if err != nil {
		return nil, err
	}
	t1 := time.Now()
	outs := runPool(cells, workers, traced)
	t2 := time.Now()
	res := make([]*metrics.TrialResult, len(outs))
	for i, o := range outs {
		if o.err != nil {
			return nil, fmt.Errorf("%s: cell %s: %w", spec.name, cells[i].key, o.err)
		}
		res[i] = o.res
	}
	render := spec.fold(cells, res)
	t3 := time.Now()
	return &passOut{
		cells: cells, outs: outs, render: render,
		start: t0, wall: t3.Sub(t0), slowdown: 1,
		genNs: int64(t1.Sub(t0)), foldNs: int64(t3.Sub(t2)),
	}, nil
}

// caseStudySeed is the per-(utilization, trial) seed of
// experiments.CaseStudy and experiments.Robustness, which the benchmark
// reproduces to lay out the same cells.
func caseStudySeed(base int64, trial int, util float64) int64 {
	return base + int64(trial)*7919 + int64(math.Round(util*100))
}

// committedSeed is the seed of the committed outputs. The fig7a and
// robust task sets are always generated from it; the run seed selects
// the release realization (each task's release phase) and the fault
// streams. Task sets drawn from other seeds differ in hyper-period, and
// with it in cost, by up to a quarter between seeds, which would bury
// a code change in the draw. At seed 1 the cells are exactly those of
// CaseStudy and Robustness.
const committedSeed = 1

// Case-study settings of the committed experiments_output.txt.
const (
	fig7aVMs          = 4
	fig7aTrials       = 10
	fig7aHyperPeriods = 6
)

// fig7aSpec is the Fig. 7 4-VM sweep: experiments.CaseStudy's cell
// layout (util-major, then trial, then system) and fold, with the
// committed task sets released under the run seed.
func fig7aSpec(seed int64) *sweepSpec {
	names := experiments.SystemNames()
	builders := experiments.Builders()
	utils := experiments.DefaultUtils()
	return &sweepSpec{
		name: "fig7a",
		cells: func() ([]benchCell, error) {
			cells := make([]benchCell, 0, len(utils)*fig7aTrials*len(names))
			for _, util := range utils {
				for trial := 0; trial < fig7aTrials; trial++ {
					s := caseStudySeed(seed, trial, util)
					ts, err := workload.Generate(workload.Config{VMs: fig7aVMs, TargetUtil: util, Seed: caseStudySeed(committedSeed, trial, util)})
					if err != nil {
						return nil, err
					}
					horizon := ts.Hyperperiod() * fig7aHyperPeriods
					for _, name := range names {
						cells = append(cells, benchCell{
							key:    fmt.Sprintf("u%.2f/t%d/%s", util, trial, name),
							system: name,
							cell: system.Cell{Build: builders[name], Trial: system.Trial{
								VMs: fig7aVMs, Tasks: ts, Horizon: horizon, Seed: s,
							}},
						})
					}
				}
			}
			return cells, nil
		},
		fold: func(cells []benchCell, res []*metrics.TrialResult) string {
			var points []experiments.CaseStudyPoint
			per := fig7aTrials * len(names)
			for ui, util := range utils {
				aggs := make([]*metrics.Aggregate, len(names))
				for si := range names {
					aggs[si] = &metrics.Aggregate{}
				}
				for i := ui * per; i < (ui+1)*per; i++ {
					aggs[i%len(names)].AddTrial(res[i])
				}
				for si, name := range names {
					points = append(points, experiments.CaseStudyPoint{System: name, Util: util, Agg: aggs[si]})
				}
			}
			return experiments.RenderCaseStudy(points, fig7aVMs)
		},
	}
}

// Robustness settings of the README's `-exp robust -trials 5 -util 0.8`
// example, at 3 hyper-periods.
const (
	robustVMs          = 4
	robustUtil         = 0.8
	robustTrials       = 5
	robustHyperPeriods = 3
)

// robustSpec is experiments.Robustness's cell layout (scenario-major,
// then trial, then system) and fold, with the committed task sets
// released and faulted under the run seed.
func robustSpec(seed int64) *sweepSpec {
	names := experiments.AllSystemNames()
	builders := experiments.Builders()
	scenarios := experiments.FaultScenarios(seed)
	return &sweepSpec{
		name: "robust",
		cells: func() ([]benchCell, error) {
			cells := make([]benchCell, 0, len(scenarios)*robustTrials*len(names))
			for _, sc := range scenarios {
				for trial := 0; trial < robustTrials; trial++ {
					s := caseStudySeed(seed, trial, robustUtil)
					ts, err := workload.Generate(workload.Config{VMs: robustVMs, TargetUtil: robustUtil, Seed: caseStudySeed(committedSeed, trial, robustUtil)})
					if err != nil {
						return nil, err
					}
					horizon := ts.Hyperperiod() * robustHyperPeriods
					for _, name := range names {
						cells = append(cells, benchCell{
							key:    fmt.Sprintf("%s/t%d/%s", sc.Name, trial, name),
							system: name,
							group:  sc.Name,
							cell: system.Cell{Build: builders[name], Trial: system.Trial{
								VMs: robustVMs, Tasks: ts, Horizon: horizon, Seed: s,
								Faults: sc.Plan, Accuracy: true,
							}},
						})
					}
				}
			}
			return cells, nil
		},
		fold: func(cells []benchCell, res []*metrics.TrialResult) string {
			var points []experiments.RobustnessPoint
			per := robustTrials * len(names)
			for si, sc := range scenarios {
				aggs := make([]*metrics.Aggregate, len(names))
				for ni := range names {
					aggs[ni] = &metrics.Aggregate{}
				}
				for i := si * per; i < (si+1)*per; i++ {
					aggs[i%len(names)].AddTrial(res[i])
				}
				for ni, name := range names {
					points = append(points, experiments.RobustnessPoint{Scenario: sc.Name, System: name, Agg: aggs[ni]})
				}
			}
			return experiments.RenderRobustness(points, robustVMs, robustUtil)
		},
	}
}

// Avionics settings: the ARINC-653 family of `ioguard-sim -workload
// avionics -vms 4 -hyperperiods 1`, run by every system over
// avionicsSeeds release seeds.
const (
	avionicsVMs   = 4
	avionicsSeeds = 16
)

// subSeed derives the k-th input seed of a run: the run seed itself
// first (so seed 1 contains the avionics golden cell), then
// SplitMix64-mixed successors.
func subSeed(seed int64, k int) int64 {
	if k == 0 {
		return seed
	}
	z := uint64(seed) + uint64(k)*0x9E3779B97F4A7C15
	z = (z ^ (z >> 30)) * 0xBF58476D1CE4E5B9
	z = (z ^ (z >> 27)) * 0x94D049BB133111EB
	return int64((z ^ (z >> 31)) >> 1)
}

// avionicsSpec generates its task sets up front (they are benchmark
// inputs, built in set-up) and hands out the same cells every pass.
func avionicsSpec(seed int64) (*sweepSpec, error) {
	names := experiments.AllSystemNames()
	builders := experiments.Builders()
	cells := make([]benchCell, 0, avionicsSeeds*len(names))
	for k := 0; k < avionicsSeeds; k++ {
		s := subSeed(seed, k)
		ts, err := workload.GenerateAvionics(workload.AvionicsConfig{VMs: avionicsVMs, Seed: s})
		if err != nil {
			return nil, err
		}
		horizon := ts.Hyperperiod()
		for _, name := range names {
			cells = append(cells, benchCell{
				key:    fmt.Sprintf("r%d/%s", k, name),
				system: name,
				cell: system.Cell{Build: builders[name], Trial: system.Trial{
					VMs: avionicsVMs, Tasks: ts, Horizon: horizon, Seed: s,
				}},
			})
		}
	}
	return &sweepSpec{
		name:  "avionics",
		cells: func() ([]benchCell, error) { return cells, nil },
		fold: func(cells []benchCell, res []*metrics.TrialResult) string {
			aggs := make([]*metrics.Aggregate, len(names))
			for i := range names {
				aggs[i] = &metrics.Aggregate{}
			}
			for i, r := range res {
				aggs[i%len(names)].AddTrial(r)
			}
			var b strings.Builder
			for i, name := range names {
				b.WriteString(experiments.RenderAggregate(name, aggs[i]))
			}
			return b.String()
		},
	}, nil
}

// gateStride is the sampling stride of the sequential re-run that
// checks a seed with no recorded digests: every gateStride-th cell of
// the first pass runs again alone, through system.Run on one
// goroutine, and must reproduce the pooled digest.
const gateStride = 8

// gateReport is the outcome of checking a run's passes.
type gateReport struct {
	failed  int64
	checked string // what the reference was
	notes   []string
}

func (g *gateReport) fail(format string, args ...any) {
	g.failed++
	if len(g.notes) < 8 {
		g.notes = append(g.notes, fmt.Sprintf(format, args...))
	}
}

// gateSweep checks every cell of every pass (a pass with an errored
// cell never returns) against a reference digest: the digests recorded at the seed commit when this seed has
// them, otherwise the first pass's, with a sampled sequential re-run
// confirming those. A mismatched or errored cell is one failed
// operation.
func gateSweep(spec *sweepSpec, passes []*passOut, recorded map[string]string, stride int) *gateReport {
	g := &gateReport{}
	first := passes[0]
	ref := recorded
	if ref != nil {
		g.checked = fmt.Sprintf("digests recorded at the seed commit (%d cells)", len(ref))
	} else {
		ref = make(map[string]string, len(first.cells))
		for i, c := range first.cells {
			ref[c.key] = first.digests[i]
		}
		n := 0
		for i := 0; i < len(first.cells); i += stride {
			c := first.cells[i]
			one := runCell(c, false)
			n++
			if one.err != nil {
				g.fail("%s: sequential re-run of %s: %v", spec.name, c.key, one.err)
				continue
			}
			if d := digest(c.system, one.res); d != ref[c.key] {
				g.fail("%s: %s differs between workers=1 and the pool", spec.name, c.key)
				ref[c.key] = d
			}
		}
		g.checked = fmt.Sprintf("workers=1 re-run of %d sampled cells (stride %d), then pass-to-pass", n, stride)
	}
	for _, p := range passes {
		for i, c := range p.cells {
			switch want, ok := ref[c.key]; {
			case !ok:
				g.fail("%s: %s has no reference digest", spec.name, c.key)
			case p.digests[i] != want:
				g.fail("%s: %s digest mismatch", spec.name, c.key)
			}
		}
		if p.render != first.render {
			g.fail("%s: rendering differs between passes", spec.name)
		}
	}
	return g
}

// avionicsGoldenCell is the key of the cell pinned by the CLI golden.
const avionicsGoldenCell = "r0/I/O-GUARD-70"
