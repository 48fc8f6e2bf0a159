// Sweep-sketch capture: testing.B benchmark bodies cannot return
// data, so the nightly case-study benchmarks deposit their merged
// cross-trial recorders in this package-level registry and
// cmd/ioguard-bench drains it after the suite runs, persisting the
// sketches into BENCH_sim.json's trajectory (results.SweepSketch).
package benchsuite

import (
	"sync"

	"ioguard/internal/experiments"
	"ioguard/internal/metrics"
	"ioguard/internal/results"
)

var (
	sketchMu    sync.Mutex
	sketchByKey map[string]results.SweepSketch
	sketchOrder []string
)

// recordSweepSketches folds one completed case-study sweep into the
// registry: per system, the response/tardiness DistFolds of every
// utilization point merge into one sweep-wide recorder pair. Repeat
// runs of the same sweep (b.N > 1) replace their previous entry, so
// the registry holds exactly one sketch per (sweep, system).
func recordSweepSketches(sweep string, points []experiments.CaseStudyPoint) {
	type acc struct {
		resp, tard   metrics.DistFold
		trials, succ int
		tputWeighted float64
		mergeFailed  bool
	}
	byName := map[string]*acc{}
	var order []string
	for i := range points {
		p := &points[i]
		a, ok := byName[p.System]
		if !ok {
			a = &acc{}
			byName[p.System] = a
			order = append(order, p.System)
		}
		if err := a.resp.Merge(&p.Agg.Response); err != nil {
			a.mergeFailed = true
		}
		if err := a.tard.Merge(&p.Agg.Tardiness); err != nil {
			a.mergeFailed = true
		}
		a.trials += p.Agg.Trials
		a.succ += p.Agg.Successes
		a.tputWeighted += p.Agg.Throughput.Mean() * float64(p.Agg.Trials)
	}
	sketchMu.Lock()
	defer sketchMu.Unlock()
	if sketchByKey == nil {
		sketchByKey = map[string]results.SweepSketch{}
	}
	for _, name := range order {
		a := byName[name]
		if a.mergeFailed || !a.resp.Resolved() || a.resp.Sketch() == nil {
			// Exact sweeps resolve but hold only the in-memory buffer
			// (never persisted); only the KLL fold ships.
			continue
		}
		sk := results.SweepSketch{
			Sweep:     sweep,
			System:    name,
			Trials:    a.trials,
			Response:  a.resp.Sketch(),
			Tardiness: a.tard.Sketch(),
		}
		if a.trials > 0 {
			sk.SuccessRatio = float64(a.succ) / float64(a.trials)
			sk.ThroughputMean = a.tputWeighted / float64(a.trials)
		}
		key := sweep + "/" + name
		if _, seen := sketchByKey[key]; !seen {
			sketchOrder = append(sketchOrder, key)
		}
		sketchByKey[key] = sk
	}
}

// TakeSweepSketches drains the registry in first-recorded order.
func TakeSweepSketches() []results.SweepSketch {
	sketchMu.Lock()
	defer sketchMu.Unlock()
	out := make([]results.SweepSketch, 0, len(sketchOrder))
	for _, key := range sketchOrder {
		out = append(out, sketchByKey[key])
	}
	sketchByKey = nil
	sketchOrder = nil
	return out
}
