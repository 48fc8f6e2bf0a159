// The trial request: one configuration — system spec, workload shape,
// horizon, seeds, trial count, collector mode and fault plan — written
// once and filled two ways. ioguard-sim binds its flags into it and the
// trial server decodes its JSON body into it; both resolve it through
// Resolve, which is what makes a server-executed trial byte-identical
// to the CLI at the same parameters.

package experiments

import (
	"fmt"

	"ioguard/internal/faults"
	"ioguard/internal/system"
	"ioguard/internal/task"
	"ioguard/internal/workload"
)

// Request is one trial configuration, repeated Trials times. No wire
// field is omitempty, so a marshalled request decodes back over
// DefaultRequest to the same request, zero values included.
type Request struct {
	// System is a spec spelling resolved by BuilderFor.
	System string `json:"system"`
	// VMs is the virtual-machine count.
	VMs int `json:"vms"`
	// Util is the per-device target utilization (case family only).
	Util float64 `json:"util"`
	// Hyperperiods is the horizon in workload hyper-periods.
	Hyperperiods int `json:"hyperperiods"`
	// Seed seeds both the workload generator and the release jitter.
	// With Trials > 1 the per-trial seeds follow system.SweepCells'
	// SplitMix64 schedule from this base.
	Seed int64 `json:"seed"`
	// Trials repeats the configuration across independent seeds.
	Trials int `json:"trials"`
	// Metrics is the collector-mode spelling (system.ParseMetricsMode).
	Metrics string `json:"metrics"`
	// Workload is the task-set family: case (the automotive case study)
	// or avionics (ARINC-653-style partitions; Util is ignored). It is
	// not on the wire: the server always runs the case family.
	Workload string `json:"-"`
	// Plan is the fault plan injected into every trial; the zero value
	// runs clean.
	faults.Plan
}

// DefaultRequest is the one defaults table, shared by ioguard-sim's
// flags and the server's absent fields.
func DefaultRequest() Request {
	return Request{
		System:       "ioguard-70",
		Workload:     "case",
		VMs:          4,
		Util:         0.7,
		Hyperperiods: 3,
		Seed:         1,
		Trials:       1,
		Metrics:      system.MetricsExact.String(),
	}
}

// Resolved is a validated request: the builder and the base trial its
// cells are laid out from.
type Resolved struct {
	Request
	Build system.Builder
	Trial system.Trial
}

// Resolve validates the request, draws its task set and computes the
// horizon. It runs no trial.
func (r Request) Resolve() (*Resolved, error) {
	if r.Trials < 1 {
		return nil, fmt.Errorf("trials must be at least 1 (got %d)", r.Trials)
	}
	build, err := BuilderFor(r.System)
	if err != nil {
		return nil, err
	}
	mode, err := system.ParseMetricsMode(r.Metrics)
	if err != nil {
		return nil, err
	}
	if err := r.Plan.Validate(); err != nil {
		return nil, err
	}
	var ts task.Set
	switch r.Workload {
	case "case":
		ts, err = workload.Generate(workload.Config{VMs: r.VMs, TargetUtil: r.Util, Seed: r.Seed})
	case "avionics":
		ts, err = workload.GenerateAvionics(workload.AvionicsConfig{VMs: r.VMs, Seed: r.Seed})
	default:
		err = fmt.Errorf("unknown workload family %q (case|avionics)", r.Workload)
	}
	if err != nil {
		return nil, err
	}
	horizon, err := ts.Horizon(r.Hyperperiods)
	if err != nil {
		return nil, err
	}
	return &Resolved{
		Request: r,
		Build:   build,
		Trial: system.Trial{
			VMs:     r.VMs,
			Tasks:   ts,
			Horizon: horizon,
			Seed:    r.Seed,
			Metrics: mode,
			Faults:  r.Plan,
		},
	}, nil
}

// Cells lays the request out as runner cells: a single trial is one
// cell at the base seed; a sweep follows system.SweepCells' seed
// schedule, the one ParallelSweep runs.
func (r *Resolved) Cells() []system.Cell {
	if r.Trials == 1 {
		return []system.Cell{{Build: r.Build, Trial: r.Trial}}
	}
	return system.SweepCells(r.Build, r.Trial, r.Trials)
}
