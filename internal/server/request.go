// Request and response shapes of the trial service's JSON API, plus
// the translation from a validated request to the executable cells of
// the deterministic runner. A request names the same knobs as the
// ioguard-sim command line (system spec, VM count, target utilization,
// horizon, seed, trial count) and resolves through the same shared
// helpers — experiments.BuilderFor for semantics, workload.Generate
// for the task set, system.SweepCells for the sweep seed schedule —
// which is what makes a server-executed trial byte-identical to the
// CLI at the same seed.
package server

import (
	"encoding/json"
	"fmt"

	"ioguard/internal/experiments"
	"ioguard/internal/faults"
	"ioguard/internal/metrics"
	"ioguard/internal/slot"
	"ioguard/internal/system"
	"ioguard/internal/workload"
)

// TrialRequest is the body of POST /v1/trials and POST /v1/sweeps.
// Zero-valued fields take the same defaults as the CLI flags.
type TrialRequest struct {
	// System is the spec spelling resolved by experiments.BuilderFor:
	// legacy | rtxen | bluevisor | ioguard-<0..100>.
	System string `json:"system"`
	// VMs is the virtual-machine count (default 4).
	VMs int `json:"vms,omitempty"`
	// Util is the per-device target utilization (default 0.7).
	Util float64 `json:"util,omitempty"`
	// Hyperperiods is the horizon in workload hyper-periods (default 3).
	Hyperperiods int `json:"hyperperiods,omitempty"`
	// Seed seeds both the workload generator and the release jitter
	// (default 1). With Trials > 1 the per-trial seeds follow
	// ParallelSweep's SplitMix64 schedule from this base.
	Seed int64 `json:"seed,omitempty"`
	// Trials repeats the configuration across independent seeds
	// (default 1). POST /v1/trials streams every trial's result;
	// POST /v1/sweeps folds them into an aggregate.
	Trials int `json:"trials,omitempty"`
	// Metrics selects the collector mode: "exact" (default, buffered
	// exact percentiles) or "stream" (bounded memory, mergeable KLL —
	// sweep aggregates carry true cross-trial quantiles).
	Metrics string `json:"metrics,omitempty"`
	// The fault_* sextet mirrors the -fault-* CLI flags: a validated
	// faults.Plan injected into every trial of the request. All zero
	// (the default) runs clean. A bad plan is a client error (400).
	FaultSeed     int64   `json:"fault_seed,omitempty"`
	FaultJitter   int     `json:"fault_jitter,omitempty"`
	FaultDrop     float64 `json:"fault_drop,omitempty"`
	FaultDup      float64 `json:"fault_dup,omitempty"`
	FaultDelay    float64 `json:"fault_delay,omitempty"`
	FaultDelayMax int     `json:"fault_delay_max,omitempty"`
}

// normalized is a validated request: the resolved builder, generated
// task set and base trial, ready to be laid out as cells.
type normalized struct {
	req    TrialRequest
	build  system.Builder
	trial  system.Trial
	trials int
}

// maxTrials caps a request's trial count before any cell is laid out:
// 10× the paper's 1000 repetitions per configuration.
const maxTrials = 10_000

// normalize applies CLI defaults and validates the request into an
// executable form. Validation errors are client errors (HTTP 400).
func normalize(req TrialRequest) (*normalized, error) {
	if req.System == "" {
		req.System = "ioguard-70"
	}
	if req.VMs == 0 {
		req.VMs = 4
	}
	if req.Util == 0 {
		req.Util = 0.7
	}
	if req.Hyperperiods == 0 {
		req.Hyperperiods = 3
	}
	if req.Seed == 0 {
		req.Seed = 1
	}
	if req.Trials == 0 {
		req.Trials = 1
	}
	if req.Trials < 0 {
		return nil, fmt.Errorf("trials must be positive (got %d)", req.Trials)
	}
	if req.Trials > maxTrials {
		return nil, fmt.Errorf("trials must be at most %d (got %d)", maxTrials, req.Trials)
	}
	plan := faults.Plan{
		Seed:          req.FaultSeed,
		ReleaseJitter: slot.Time(req.FaultJitter),
		DropProb:      req.FaultDrop,
		DupProb:       req.FaultDup,
		DelayProb:     req.FaultDelay,
		DelayMax:      slot.Time(req.FaultDelayMax),
	}
	if err := plan.Validate(); err != nil {
		return nil, err
	}
	build, err := experiments.BuilderFor(req.System)
	if err != nil {
		return nil, err
	}
	mode, err := system.ParseMetricsMode(req.Metrics)
	if err != nil {
		return nil, err
	}
	ts, err := workload.Generate(workload.Config{VMs: req.VMs, TargetUtil: req.Util, Seed: req.Seed})
	if err != nil {
		return nil, err
	}
	horizon, err := ts.Horizon(req.Hyperperiods)
	if err != nil {
		return nil, err
	}
	return &normalized{
		req:   req,
		build: build,
		trial: system.Trial{
			VMs:     req.VMs,
			Tasks:   ts,
			Horizon: horizon,
			Seed:    req.Seed,
			Metrics: mode,
			Faults:  plan,
		},
		trials: req.Trials,
	}, nil
}

// cells lays the request out as runner cells: a single trial is one
// cell at the base seed (matching ioguard-sim's single-trial path); a
// sweep follows system.SweepCells' seed schedule exactly.
func (n *normalized) cells() []system.Cell {
	if n.trials == 1 {
		return []system.Cell{{Build: n.build, Trial: n.trial}}
	}
	return system.SweepCells(n.build, n.trial, n.trials)
}

// TrialResponse is one NDJSON line of a streamed trial execution.
type TrialResponse struct {
	System string `json:"system"`
	Index  int    `json:"index"`
	Seed   int64  `json:"seed"`

	Completed      int64   `json:"completed"`
	BytesServed    int64   `json:"bytes_served"`
	CriticalMisses int64   `json:"critical_misses"`
	OtherMisses    int64   `json:"other_misses"`
	Unfinished     int64   `json:"unfinished"`
	Dropped        int64   `json:"dropped"`
	Success        bool    `json:"success"`
	ThroughputMBps float64 `json:"throughput_mbps"`
	ResponseMean   float64 `json:"response_mean_slots"`
	ResponseP99    float64 `json:"response_p99_slots"`

	// Rendered is the trial's metrics block exactly as ioguard-sim
	// prints it (experiments.RenderTrial) — the byte-identical contract.
	Rendered string `json:"rendered"`

	// Timing is the server-side latency breakdown for this trial.
	Timing Timing `json:"timing"`
}

// Timing is the per-trial server latency breakdown recorded by the
// batcher.
type Timing struct {
	// QueueWaitMs is the time from admission to batch execution start.
	QueueWaitMs float64 `json:"queue_wait_ms"`
	// ExecMs is the wall-clock execution time of the batch that carried
	// this trial.
	ExecMs float64 `json:"exec_ms"`
	// BatchSize is how many trials the carrying batch coalesced.
	BatchSize int `json:"batch_size"`
}

// toResponse renders one finished trial.
func toResponse(sys string, index int, seed int64, res *metrics.TrialResult, tm Timing) TrialResponse {
	return TrialResponse{
		System:         sys,
		Index:          index,
		Seed:           seed,
		Completed:      res.Completed,
		BytesServed:    res.BytesServed,
		CriticalMisses: res.CriticalMisses,
		OtherMisses:    res.OtherMisses,
		Unfinished:     res.Unfinished,
		Dropped:        res.Dropped,
		Success:        res.Success(),
		ThroughputMBps: res.ThroughputMBps(),
		ResponseMean:   res.Response.Mean(),
		ResponseP99:    res.Response.Percentile(99),
		Rendered:       experiments.RenderTrial(sys, res),
		Timing:         tm,
	}
}

// SweepStatus is the body of GET /v1/sweeps/{id}: the job's lifecycle
// state and, once done, the rendered aggregate.
type SweepStatus struct {
	ID        string          `json:"id"`
	State     string          `json:"state"` // queued | running | done | failed
	System    string          `json:"system"`
	Trials    int             `json:"trials"`
	Completed int             `json:"completed"`
	Error     string          `json:"error,omitempty"`
	Aggregate *SweepAggregate `json:"aggregate,omitempty"`
}

// DistSummary flattens one merged cross-trial distribution
// (metrics.DistFold) for the sweep payload. Epsilon is the sketch's
// rank-error bound (0 means the fold was exact).
type DistSummary struct {
	N       int     `json:"n"`
	Mean    float64 `json:"mean"`
	P50     float64 `json:"p50"`
	P90     float64 `json:"p90"`
	P99     float64 `json:"p99"`
	Max     float64 `json:"max"`
	Epsilon float64 `json:"epsilon,omitempty"`
}

// distSummary snapshots a fold, or nil when it is empty.
func distSummary(f *metrics.DistFold) *DistSummary {
	if f.N() == 0 {
		return nil
	}
	d := &DistSummary{
		N:    f.N(),
		Mean: f.Mean(),
		P50:  f.Quantile(0.50),
		P90:  f.Quantile(0.90),
		P99:  f.Quantile(0.99),
		Max:  f.Max(),
	}
	if sk := f.Sketch(); sk != nil {
		d.Epsilon = sk.Epsilon()
	}
	return d
}

// SweepAggregate summarizes a finished sweep.
type SweepAggregate struct {
	Trials         int     `json:"trials"`
	Successes      int     `json:"successes"`
	SuccessRatio   float64 `json:"success_ratio"`
	ThroughputMean float64 `json:"throughput_mean_mbps"`
	ThroughputSD   float64 `json:"throughput_sd_mbps"`
	MissesMean     float64 `json:"misses_mean"`
	MissesMax      float64 `json:"misses_max"`
	// Response/Tardiness summarize the merged cross-trial latency
	// distributions (slots). Present when any trial folded.
	Response  *DistSummary `json:"response,omitempty"`
	Tardiness *DistSummary `json:"tardiness,omitempty"`
	// ResponseSketch/TardinessSketch are the serialized merged KLL
	// recorders, included only on GET /v1/sweeps/{id}?sketch=1 for
	// streaming-mode sweeps — a client can decode them into
	// metrics.Streaming and keep merging across sweeps.
	ResponseSketch  json.RawMessage `json:"response_sketch,omitempty"`
	TardinessSketch json.RawMessage `json:"tardiness_sketch,omitempty"`
	// Rendered is the aggregate block exactly as ioguard-sim's
	// -trials N mode prints it (experiments.RenderAggregate).
	Rendered string `json:"rendered"`
}

func toAggregate(sys string, agg *metrics.Aggregate, withSketches bool) *SweepAggregate {
	sa := &SweepAggregate{
		Trials:         agg.Trials,
		Successes:      agg.Successes,
		SuccessRatio:   agg.SuccessRatio(),
		ThroughputMean: agg.Throughput.Mean(),
		ThroughputSD:   agg.Throughput.StdDev(),
		MissesMean:     agg.Misses.Mean(),
		MissesMax:      agg.Misses.Max(),
		Response:       distSummary(&agg.Response),
		Tardiness:      distSummary(&agg.Tardiness),
		Rendered:       experiments.RenderAggregate(sys, agg),
	}
	if withSketches {
		if sk := agg.Response.Sketch(); sk != nil {
			if raw, err := json.Marshal(sk); err == nil {
				sa.ResponseSketch = raw
			}
		}
		if sk := agg.Tardiness.Sketch(); sk != nil {
			if raw, err := json.Marshal(sk); err == nil {
				sa.TardinessSketch = raw
			}
		}
	}
	return sa
}
