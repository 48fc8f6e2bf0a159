// Request decoding, admission caps and response shapes of the trial
// service's JSON API. A request body is an experiments.Request — the
// same configuration ioguard-sim's flags fill — decoded over
// experiments.DefaultRequest and resolved through
// experiments.Request.Resolve, which is what makes a server-executed
// trial byte-identical to the CLI at the same parameters.
package server

import (
	"encoding/json"
	"errors"
	"fmt"
	"io"

	"ioguard/internal/experiments"
	"ioguard/internal/metrics"
	"ioguard/internal/slot"
)

// Request size caps, checked before any cell is laid out. maxTrials is
// 10× the paper's 1000 repetitions per configuration, and maxHorizon
// 10× its 100 s (10^8-slot) trial; maxSlots, the bound on trials ×
// horizon, is the paper's own per-configuration budget of 1000 trials
// × 100 s. maxVMs is the evaluated platform's 16 cores × at most 3 VMs
// each (Sec. V); every VM costs a pool per device manager.
const (
	maxTrials            = 10_000
	maxHorizon slot.Time = 1_000_000_000
	maxSlots   slot.Time = 100_000_000_000
	maxVMs               = 48
)

// decode reads a request body over the defaults: an absent field keeps
// its default (defaultMetrics, when set, for metrics), and a present
// one is taken as sent, for resolve to validate like the CLI flag of
// the same name. Unknown fields are an error, and so is anything but
// whitespace after the first JSON value.
func decode(body io.Reader, defaultMetrics string) (experiments.Request, error) {
	req := experiments.DefaultRequest()
	if defaultMetrics != "" {
		req.Metrics = defaultMetrics
	}
	dec := json.NewDecoder(body)
	dec.DisallowUnknownFields()
	if err := dec.Decode(&req); err != nil {
		return experiments.Request{}, fmt.Errorf("bad request body: %v", err)
	}
	if err := dec.Decode(&struct{}{}); err != io.EOF {
		return experiments.Request{}, errors.New("bad request body: data after the JSON object")
	}
	return req, nil
}

// resolve applies the server's admission caps around
// experiments.Request.Resolve: the trial and VM counts before the task
// set is drawn, the horizon and the total slots after. Errors are
// client errors (HTTP 400).
func resolve(req experiments.Request) (*experiments.Resolved, error) {
	if req.Trials > maxTrials {
		return nil, fmt.Errorf("trials must be at most %d (got %d)", maxTrials, req.Trials)
	}
	if req.VMs > maxVMs {
		return nil, fmt.Errorf("vms must be at most %d (got %d)", maxVMs, req.VMs)
	}
	rq, err := req.Resolve()
	if err != nil {
		return nil, err
	}
	if rq.Trial.Horizon > maxHorizon {
		return nil, fmt.Errorf("horizon must be at most %d slots (got %d hyper-periods of %d)", maxHorizon, rq.Hyperperiods, rq.Trial.Tasks.Hyperperiod())
	}
	if total := slot.Time(rq.Trials) * rq.Trial.Horizon; total > maxSlots {
		return nil, fmt.Errorf("trials × horizon must be at most %d slots (got %d × %d)", maxSlots, rq.Trials, rq.Trial.Horizon)
	}
	return rq, nil
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
