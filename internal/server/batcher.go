// The request batcher: the server's synchronous execution path.
// Incoming trial cells from concurrent HTTP requests are coalesced
// into batches, and each batch runs on the deterministic
// system.RunCells worker pool. A batch is whatever is already queued
// when the collector comes back for work: it blocks for the first
// cell, takes every cell waiting behind it up to maxBatch, and runs
// them. Nothing waits on a timer: an idle server starts a lone request
// at once, and under load the cells that arrive while one batch runs
// fill the next, which amortizes the pool's spin-up across requests.
//
// Admission control is a reservation counter against QueueDepth:
// Enqueue reserves all of a request's cells or none of them
// (all-or-nothing), so a multi-trial request is never half-admitted
// and an admitted cell always has channel capacity waiting — sends
// after a successful reservation cannot block. Refused requests get
// ErrSaturated, which the HTTP layer maps to 429 + Retry-After.
//
// Per-cell timing (queue wait, batch execution time, batch size) is
// recorded into bounded-memory metrics.Streaming recorders and
// returned with every result, so clients see the server-side latency
// breakdown of each trial.
package server

import (
	"errors"
	"sync"
	"sync/atomic"
	"time"

	"ioguard/internal/metrics"
	"ioguard/internal/system"
)

// ErrSaturated is returned by Enqueue and JobStore.Submit when
// admission control refuses the request because the bounded queue is
// full. The HTTP layer maps it to 429 Too Many Requests.
var ErrSaturated = errors.New("server: saturated, retry later")

// BatcherConfig tunes the synchronous batch executor. Zero values
// select the defaults.
type BatcherConfig struct {
	// QueueDepth bounds admitted-but-unstarted cells; Enqueue refuses
	// requests beyond it (default 1024).
	QueueDepth int
	// Workers is the RunCells goroutine count per batch (≤ 0 =
	// GOMAXPROCS).
	Workers int
}

// maxBatch caps the cells one batch takes from the queue. Results
// come back per batch, so the cap bounds how long the first request in
// a backlog waits for the rest of its batch.
const maxBatch = 64

// timingEps is the ε of the batcher's timing recorders' percentile
// sketch.
const timingEps = 0.01

func (c BatcherConfig) withDefaults() BatcherConfig {
	if c.QueueDepth <= 0 {
		c.QueueDepth = 1024
	}
	return c
}

// Result is one cell's outcome, delivered on Unit.Done.
type Result struct {
	Res    *metrics.TrialResult
	Err    error
	Timing Timing
}

// Unit is one admitted cell: a handle the caller waits on.
type Unit struct {
	cell     system.Cell
	enqueued time.Time
	done     chan Result // buffered (cap 1): the batch never blocks on a slow reader
}

// Done returns the channel carrying the cell's result. It yields
// exactly one value.
func (u *Unit) Done() <-chan Result { return u.done }

// Batcher coalesces admitted cells into batches and executes them on
// the deterministic worker pool.
type Batcher struct {
	cfg BatcherConfig

	// queued is the admission reservation: cells admitted but not yet
	// picked into a running batch. It is incremented before the channel
	// send and decremented when the batch collects the cell, so the
	// channel (cap QueueDepth) always has room for reserved sends.
	queued           atomic.Int64
	rejectedUnits    atomic.Int64
	rejectedRequests atomic.Int64
	acceptedUnits    atomic.Int64
	executedUnits    atomic.Int64
	batches          atomic.Int64

	mu      sync.RWMutex // guards closed and the sends: read by Enqueue, written by Close and collect's drain
	closed  bool
	in      chan *Unit
	drained chan struct{}

	// recMu guards the timing recorders (written per batch, read by
	// Stats).
	recMu     sync.Mutex
	queueWait *metrics.Streaming // milliseconds
	execTime  *metrics.Streaming // milliseconds per batch
	batchSize *metrics.Streaming // cells per batch
}

// NewBatcher starts the collector goroutine and returns the batcher.
func NewBatcher(cfg BatcherConfig) *Batcher {
	b := newBatcher(cfg)
	go b.collect()
	return b
}

// newBatcher builds a batcher without starting the collector — the
// test seam for queueing cells before any batch forms.
func newBatcher(cfg BatcherConfig) *Batcher {
	cfg = cfg.withDefaults()
	return &Batcher{
		cfg:       cfg,
		in:        make(chan *Unit, cfg.QueueDepth),
		drained:   make(chan struct{}),
		queueWait: metrics.NewStreaming(timingEps, 1),
		execTime:  metrics.NewStreaming(timingEps, 2),
		batchSize: metrics.NewStreaming(timingEps, 3),
	}
}

// Enqueue admits all of cells or none of them. On success every
// returned Unit will receive exactly one Result, even across Close
// (admitted work is drained, never dropped). On saturation it returns
// ErrSaturated and admits nothing.
func (b *Batcher) Enqueue(cells []system.Cell) ([]*Unit, error) {
	n := int64(len(cells))
	if n == 0 {
		return nil, nil
	}
	if b.queued.Add(n) > int64(b.cfg.QueueDepth) {
		b.queued.Add(-n)
		b.rejectedUnits.Add(n)
		b.rejectedRequests.Add(1)
		return nil, ErrSaturated
	}
	b.mu.RLock()
	defer b.mu.RUnlock()
	if b.closed {
		b.queued.Add(-n)
		return nil, errors.New("server: batcher closed")
	}
	units := make([]*Unit, len(cells))
	now := time.Now()
	for i, c := range cells {
		u := &Unit{cell: c, enqueued: now, done: make(chan Result, 1)}
		units[i] = u
		b.in <- u // cannot block: reservation ≤ QueueDepth = channel cap
	}
	b.acceptedUnits.Add(n)
	return units, nil
}

// Close stops admission and drains: every already-admitted cell is
// executed and its Unit resolved before Close returns.
func (b *Batcher) Close() {
	b.mu.Lock()
	if b.closed {
		b.mu.Unlock()
		<-b.drained
		return
	}
	b.closed = true
	close(b.in)
	b.mu.Unlock()
	<-b.drained
}

// collect is the single collector goroutine: it blocks for the first
// cell, takes every cell already queued behind it up to maxBatch, then
// executes. The drain holds mu for writing, so an Enqueue caught in
// the middle of its sends finishes them first and a request splits
// across batches only at the cap. A closed input channel still yields
// its buffered cells before reporting !ok, so close-time draining
// falls out naturally.
func (b *Batcher) collect() {
	defer close(b.drained)
	for {
		u, ok := <-b.in
		if !ok {
			return
		}
		batch := []*Unit{u}
		b.mu.Lock()
	fill:
		for len(batch) < maxBatch {
			select {
			case u2, ok := <-b.in:
				if !ok {
					break fill
				}
				batch = append(batch, u2)
			default:
				break fill
			}
		}
		b.mu.Unlock()
		b.runBatch(batch)
	}
}

// runBatch executes one batch on the deterministic pool and resolves
// every unit. RunCells fails the whole batch on any cell error; to
// keep one bad request from poisoning its batch-mates, a failed batch
// falls back to running each cell individually so errors attribute to
// exactly the cell that caused them.
func (b *Batcher) runBatch(batch []*Unit) {
	b.queued.Add(-int64(len(batch)))
	cells := make([]system.Cell, len(batch))
	for i, u := range batch {
		cells[i] = u.cell
	}
	start := time.Now()
	results, err := system.RunCells(cells, b.cfg.Workers)
	if err != nil {
		results = make([]*metrics.TrialResult, len(cells))
		errs := make([]error, len(cells))
		for i := range cells {
			one, oneErr := system.RunCells(cells[i:i+1], 1)
			if oneErr != nil {
				errs[i] = oneErr
				continue
			}
			results[i] = one[0]
		}
		b.resolve(batch, results, errs, start)
		return
	}
	b.resolve(batch, results, make([]error, len(batch)), start)
}

func (b *Batcher) resolve(batch []*Unit, results []*metrics.TrialResult, errs []error, start time.Time) {
	execMs := float64(time.Since(start)) / float64(time.Millisecond)
	b.batches.Add(1)
	b.executedUnits.Add(int64(len(batch)))
	b.recMu.Lock()
	b.execTime.Add(execMs)
	b.batchSize.Add(float64(len(batch)))
	for _, u := range batch {
		b.queueWait.Add(float64(start.Sub(u.enqueued)) / float64(time.Millisecond))
	}
	b.recMu.Unlock()
	for i, u := range batch {
		u.done <- Result{
			Res: results[i],
			Err: errs[i],
			Timing: Timing{
				QueueWaitMs: float64(start.Sub(u.enqueued)) / float64(time.Millisecond),
				ExecMs:      execMs,
				BatchSize:   len(batch),
			},
		}
	}
}

// BatcherStats is the snapshot served by GET /v1/stats.
type BatcherStats struct {
	Batches          int64   `json:"batches"`
	AcceptedTrials   int64   `json:"accepted_trials"`
	ExecutedTrials   int64   `json:"executed_trials"`
	RejectedTrials   int64   `json:"rejected_trials"`
	RejectedRequests int64   `json:"rejected_requests"`
	Queued           int64   `json:"queued"`
	QueueDepth       int     `json:"queue_depth"`
	MeanBatchSize    float64 `json:"mean_batch_size"`
	QueueWaitMeanMs  float64 `json:"queue_wait_mean_ms"`
	QueueWaitP99Ms   float64 `json:"queue_wait_p99_ms"`
	ExecMeanMs       float64 `json:"exec_mean_ms"`
	ExecP99Ms        float64 `json:"exec_p99_ms"`
}

// Stats snapshots the batcher's counters and timing recorders.
func (b *Batcher) Stats() BatcherStats {
	b.recMu.Lock()
	st := BatcherStats{
		MeanBatchSize:   b.batchSize.Mean(),
		QueueWaitMeanMs: b.queueWait.Mean(),
		QueueWaitP99Ms:  b.queueWait.Percentile(99),
		ExecMeanMs:      b.execTime.Mean(),
		ExecP99Ms:       b.execTime.Percentile(99),
	}
	b.recMu.Unlock()
	st.Batches = b.batches.Load()
	st.AcceptedTrials = b.acceptedUnits.Load()
	st.ExecutedTrials = b.executedUnits.Load()
	st.RejectedTrials = b.rejectedUnits.Load()
	st.RejectedRequests = b.rejectedRequests.Load()
	st.Queued = b.queued.Load()
	st.QueueDepth = b.cfg.QueueDepth
	return st
}
