// The in-memory job store: the server's asynchronous execution path
// for sweeps. POST /v1/sweeps submits a job and returns immediately
// with an id; a single runner goroutine executes queued jobs in
// submission order, chunking each sweep through system.RunCells and
// folding results in trial order — the same seed schedule and fold
// order as ParallelSweep, so a finished job's aggregate is identical
// to the CLI's. Admission is the queue channel's capacity: a full
// queue refuses the submit with ErrSaturated (HTTP 429), and an
// accepted job is never dropped — Close drains the queue before
// returning.
package server

import (
	"fmt"
	"sync"
	"sync/atomic"
	"time"

	"ioguard/internal/metrics"
	"ioguard/internal/system"
)

// Job states.
const (
	JobQueued  = "queued"
	JobRunning = "running"
	JobDone    = "done"
	JobFailed  = "failed"
)

// JobStoreConfig tunes the asynchronous sweep runner. Zero values
// select the defaults.
type JobStoreConfig struct {
	// MaxJobs bounds queued-but-unstarted jobs (default 64).
	MaxJobs int
	// Workers is the RunCells goroutine count (≤ 0 = GOMAXPROCS).
	Workers int
}

const (
	// chunkSize is how many trials the runner executes per RunCells
	// call — progress granularity, not a semantic knob.
	chunkSize = 64
	// maxHistory bounds finished jobs retained for retrieval; the
	// oldest finished jobs are evicted beyond it.
	maxHistory = 256
)

func (c JobStoreConfig) withDefaults() JobStoreConfig {
	if c.MaxJobs <= 0 {
		c.MaxJobs = 64
	}
	return c
}

// Job is one submitted sweep and its accumulated results.
type Job struct {
	ID      string
	norm    *normalized
	created time.Time

	mu      sync.Mutex
	state   string
	err     error
	results []TrialResponse
	agg     *metrics.Aggregate
	done    chan struct{}

	completed atomic.Int64
}

// Status snapshots the job for GET /v1/sweeps/{id}.
func (j *Job) Status() SweepStatus { return j.status(false) }

// StatusWithSketches is Status plus the serialized merged
// response/tardiness sketches in the aggregate — the
// GET /v1/sweeps/{id}?sketch=1 payload for streaming-mode sweeps.
func (j *Job) StatusWithSketches() SweepStatus { return j.status(true) }

func (j *Job) status(withSketches bool) SweepStatus {
	j.mu.Lock()
	defer j.mu.Unlock()
	st := SweepStatus{
		ID:        j.ID,
		State:     j.state,
		System:    j.norm.req.System,
		Trials:    j.norm.trials,
		Completed: int(j.completed.Load()),
	}
	if j.err != nil {
		st.Error = j.err.Error()
	}
	if j.state == JobDone && j.agg != nil {
		st.Aggregate = toAggregate(j.norm.req.System, j.agg, withSketches)
	}
	return st
}

// Results snapshots the per-trial responses accumulated so far (all
// of them once the job is done).
func (j *Job) Results() []TrialResponse {
	j.mu.Lock()
	defer j.mu.Unlock()
	return append([]TrialResponse(nil), j.results...)
}

// Done returns a channel closed when the job reaches a terminal
// state.
func (j *Job) Done() <-chan struct{} { return j.done }

// JobStore queues, executes and retains sweep jobs.
type JobStore struct {
	cfg JobStoreConfig

	mu     sync.Mutex
	jobs   map[string]*Job
	order  []string // submission order, for bounded-history eviction
	closed bool
	seq    int64

	queue      chan *Job
	runnerDone chan struct{}

	accepted atomic.Int64
	rejected atomic.Int64
	finished atomic.Int64
}

// NewJobStore starts the runner goroutine and returns the store.
func NewJobStore(cfg JobStoreConfig) *JobStore {
	s := newJobStore(cfg)
	go s.run()
	return s
}

// newJobStore builds a store without starting the runner — the
// deterministic tests drive execution synchronously via runJob.
func newJobStore(cfg JobStoreConfig) *JobStore {
	cfg = cfg.withDefaults()
	return &JobStore{
		cfg:        cfg,
		jobs:       make(map[string]*Job),
		queue:      make(chan *Job, cfg.MaxJobs),
		runnerDone: make(chan struct{}),
	}
}

// Submit queues a sweep. It returns ErrSaturated when MaxJobs jobs
// are already waiting; an accepted job always reaches a terminal
// state, even across Close.
func (s *JobStore) Submit(norm *normalized) (*Job, error) {
	s.mu.Lock()
	defer s.mu.Unlock()
	if s.closed {
		return nil, fmt.Errorf("server: job store closed")
	}
	s.seq++
	j := &Job{
		ID:      fmt.Sprintf("sweep-%06d", s.seq),
		norm:    norm,
		created: time.Now(),
		state:   JobQueued,
		done:    make(chan struct{}),
	}
	select {
	case s.queue <- j:
	default:
		s.seq-- // not admitted: keep ids dense
		s.rejected.Add(1)
		return nil, ErrSaturated
	}
	s.jobs[j.ID] = j
	s.order = append(s.order, j.ID)
	s.accepted.Add(1)
	s.evictLocked()
	return j, nil
}

// evictLocked drops the oldest *finished* jobs beyond maxHistory.
// Queued and running jobs are never evicted (an accepted job is never
// dropped).
func (s *JobStore) evictLocked() {
	if len(s.order) <= maxHistory {
		return
	}
	kept := s.order[:0]
	excess := len(s.order) - maxHistory
	for _, id := range s.order {
		j := s.jobs[id]
		j.mu.Lock()
		terminal := j.state == JobDone || j.state == JobFailed
		j.mu.Unlock()
		if excess > 0 && terminal {
			delete(s.jobs, id)
			excess--
			continue
		}
		kept = append(kept, id)
	}
	s.order = kept
}

// Get returns the job by id.
func (s *JobStore) Get(id string) (*Job, bool) {
	s.mu.Lock()
	defer s.mu.Unlock()
	j, ok := s.jobs[id]
	return j, ok
}

// Close stops admission and drains: every queued job runs to a
// terminal state before Close returns.
func (s *JobStore) Close() {
	s.mu.Lock()
	if s.closed {
		s.mu.Unlock()
		<-s.runnerDone
		return
	}
	s.closed = true
	close(s.queue)
	s.mu.Unlock()
	<-s.runnerDone
}

// run executes queued jobs in submission order. A closed queue still
// yields its buffered jobs before reporting !ok, so Close-time
// draining falls out of the channel semantics.
func (s *JobStore) run() {
	defer close(s.runnerDone)
	for j := range s.queue {
		s.runJob(j)
	}
}

// runJob executes one sweep in chunkSize slices, folding the
// aggregate in trial order — exactly ParallelSweep's fold — and
// appending per-trial responses as chunks finish so partial results
// are visible while the job runs.
func (s *JobStore) runJob(j *Job) {
	j.mu.Lock()
	j.state = JobRunning
	j.mu.Unlock()

	cells := j.norm.cells()
	agg := &metrics.Aggregate{}
	sys := j.norm.req.System
	for off := 0; off < len(cells); off += chunkSize {
		end := min(off+chunkSize, len(cells))
		chunk := cells[off:end]
		start := time.Now()
		results, err := system.RunCells(chunk, s.cfg.Workers)
		if err != nil {
			j.mu.Lock()
			j.state = JobFailed
			j.err = err
			close(j.done)
			j.mu.Unlock()
			s.finished.Add(1)
			return
		}
		execMs := float64(time.Since(start)) / float64(time.Millisecond)
		j.mu.Lock()
		for i, res := range results {
			agg.AddTrial(res)
			j.results = append(j.results, toResponse(sys, off+i, chunk[i].Trial.Seed, res, Timing{
				ExecMs:    execMs,
				BatchSize: len(chunk),
			}))
		}
		j.mu.Unlock()
		j.completed.Add(int64(len(results)))
	}
	j.mu.Lock()
	j.state = JobDone
	j.agg = agg
	close(j.done)
	j.mu.Unlock()
	s.finished.Add(1)
}

// JobStats is the store's snapshot for GET /v1/stats.
type JobStats struct {
	Accepted int64 `json:"accepted"`
	Rejected int64 `json:"rejected"`
	Finished int64 `json:"finished"`
	Queued   int   `json:"queued"`
	MaxJobs  int   `json:"max_jobs"`
}

// Stats snapshots the store's counters.
func (s *JobStore) Stats() JobStats {
	return JobStats{
		Accepted: s.accepted.Load(),
		Rejected: s.rejected.Load(),
		Finished: s.finished.Load(),
		Queued:   len(s.queue),
		MaxJobs:  s.cfg.MaxJobs,
	}
}
