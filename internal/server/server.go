// The HTTP surface of the trial service. Endpoints:
//
//	POST /v1/trials             synchronous: admit → batch → execute,
//	                            streaming one NDJSON line per trial as
//	                            it completes (in trial order)
//	POST /v1/sweeps             asynchronous: queue a sweep job, reply
//	                            202 with its id immediately
//	GET  /v1/sweeps/{id}        job status (+ rendered aggregate when done)
//	GET  /v1/sweeps/{id}/results  NDJSON of per-trial results so far
//	                            (?wait=1 blocks until the job finishes)
//	GET  /v1/stats              batcher + job-store counters and timing
//	GET  /healthz               liveness
//
// Saturation on either path returns 429 Too Many Requests with a
// Retry-After header (integer seconds, per RFC 9110) and a JSON body
// carrying a finer-grained retry_after_ms hint.
package server

import (
	"encoding/json"
	"fmt"
	"net/http"
	"strconv"
	"time"

	"ioguard/internal/experiments"
)

// Config assembles a Server. Zero values select the component
// defaults (see BatcherConfig and JobStoreConfig).
type Config struct {
	Batcher BatcherConfig
	Jobs    JobStoreConfig
	// RetryAfter is the hint returned with 429 responses (default
	// 250ms; the header rounds up to whole seconds).
	RetryAfter time.Duration
	// DefaultMetrics fills requests that omit the metrics field — the
	// server-side half of the shared -metrics flag (internal/cliflags).
	DefaultMetrics string
}

// Server is the trial service: a batcher for the synchronous path, a
// job store for the asynchronous path, and the HTTP mux over both.
type Server struct {
	cfg     Config
	batcher *Batcher
	jobs    *JobStore
	mux     *http.ServeMux
	started time.Time
}

// New starts the service's goroutines (batch collector, job runner)
// and returns the server. Call Close to drain and stop them.
func New(cfg Config) *Server {
	return newServer(cfg, NewBatcher(cfg.Batcher))
}

// newServer builds the service around b — the test seam for a batcher
// whose collector is not started yet. cfg.Batcher is not read.
func newServer(cfg Config, b *Batcher) *Server {
	if cfg.RetryAfter <= 0 {
		cfg.RetryAfter = 250 * time.Millisecond
	}
	s := &Server{
		cfg:     cfg,
		batcher: b,
		jobs:    NewJobStore(cfg.Jobs),
		started: time.Now(),
	}
	s.mux = http.NewServeMux()
	s.mux.HandleFunc("POST /v1/trials", s.handleTrials)
	s.mux.HandleFunc("POST /v1/sweeps", s.handleSweepSubmit)
	s.mux.HandleFunc("GET /v1/sweeps/{id}", s.handleSweepStatus)
	s.mux.HandleFunc("GET /v1/sweeps/{id}/results", s.handleSweepResults)
	s.mux.HandleFunc("GET /v1/stats", s.handleStats)
	s.mux.HandleFunc("GET /healthz", func(w http.ResponseWriter, _ *http.Request) {
		w.Header().Set("Content-Type", "text/plain; charset=utf-8")
		fmt.Fprintln(w, "ok")
	})
	return s
}

// Handler returns the service's HTTP handler.
func (s *Server) Handler() http.Handler { return s.mux }

// Close drains both execution paths: every admitted trial and every
// queued sweep runs to completion before Close returns. Shut the
// http.Server down first (so streaming handlers finish), then Close.
func (s *Server) Close() {
	s.jobs.Close()
	s.batcher.Close()
}

// Batcher exposes the synchronous path's stats for tests and the
// load generator's self-hosted mode.
func (s *Server) Batcher() *Batcher { return s.batcher }

// Jobs exposes the asynchronous path's store.
func (s *Server) Jobs() *JobStore { return s.jobs }

// errorBody is the JSON error envelope.
type errorBody struct {
	Error        string `json:"error"`
	RetryAfterMs int64  `json:"retry_after_ms,omitempty"`
}

func writeJSON(w http.ResponseWriter, code int, v any) {
	w.Header().Set("Content-Type", "application/json")
	w.WriteHeader(code)
	enc := json.NewEncoder(w)
	enc.Encode(v)
}

func (s *Server) writeSaturated(w http.ResponseWriter) {
	// Retry-After only speaks whole seconds; round up so the client
	// never retries earlier than the hint, and carry the precise hint
	// in the body.
	secs := int64((s.cfg.RetryAfter + time.Second - 1) / time.Second)
	if secs < 1 {
		secs = 1
	}
	w.Header().Set("Retry-After", strconv.FormatInt(secs, 10))
	writeJSON(w, http.StatusTooManyRequests, errorBody{
		Error:        ErrSaturated.Error(),
		RetryAfterMs: int64(s.cfg.RetryAfter / time.Millisecond),
	})
}

// decodeRequest decodes and resolves the body, answering 400 itself
// on failure.
func (s *Server) decodeRequest(w http.ResponseWriter, r *http.Request) (*experiments.Resolved, bool) {
	req, err := decode(http.MaxBytesReader(w, r.Body, 1<<20), s.cfg.DefaultMetrics)
	var rq *experiments.Resolved
	if err == nil {
		rq, err = resolve(req)
	}
	if err != nil {
		writeJSON(w, http.StatusBadRequest, errorBody{Error: err.Error()})
		return nil, false
	}
	return rq, true
}

// handleTrials is the synchronous path: admit the request's cells
// all-or-nothing, then stream one NDJSON line per trial, in trial
// order, as results come back from the batcher. A request larger than
// the whole queue could never be admitted, so it is a client error
// (400), not a retryable 429 — and is refused before its cells exist.
func (s *Server) handleTrials(w http.ResponseWriter, r *http.Request) {
	rq, ok := s.decodeRequest(w, r)
	if !ok {
		return
	}
	if depth := s.batcher.cfg.QueueDepth; rq.Trials > depth {
		writeJSON(w, http.StatusBadRequest, errorBody{Error: fmt.Sprintf("trials must be at most the queue depth %d (got %d)", depth, rq.Trials)})
		return
	}
	cells := rq.Cells()
	units, err := s.batcher.Enqueue(cells)
	if err == ErrSaturated {
		s.writeSaturated(w)
		return
	}
	if err != nil {
		writeJSON(w, http.StatusServiceUnavailable, errorBody{Error: err.Error()})
		return
	}
	w.Header().Set("Content-Type", "application/x-ndjson")
	w.WriteHeader(http.StatusOK)
	flusher, _ := w.(http.Flusher)
	enc := json.NewEncoder(w)
	for i, u := range units {
		res := <-u.Done()
		if res.Err != nil {
			enc.Encode(struct {
				Index int    `json:"index"`
				Error string `json:"error"`
			}{i, res.Err.Error()})
		} else {
			enc.Encode(toResponse(rq.System, i, cells[i].Trial.Seed, res.Res, res.Timing))
		}
		if flusher != nil {
			flusher.Flush()
		}
	}
}

// handleSweepSubmit is the asynchronous path: queue the sweep and
// return 202 with the job id.
func (s *Server) handleSweepSubmit(w http.ResponseWriter, r *http.Request) {
	rq, ok := s.decodeRequest(w, r)
	if !ok {
		return
	}
	j, err := s.jobs.Submit(rq)
	if err == ErrSaturated {
		s.writeSaturated(w)
		return
	}
	if err != nil {
		writeJSON(w, http.StatusServiceUnavailable, errorBody{Error: err.Error()})
		return
	}
	writeJSON(w, http.StatusAccepted, j.Status())
}

func (s *Server) handleSweepStatus(w http.ResponseWriter, r *http.Request) {
	j, ok := s.jobs.Get(r.PathValue("id"))
	if !ok {
		writeJSON(w, http.StatusNotFound, errorBody{Error: "no such sweep"})
		return
	}
	if r.URL.Query().Get("sketch") == "1" {
		writeJSON(w, http.StatusOK, j.StatusWithSketches())
		return
	}
	writeJSON(w, http.StatusOK, j.Status())
}

func (s *Server) handleSweepResults(w http.ResponseWriter, r *http.Request) {
	j, ok := s.jobs.Get(r.PathValue("id"))
	if !ok {
		writeJSON(w, http.StatusNotFound, errorBody{Error: "no such sweep"})
		return
	}
	if r.URL.Query().Get("wait") == "1" {
		select {
		case <-j.Done():
		case <-r.Context().Done():
			return
		}
	}
	w.Header().Set("Content-Type", "application/x-ndjson")
	w.WriteHeader(http.StatusOK)
	enc := json.NewEncoder(w)
	for _, tr := range j.Results() {
		enc.Encode(tr)
	}
}

// StatsResponse is the body of GET /v1/stats.
type StatsResponse struct {
	UptimeSeconds float64      `json:"uptime_seconds"`
	Batcher       BatcherStats `json:"batcher"`
	Jobs          JobStats     `json:"jobs"`
}

func (s *Server) handleStats(w http.ResponseWriter, _ *http.Request) {
	writeJSON(w, http.StatusOK, StatsResponse{
		UptimeSeconds: time.Since(s.started).Seconds(),
		Batcher:       s.batcher.Stats(),
		Jobs:          s.jobs.Stats(),
	})
}
