package main

// The serve workload: an in-process trial server behind httptest, with
// two closed-loop clients (each waits for its reply before sending the
// next request).
//
//   - Client A posts POST /v1/trials requests of 4 I/O-GUARD-70 trials
//     (2 VMs, util 0.5, 1 hyper-period: the ioguard-load request shape),
//     cycling through serveTrialBodies request bodies.
//   - Client B submits POST /v1/sweeps of 16 legacy trials and fetches
//     GET /v1/sweeps/{id}/results?wait=1, cycling through
//     serveSweepBodies bodies.
//
// Requests carry only system/vms/util/hyperperiods/seed/trials. Every
// streamed result line is checked afterwards against the same trial run
// in-process through system.Run.

import (
	"bufio"
	"bytes"
	"encoding/json"
	"fmt"
	"io"
	"net/http"
	"net/http/httptest"
	"sort"
	"sync"
	"time"

	"ioguard/internal/experiments"
	"ioguard/internal/server"
	"ioguard/internal/slot"
	"ioguard/internal/system"
	"ioguard/internal/workload"
)

const (
	serveTrialBodies  = 8
	serveSweepBodies  = 4
	serveTrialsPerReq = 4
	serveSweepTrials  = 16
	serveVMs          = 2
	serveUtil         = 0.5
	serveHyperPeriods = 1
	// serveHorizon is the one request size the bodies are drawn at:
	// about a fifth of the seeds give an 8,000-slot hyper-period, the
	// rest 16,000. Drawing every body at one size keeps the offered
	// work, and so the throughput, from depending on the seed.
	serveHorizon = 8000
)

// serveRequest is one request body and what it should return.
type serveRequest struct {
	System       string  `json:"system"`
	VMs          int     `json:"vms"`
	Util         float64 `json:"util"`
	Hyperperiods int     `json:"hyperperiods"`
	Seed         int64   `json:"seed"`
	Trials       int     `json:"trials"`

	body    []byte
	horizon slot.Time
}

// serveLine is the subset of a streamed result line the client reads.
type serveLine struct {
	Index    int           `json:"index"`
	Seed     int64         `json:"seed"`
	Rendered string        `json:"rendered"`
	Error    string        `json:"error"`
	Timing   server.Timing `json:"timing"`
}

// serveSetup is a started server plus the generated request bodies.
type serveSetup struct {
	srv    *server.Server
	ts     *httptest.Server
	trials []*serveRequest
	sweeps []*serveRequest
}

func (s *serveSetup) close() {
	s.ts.Close()
	s.srv.Close()
}

// serveBodies draws n request bodies from the seed sequence starting
// at *k, keeping those of horizon serveHorizon.
func serveBodies(sys string, seed int64, k *int, n, trials int) ([]*serveRequest, error) {
	var out []*serveRequest
	for tries := 0; len(out) < n; tries++ {
		if tries > 1000*n {
			return nil, fmt.Errorf("serve: no %d-slot task sets among %d seeds", serveHorizon, tries)
		}
		s := subSeed(seed, *k)
		*k++
		if s == 0 {
			continue // the server would replace an absent seed with 1
		}
		r := &serveRequest{System: sys, VMs: serveVMs, Util: serveUtil, Hyperperiods: serveHyperPeriods, Seed: s, Trials: trials}
		ts, err := workload.Generate(workload.Config{VMs: r.VMs, TargetUtil: r.Util, Seed: r.Seed})
		if err != nil {
			return nil, err
		}
		if r.horizon = ts.Hyperperiod() * slot.Time(r.Hyperperiods); r.horizon != serveHorizon {
			continue
		}
		if r.body, err = json.Marshal(r); err != nil {
			return nil, err
		}
		out = append(out, r)
	}
	return out, nil
}

// setupServe generates the request bodies, starts the server and
// probes it until it answers.
func setupServe(seed int64, workers int) (*serveSetup, error) {
	s := &serveSetup{}
	k := 0
	var err error
	if s.trials, err = serveBodies("ioguard-70", seed, &k, serveTrialBodies, serveTrialsPerReq); err != nil {
		return nil, err
	}
	if s.sweeps, err = serveBodies("legacy", seed, &k, serveSweepBodies, serveSweepTrials); err != nil {
		return nil, err
	}
	s.srv = server.New(server.Config{
		Batcher: server.BatcherConfig{Workers: workers},
		Jobs:    server.JobStoreConfig{Workers: workers},
	})
	s.ts = httptest.NewServer(s.srv.Handler())
	resp, err := http.Get(s.ts.URL + "/healthz")
	if err != nil {
		s.close()
		return nil, fmt.Errorf("serve: readiness probe: %w", err)
	}
	io.Copy(io.Discard, resp.Body)
	resp.Body.Close()
	if resp.StatusCode != http.StatusOK {
		s.close()
		return nil, fmt.Errorf("serve: readiness probe: %s", resp.Status)
	}
	return s, nil
}

// lineKey identifies one trial of one request body.
type lineKey struct {
	sweep bool
	body  int
	index int
}

// serveStats is what one client observed.
type serveStats struct {
	rtts      []float64 // ms per request (A) or per sweep (B)
	attempted int64     // trials asked for
	lines     int64
	failed    int64
	slots     float64
	seen      map[lineKey]map[string]int64 // rendered block → times seen
	notes     []string

	// Server-side timing from client A's lines.
	queueMs, execPerTrialMs, batchSize []float64
	httpMs                             []float64
}

func newServeStats() *serveStats {
	return &serveStats{seen: map[lineKey]map[string]int64{}}
}

func (st *serveStats) fail(n int64, format string, args ...any) {
	st.failed += n
	if len(st.notes) < 8 {
		st.notes = append(st.notes, fmt.Sprintf(format, args...))
	}
}

func (st *serveStats) merge(o *serveStats) {
	st.rtts = append(st.rtts, o.rtts...)
	st.attempted += o.attempted
	st.lines += o.lines
	st.failed += o.failed
	st.slots += o.slots
	for k, m := range o.seen {
		if st.seen[k] == nil {
			st.seen[k] = map[string]int64{}
		}
		for r, n := range m {
			st.seen[k][r] += n
		}
	}
	st.notes = append(st.notes, o.notes...)
	st.queueMs = append(st.queueMs, o.queueMs...)
	st.execPerTrialMs = append(st.execPerTrialMs, o.execPerTrialMs...)
	st.batchSize = append(st.batchSize, o.batchSize...)
	st.httpMs = append(st.httpMs, o.httpMs...)
}

// readLines decodes an NDJSON stream of result lines for request r,
// counting each into st under the given body index.
func readLines(st *serveStats, body io.Reader, sweep bool, bi int, r *serveRequest) []serveLine {
	var lines []serveLine
	sc := bufio.NewScanner(body)
	sc.Buffer(make([]byte, 0, 64*1024), 1<<20)
	for sc.Scan() {
		var ln serveLine
		if err := json.Unmarshal(sc.Bytes(), &ln); err != nil {
			st.fail(1, "serve: undecodable line: %v", err)
			continue
		}
		if ln.Error != "" {
			st.fail(1, "serve: trial error: %s", ln.Error)
			continue
		}
		lines = append(lines, ln)
		st.lines++
		st.slots += float64(r.horizon)
		k := lineKey{sweep: sweep, body: bi, index: ln.Index}
		if st.seen[k] == nil {
			st.seen[k] = map[string]int64{}
		}
		st.seen[k][fmt.Sprintf("seed=%d\n%s", ln.Seed, ln.Rendered)]++
	}
	if err := sc.Err(); err != nil {
		st.fail(1, "serve: reading stream: %v", err)
	}
	return lines
}

// trialClient is client A.
func trialClient(client *http.Client, base string, reqs []*serveRequest, deadline time.Time) *serveStats {
	st := newServeStats()
	for n := 0; time.Now().Before(deadline); n++ {
		bi := n % len(reqs)
		r := reqs[bi]
		st.attempted += int64(r.Trials)
		t0 := time.Now()
		resp, err := client.Post(base+"/v1/trials", "application/json", bytes.NewReader(r.body))
		if err != nil {
			st.fail(int64(r.Trials), "serve: POST /v1/trials: %v", err)
			continue
		}
		if resp.StatusCode != http.StatusOK {
			io.Copy(io.Discard, resp.Body)
			resp.Body.Close()
			st.fail(int64(r.Trials), "serve: POST /v1/trials: %s", resp.Status)
			continue
		}
		lines := readLines(st, resp.Body, false, bi, r)
		resp.Body.Close()
		rtt := float64(time.Since(t0)) / float64(time.Millisecond)
		st.rtts = append(st.rtts, rtt)
		if missing := int64(r.Trials - len(lines)); missing > 0 {
			st.fail(missing, "serve: %d accepted trials never arrived", missing)
		}
		var served float64
		for _, ln := range lines {
			tm := ln.Timing
			st.queueMs = append(st.queueMs, tm.QueueWaitMs)
			st.batchSize = append(st.batchSize, float64(tm.BatchSize))
			if tm.BatchSize > 0 {
				st.execPerTrialMs = append(st.execPerTrialMs, tm.ExecMs/float64(tm.BatchSize))
			}
			if s := tm.QueueWaitMs + tm.ExecMs; s > served {
				served = s
			}
		}
		st.httpMs = append(st.httpMs, rtt-served)
	}
	return st
}

// sweepClient is client B.
func sweepClient(client *http.Client, base string, reqs []*serveRequest, deadline time.Time) *serveStats {
	st := newServeStats()
	for n := 0; time.Now().Before(deadline); n++ {
		bi := n % len(reqs)
		r := reqs[bi]
		st.attempted += int64(r.Trials)
		t0 := time.Now()
		resp, err := client.Post(base+"/v1/sweeps", "application/json", bytes.NewReader(r.body))
		if err != nil {
			st.fail(int64(r.Trials), "serve: POST /v1/sweeps: %v", err)
			continue
		}
		var status server.SweepStatus
		decErr := json.NewDecoder(resp.Body).Decode(&status)
		io.Copy(io.Discard, resp.Body)
		resp.Body.Close()
		if resp.StatusCode != http.StatusAccepted || decErr != nil {
			st.fail(int64(r.Trials), "serve: POST /v1/sweeps: %s (%v)", resp.Status, decErr)
			continue
		}
		resp, err = client.Get(base + "/v1/sweeps/" + status.ID + "/results?wait=1")
		if err != nil {
			st.fail(int64(r.Trials), "serve: GET results: %v", err)
			continue
		}
		if resp.StatusCode != http.StatusOK {
			io.Copy(io.Discard, resp.Body)
			resp.Body.Close()
			st.fail(int64(r.Trials), "serve: GET results: %s", resp.Status)
			continue
		}
		lines := readLines(st, resp.Body, true, bi, r)
		resp.Body.Close()
		st.rtts = append(st.rtts, float64(time.Since(t0))/float64(time.Millisecond))
		if missing := int64(r.Trials - len(lines)); missing > 0 {
			st.fail(missing, "serve: %d sweep trials never arrived", missing)
		}
	}
	return st
}

// serveOut is one timed phase of the serve workload.
type serveOut struct {
	trials, sweeps *serveStats
	wall           time.Duration
	slowdown       float64 // host slowdown during the phase (hostspeed.go)
	stats          server.BatcherStats
}

// runServe drives both clients against s until budget has passed and
// both have received their last reply.
func runServe(s *serveSetup, budget time.Duration) *serveOut {
	tr := &http.Transport{MaxIdleConnsPerHost: 2}
	defer tr.CloseIdleConnections()
	client := &http.Client{Transport: tr}
	out := &serveOut{}
	mon := startMonitor()
	defer mon.Stop()
	start := time.Now()
	deadline := start.Add(budget)
	var wg sync.WaitGroup
	wg.Add(2)
	go func() {
		defer wg.Done()
		out.trials = trialClient(client, s.ts.URL, s.trials, deadline)
	}()
	go func() {
		defer wg.Done()
		out.sweeps = sweepClient(client, s.ts.URL, s.sweeps, deadline)
	}()
	wg.Wait()
	out.wall = time.Since(start)
	out.slowdown = mon.slowdown(start, start.Add(out.wall))
	out.stats = s.srv.Batcher().Stats()
	return out
}

// gateServe checks every distinct streamed result against the same
// trial run in-process through system.Run; every line that differs is
// a failed operation.
func gateServe(s *serveSetup, all *serveStats) (int64, []string, error) {
	var failed int64
	var notes []string
	keys := make([]lineKey, 0, len(all.seen))
	for k := range all.seen {
		keys = append(keys, k)
	}
	sort.Slice(keys, func(i, j int) bool {
		a, b := keys[i], keys[j]
		if a.sweep != b.sweep {
			return !a.sweep
		}
		if a.body != b.body {
			return a.body < b.body
		}
		return a.index < b.index
	})
	for _, k := range keys {
		r := s.trials
		if k.sweep {
			r = s.sweeps
		}
		want, err := inProcessLine(r[k.body], k.index)
		if err != nil {
			return 0, nil, err
		}
		for got, n := range all.seen[k] {
			if got != want {
				failed += n
				if len(notes) < 8 {
					notes = append(notes, fmt.Sprintf("serve: %+v differs from the in-process trial (%d lines)", k, n))
				}
			}
		}
	}
	return failed, notes, nil
}

// inProcessLine renders trial index of request r the way the server
// should have: same builder resolution, task set and seed schedule.
func inProcessLine(r *serveRequest, index int) (string, error) {
	if index < 0 || index >= r.Trials {
		return "", fmt.Errorf("serve: line index %d out of range", index)
	}
	build, err := experiments.BuilderFor(r.System)
	if err != nil {
		return "", err
	}
	ts, err := workload.Generate(workload.Config{VMs: r.VMs, TargetUtil: r.Util, Seed: r.Seed})
	if err != nil {
		return "", err
	}
	tr := system.Trial{VMs: r.VMs, Tasks: ts, Horizon: r.horizon, Seed: r.Seed}
	if r.Trials > 1 {
		tr = system.SweepCells(build, tr, r.Trials)[index].Trial
	}
	res, err := system.Run(build, tr)
	if err != nil {
		return "", err
	}
	return fmt.Sprintf("seed=%d\n%s", tr.Seed, experiments.RenderTrial(r.System, res)), nil
}
