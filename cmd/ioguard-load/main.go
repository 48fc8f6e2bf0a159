// Command ioguard-load drives the trial server with sustained
// concurrent load and reports the achieved trial rate plus the
// server-side latency breakdown (queue wait, batch execution, batch
// size) carried in every streamed result line. It doubles as the
// CI smoke harness: with -assert it fails the process unless the run
// saw zero transport/protocol errors, every accepted request streamed
// back exactly its trial count (no accepted-but-lost work), and the
// optional -min-tps / -expect-rejects conditions hold. In -self mode
// it spins an in-process server first, so one command exercises the
// full admit → batch → execute → stream path and can cross-check the
// server's own admission counters against the client's observations.
//
// Usage:
//
//	ioguard-load -addr http://127.0.0.1:8080 -clients 32 -duration 10s
//	ioguard-load -self -clients 16 -duration 3s -assert -min-tps 1000
//	ioguard-load -self -queue-depth 64 -clients 32 -expect-rejects -assert
package main

import (
	"bufio"
	"bytes"
	"encoding/json"
	"flag"
	"fmt"
	"io"
	"net/http"
	"net/http/httptest"
	"os"
	"sync"
	"sync/atomic"
	"time"

	"ioguard/internal/cliflags"
	"ioguard/internal/experiments"
	"ioguard/internal/metrics"
	"ioguard/internal/server"
)

type counters struct {
	requests       atomic.Int64 // POSTs issued
	accepted       atomic.Int64 // 200 responses
	rejected       atomic.Int64 // 429 responses
	errors         atomic.Int64 // transport/protocol/trial errors
	trialsReturned atomic.Int64 // result lines read
	trialsLost     atomic.Int64 // accepted lines that never arrived
}

// loadEps is the rank-error bound of the latency sketches: 0.5% of
// ranks, tight enough that p50/p99 over a load run are stable.
const loadEps = 0.005

// clientTimings is one client goroutine's latency recorders. Each is
// a KLL-backed mergeable sketch, so the final report folds every
// connection's observations into one true cross-connection
// distribution — counts, means and extrema fold exactly, quantiles
// within ε·n ranks — with no shared mutex on the hot path and memory
// bounded regardless of how many trials stream back.
type clientTimings struct {
	clientMs  *metrics.Streaming // whole-request round trip
	queueWait *metrics.Streaming // server-reported, per trial
	execMs    *metrics.Streaming
	batchSize *metrics.Streaming
}

func newClientTimings(client int) *clientTimings {
	rec := func(ch uint64) *metrics.Streaming {
		return metrics.NewStreaming(loadEps, uint64(client+1)*0x9E3779B97F4A7C15^ch)
	}
	return &clientTimings{rec(0), rec(1), rec(2), rec(3)}
}

func (t *clientTimings) addServer(tm server.Timing) {
	t.queueWait.Add(tm.QueueWaitMs)
	t.execMs.Add(tm.ExecMs)
	t.batchSize.Add(float64(tm.BatchSize))
}

// mergeClientTimings folds the per-client recorders in client-index
// order — the same fixed-fold-order rule as the sweep aggregates, so
// a run's report is a pure function of what each client observed.
func mergeClientTimings(per []*clientTimings) (*clientTimings, error) {
	out := newClientTimings(len(per))
	for _, tc := range per {
		for _, pair := range [][2]*metrics.Streaming{
			{out.clientMs, tc.clientMs},
			{out.queueWait, tc.queueWait},
			{out.execMs, tc.execMs},
			{out.batchSize, tc.batchSize},
		} {
			if err := pair[0].Merge(pair[1]); err != nil {
				return nil, err
			}
		}
	}
	return out, nil
}

// resultLine is the subset of the server's NDJSON line the client
// needs.
type resultLine struct {
	Error  string        `json:"error"`
	Timing server.Timing `json:"timing"`
}

func main() {
	var (
		addr     = flag.String("addr", "", "server base URL (empty with -self)")
		self     = flag.Bool("self", false, "spin an in-process server and load it (no network)")
		clients  = flag.Int("clients", 16, "concurrent client goroutines")
		duration = flag.Duration("duration", 5*time.Second, "how long to sustain the load")
		perReq   = flag.Int("trials-per-req", 4, "trials per POST /v1/trials request")
		system   = flag.String("system", "ioguard-70", "system spec for the generated trials")
		vms      = flag.Int("vms", 2, "VMs per trial")
		util     = flag.Float64("util", 0.5, "per-device target utilization")
		hps      = flag.Int("hyperperiods", 1, "horizon in hyper-periods per trial")
		seedBase = flag.Int64("seed-base", 1, "base seed; each request perturbs it")
		vary     = flag.Bool("vary-seeds", false, "give every request a distinct workload seed (costs a workload regeneration per request)")

		// -self server knobs.
		queueDepth = flag.Int("queue-depth", 1024, "self-mode: admission bound on queued trials")

		// Assertions.
		assert        = flag.Bool("assert", false, "exit non-zero unless the run is clean (and meets -min-tps / -expect-rejects)")
		minTPS        = flag.Float64("min-tps", 0, "assert at least this many executed trials per second")
		expectRejects = flag.Bool("expect-rejects", false, "assert admission control engaged (some 429s)")
	)
	exec := cliflags.RegisterDefault()
	flag.Parse()
	r, err := exec.Resolve()
	if err != nil {
		fmt.Fprintln(os.Stderr, "ioguard-load:", err)
		os.Exit(1)
	}

	base := *addr
	var srv *server.Server
	if *self {
		srv = server.New(server.Config{
			Batcher: server.BatcherConfig{
				QueueDepth: *queueDepth,
				Workers:    r.Workers,
			},
			DefaultMetrics: r.Metrics.String(),
		})
		ts := httptest.NewServer(srv.Handler())
		defer func() { ts.Close(); srv.Close() }()
		base = ts.URL
	}
	if base == "" {
		fmt.Fprintln(os.Stderr, "ioguard-load: need -addr or -self")
		os.Exit(1)
	}

	// One request body per distinct seed. Without -vary-seeds every
	// request shares one workload (the server resolves each request
	// independently, so this measures execution, not generation).
	makeBody := func(reqIndex int64) []byte {
		req := experiments.Request{
			System:       *system,
			VMs:          *vms,
			Util:         *util,
			Hyperperiods: *hps,
			Seed:         *seedBase,
			Trials:       *perReq,
			Metrics:      r.Metrics.String(),
		}
		if *vary {
			req.Seed += reqIndex
		}
		b, _ := json.Marshal(req)
		return b
	}

	var (
		cnt    counters
		reqSeq atomic.Int64
		wg     sync.WaitGroup
	)
	perClient := make([]*clientTimings, *clients)
	deadline := time.Now().Add(*duration)
	client := &http.Client{}
	for c := 0; c < *clients; c++ {
		timings := newClientTimings(c)
		perClient[c] = timings
		wg.Add(1)
		go func() {
			defer wg.Done()
			for time.Now().Before(deadline) {
				body := makeBody(reqSeq.Add(1))
				start := time.Now()
				resp, err := client.Post(base+"/v1/trials", "application/json", bytes.NewReader(body))
				if err != nil {
					cnt.errors.Add(1)
					continue
				}
				cnt.requests.Add(1)
				switch resp.StatusCode {
				case http.StatusOK:
					cnt.accepted.Add(1)
					got := 0
					sc := bufio.NewScanner(resp.Body)
					sc.Buffer(make([]byte, 0, 64*1024), 1024*1024)
					for sc.Scan() {
						var line resultLine
						if err := json.Unmarshal(sc.Bytes(), &line); err != nil || line.Error != "" {
							cnt.errors.Add(1)
							continue
						}
						got++
						cnt.trialsReturned.Add(1)
						timings.addServer(line.Timing)
					}
					if err := sc.Err(); err != nil {
						cnt.errors.Add(1)
					}
					if got < *perReq {
						cnt.trialsLost.Add(int64(*perReq - got))
					}
					timings.clientMs.Add(float64(time.Since(start)) / float64(time.Millisecond))
				case http.StatusTooManyRequests:
					cnt.rejected.Add(1)
					// Honour the finer-grained hint from the body if
					// present; fall back to a short pause.
					var eb struct {
						RetryAfterMs int64 `json:"retry_after_ms"`
					}
					pause := 5 * time.Millisecond
					if b, err := io.ReadAll(resp.Body); err == nil && json.Unmarshal(b, &eb) == nil && eb.RetryAfterMs > 0 {
						pause = time.Duration(eb.RetryAfterMs) * time.Millisecond
					}
					time.Sleep(pause)
				default:
					cnt.errors.Add(1)
					io.Copy(io.Discard, resp.Body)
				}
				resp.Body.Close()
			}
		}()
	}
	wg.Wait()
	elapsed := *duration

	tps := float64(cnt.trialsReturned.Load()) / elapsed.Seconds()
	fmt.Printf("ioguard-load: %d clients x %s against %s\n", *clients, duration, base)
	fmt.Printf("  requests:         %d accepted=%d rejected(429)=%d errors=%d\n",
		cnt.requests.Load(), cnt.accepted.Load(), cnt.rejected.Load(), cnt.errors.Load())
	fmt.Printf("  trials executed:  %d (%.0f trials/sec)\n", cnt.trialsReturned.Load(), tps)
	fmt.Printf("  trials lost:      %d (accepted but never streamed)\n", cnt.trialsLost.Load())
	merged, err := mergeClientTimings(perClient)
	if err != nil {
		fmt.Fprintln(os.Stderr, "ioguard-load: merging latency sketches:", err)
		os.Exit(1)
	}
	fmt.Printf("  request RTT ms:   %s\n", summarize(merged.clientMs))
	fmt.Printf("  queue wait ms:    %s\n", summarize(merged.queueWait))
	fmt.Printf("  batch exec ms:    %s\n", summarize(merged.execMs))
	fmt.Printf("  batch size:       %s\n", summarize(merged.batchSize))

	failures := 0
	check := func(ok bool, format string, args ...any) {
		if !ok {
			failures++
			fmt.Printf("  FAIL: %s\n", fmt.Sprintf(format, args...))
		}
	}
	if *assert {
		check(cnt.errors.Load() == 0, "%d transport/protocol errors", cnt.errors.Load())
		check(cnt.trialsLost.Load() == 0, "%d accepted trials lost", cnt.trialsLost.Load())
		if *minTPS > 0 {
			check(tps >= *minTPS, "throughput %.0f trials/sec below floor %.0f", tps, *minTPS)
		}
		if *expectRejects {
			check(cnt.rejected.Load() > 0, "admission control never engaged (no 429s)")
		}
		if srv != nil {
			st := srv.Batcher().Stats()
			check(st.RejectedRequests == cnt.rejected.Load(),
				"server admission counter %d != client-observed 429s %d", st.RejectedRequests, cnt.rejected.Load())
			check(st.ExecutedTrials == st.AcceptedTrials,
				"server executed %d of %d accepted trials", st.ExecutedTrials, st.AcceptedTrials)
		}
		if failures > 0 {
			os.Exit(1)
		}
		fmt.Println("  assertions: all passed")
	}
}

// summarize renders n/mean/p50/p99/max from a merged recorder: the
// count, mean and max are fold-exact across every connection; the
// quantiles hold to ε·n ranks of the true cross-connection ordering.
func summarize(s *metrics.Streaming) string {
	if s.N() == 0 {
		return "n=0"
	}
	return fmt.Sprintf("n=%d mean=%.2f p50=%.2f p99=%.2f max=%.2f",
		s.N(), s.Mean(), s.Percentile(50), s.Percentile(99), s.Max())
}
