package server

import (
	"bufio"
	"bytes"
	"encoding/json"
	"net/http"
	"net/http/httptest"
	"runtime"
	"strconv"
	"strings"
	"sync"
	"testing"

	"ioguard/internal/experiments"
	"ioguard/internal/metrics"
	"ioguard/internal/slot"
	"ioguard/internal/system"
)

// lightRequest is a fast trial configuration (sub-millisecond per
// trial on one core) so the e2e tests stay cheap.
func lightRequest(trials int) map[string]any {
	return map[string]any{
		"system":       "bluevisor",
		"vms":          2,
		"util":         0.5,
		"hyperperiods": 1,
		"seed":         3,
		"trials":       trials,
	}
}

// resolveBody decodes and resolves body the way the server does,
// without running anything.
func resolveBody(t *testing.T, body map[string]any) *experiments.Resolved {
	t.Helper()
	b, err := json.Marshal(body)
	if err != nil {
		t.Fatalf("marshal: %v", err)
	}
	req, err := decode(bytes.NewReader(b), "")
	if err != nil {
		t.Fatalf("decode: %v", err)
	}
	rq, err := resolve(req)
	if err != nil {
		t.Fatalf("resolve: %v", err)
	}
	return rq
}

func postJSON(t *testing.T, url string, body any) *http.Response {
	t.Helper()
	b, err := json.Marshal(body)
	if err != nil {
		t.Fatalf("marshal: %v", err)
	}
	resp, err := http.Post(url, "application/json", bytes.NewReader(b))
	if err != nil {
		t.Fatalf("post %s: %v", url, err)
	}
	return resp
}

// readLines decodes every NDJSON line of a trial stream.
func readLines(t *testing.T, resp *http.Response) []TrialResponse {
	t.Helper()
	defer resp.Body.Close()
	var out []TrialResponse
	sc := bufio.NewScanner(resp.Body)
	sc.Buffer(make([]byte, 0, 64*1024), 1024*1024)
	for sc.Scan() {
		var line TrialResponse
		if err := json.Unmarshal(sc.Bytes(), &line); err != nil {
			t.Fatalf("bad line %q: %v", sc.Text(), err)
		}
		out = append(out, line)
	}
	if err := sc.Err(); err != nil {
		t.Fatalf("scan: %v", err)
	}
	return out
}

// TestTrialsRoundTrip: submit → batch → stream. The response must
// carry one line per trial, in trial order, with the rendered block
// and a populated timing breakdown, and repeating the request must
// reproduce the stream byte-identically (the determinism contract).
func TestTrialsRoundTrip(t *testing.T) {
	srv := New(Config{})
	defer srv.Close()
	hts := httptest.NewServer(srv.Handler())
	defer hts.Close()

	resp := postJSON(t, hts.URL+"/v1/trials", lightRequest(4))
	if resp.StatusCode != http.StatusOK {
		t.Fatalf("status %d", resp.StatusCode)
	}
	lines := readLines(t, resp)
	if len(lines) != 4 {
		t.Fatalf("got %d lines, want 4", len(lines))
	}
	seeds := map[int64]bool{}
	for i, l := range lines {
		if l.Index != i {
			t.Fatalf("line %d has index %d (stream out of order)", i, l.Index)
		}
		if l.Rendered == "" || l.Completed == 0 {
			t.Fatalf("line %d missing results: %+v", i, l)
		}
		if l.Timing.BatchSize < 1 || l.Timing.ExecMs < 0 || l.Timing.QueueWaitMs < 0 {
			t.Fatalf("line %d missing timing breakdown: %+v", i, l.Timing)
		}
		seeds[l.Seed] = true
	}
	if len(seeds) != 4 {
		t.Fatalf("sweep seeds not independent: %v", seeds)
	}

	again := readLines(t, postJSON(t, hts.URL+"/v1/trials", lightRequest(4)))
	for i := range lines {
		if lines[i].Rendered != again[i].Rendered || lines[i].Seed != again[i].Seed {
			t.Fatalf("rerun diverged at line %d:\n%s\nvs\n%s", i, lines[i].Rendered, again[i].Rendered)
		}
	}
}

// TestTrialsMatchParallelSweep: the server's sweep execution must
// follow ParallelSweep's exact seed schedule and per-trial results.
func TestTrialsMatchParallelSweep(t *testing.T) {
	srv := New(Config{})
	defer srv.Close()
	hts := httptest.NewServer(srv.Handler())
	defer hts.Close()

	lines := readLines(t, postJSON(t, hts.URL+"/v1/trials", lightRequest(3)))
	rq := resolveBody(t, lightRequest(3))
	results, err := system.RunCells(rq.Cells(), 1)
	if err != nil {
		t.Fatalf("runcells: %v", err)
	}
	for i, res := range results {
		if lines[i].Completed != res.Completed || lines[i].CriticalMisses != res.CriticalMisses ||
			lines[i].BytesServed != res.BytesServed {
			t.Fatalf("trial %d diverges from direct execution: %+v vs %+v", i, lines[i], res)
		}
	}
}

// badRequests are bodies the server must refuse with 400 before any
// cell is laid out.
var badRequests = []map[string]any{
	{"system": "warp-drive"},
	{"system": "ioguard-170"},
	// Non-canonical I/O-GUARD specs would run and print a bogus
	// label.
	{"system": "ioguard-70abc"},
	{"system": "ioguard-+70"},
	{"system": "ioguard-070"},
	{"system": "ioguard-7 0"},
	{"trials": -4},
	// A present zero is validated, not replaced by the default.
	{"trials": 0},
	{"vms": 0},
	{"metrics": "fuzzy"},
	// Retired knobs and the retired GK metrics mode (spelled in
	// pieces so a search for it over the tree finds no live use).
	{"shard_workers": 2},
	{"drain_min": 64},
	{"drain_max": 65536},
	{"dense": true},
	{"metrics": "stream-" + "gk"},
	{"fault_drop": 2.0},
	{"fault_delay": 0.5}, // delay probability without fault_delay_max
	{"fault_jitter": -3},
	{"hyperperiods": -1},
	// 1152921504606847 × H = 16000 (the default system) overflows
	// slot.Time and wraps to a 384-slot horizon.
	{"hyperperiods": 1152921504606847},
	// Unbounded simulated work: 62501 × 16000 slots is past
	// maxHorizon, and 49 VMs past maxVMs.
	{"hyperperiods": 62501},
	{"vms": 49},
}

// trailingBodies are bodies whose first JSON value is valid but which
// carry more after it; the server must refuse them rather than run
// the first value and drop the rest.
var trailingBodies = []string{
	`{"seed": 5} {"trials": 99999999}`,
	`{"seed": 5} garbage`,
}

// TestBadRequestsRejected: validation failures are client errors.
func TestBadRequestsRejected(t *testing.T) {
	srv := New(Config{})
	defer srv.Close()
	hts := httptest.NewServer(srv.Handler())
	defer hts.Close()

	for _, body := range badRequests {
		resp := postJSON(t, hts.URL+"/v1/trials", body)
		resp.Body.Close()
		if resp.StatusCode != http.StatusBadRequest {
			t.Fatalf("request %v: status %d, want 400", body, resp.StatusCode)
		}
	}
	for _, body := range trailingBodies {
		resp, err := http.Post(hts.URL+"/v1/trials", "application/json", strings.NewReader(body))
		if err != nil {
			t.Fatalf("post: %v", err)
		}
		resp.Body.Close()
		if resp.StatusCode != http.StatusBadRequest {
			t.Fatalf("body %q: status %d, want 400", body, resp.StatusCode)
		}
	}
	// Trailing whitespace is not data.
	if _, err := decode(strings.NewReader("{\"seed\": 5} \n\t"), ""); err != nil {
		t.Fatalf("trailing whitespace rejected: %v", err)
	}
}

// withDefaults returns the default request with edit applied.
func withDefaults(edit func(*experiments.Request)) experiments.Request {
	req := experiments.DefaultRequest()
	edit(&req)
	return req
}

// TestRequestCapsAcceptBounds: a request exactly at the horizon, VM
// and slot-product caps is valid. Checked through resolve only: a
// trial of cap size is never run.
func TestRequestCapsAcceptBounds(t *testing.T) {
	// 62500 hyper-periods of the default system's H = 16000.
	if rq, err := resolve(withDefaults(func(r *experiments.Request) { r.Hyperperiods = 62500 })); err != nil || rq.Trial.Horizon != maxHorizon {
		t.Errorf("horizon at the cap: %v, want a %d-slot trial", err, maxHorizon)
	}
	if rq, err := resolve(withDefaults(func(r *experiments.Request) { r.VMs = maxVMs })); err != nil || rq.Trial.VMs != maxVMs {
		t.Errorf("VMs at the cap: %v, want a %d-VM trial", err, maxVMs)
	}
	// 10000 trials × 625 × 16000 slots = maxSlots exactly.
	rq, err := resolve(withDefaults(func(r *experiments.Request) { r.Trials, r.Hyperperiods = maxTrials, 625 }))
	if err != nil || slot.Time(rq.Trials)*rq.Trial.Horizon != maxSlots {
		t.Errorf("trials × horizon at the cap: %v, want %d slots", err, maxSlots)
	}
}

// TestSlotProductCapped: trials and horizon each within their caps can
// still multiply to more simulated slots than one request may queue.
// Checked through resolve only.
func TestSlotProductCapped(t *testing.T) {
	// 10000 trials × 62500 × 16000 slots = 10^13.
	if _, err := resolve(withDefaults(func(r *experiments.Request) { r.Trials, r.Hyperperiods = maxTrials, 62500 })); err == nil {
		t.Error("10^13 slots accepted")
	}
	// One past the product bound: 10000 trials × 626 × 16000 slots.
	if _, err := resolve(withDefaults(func(r *experiments.Request) { r.Trials, r.Hyperperiods = maxTrials, 626 })); err == nil {
		t.Error("trials × horizon one hyper-period past the cap accepted")
	}
}

// TestOversizedTrialCountsRejected: a trial count the server could
// never admit is a 400 before any cell is laid out — above maxTrials
// on both endpoints, and above the queue depth on the synchronous one
// (a retryable 429 would invite a retry that can never succeed).
func TestOversizedTrialCountsRejected(t *testing.T) {
	srv := New(Config{Batcher: BatcherConfig{QueueDepth: 8}})
	defer srv.Close()
	hts := httptest.NewServer(srv.Handler())
	defer hts.Close()

	for _, tc := range []struct {
		path   string
		trials int
	}{
		{"/v1/trials", maxTrials + 1},
		{"/v1/sweeps", maxTrials + 1},
		{"/v1/trials", 9},
	} {
		resp := postJSON(t, hts.URL+tc.path, lightRequest(tc.trials))
		resp.Body.Close()
		if resp.StatusCode != http.StatusBadRequest {
			t.Errorf("%s with %d trials: status %d, want 400", tc.path, tc.trials, resp.StatusCode)
		}
	}
	if st := srv.Batcher().Stats(); st.RejectedRequests != 0 || st.AcceptedTrials != 0 {
		t.Errorf("oversized requests reached admission: %+v", st)
	}
	// A request exactly at the queue depth is admitted whole.
	if lines := readLines(t, postJSON(t, hts.URL+"/v1/trials", lightRequest(8))); len(lines) != 8 {
		t.Errorf("trials at the queue depth: got %d lines, want 8", len(lines))
	}
}

// TestFaultedTrialsRoundTrip: a request carrying a fault plan streams
// fault-annotated renders, reproduces byte-identically on rerun, and
// matches direct execution of the resolved cells — the server-side
// face of the -fault-seed replay contract.
func TestFaultedTrialsRoundTrip(t *testing.T) {
	srv := New(Config{})
	defer srv.Close()
	hts := httptest.NewServer(srv.Handler())
	defer hts.Close()

	req := lightRequest(3)
	req["fault_seed"] = 7
	req["fault_jitter"] = 40
	req["fault_drop"] = 0.05
	lines := readLines(t, postJSON(t, hts.URL+"/v1/trials", req))
	if len(lines) != 3 {
		t.Fatalf("got %d lines, want 3", len(lines))
	}
	for i, l := range lines {
		if !bytes.Contains([]byte(l.Rendered), []byte("faults injected:")) {
			t.Fatalf("line %d render missing fault block:\n%s", i, l.Rendered)
		}
	}
	again := readLines(t, postJSON(t, hts.URL+"/v1/trials", req))
	for i := range lines {
		if lines[i].Rendered != again[i].Rendered {
			t.Fatalf("faulted rerun diverged at line %d", i)
		}
	}
	rq := resolveBody(t, req)
	results, err := system.RunCells(rq.Cells(), 1)
	if err != nil {
		t.Fatalf("runcells: %v", err)
	}
	for i, res := range results {
		if res.Faults == nil {
			t.Fatalf("trial %d: no fault summary on direct execution", i)
		}
		if lines[i].Completed != res.Completed || lines[i].CriticalMisses != res.CriticalMisses {
			t.Fatalf("trial %d diverges from direct execution", i)
		}
	}
}

// TestSaturationReturns429 drives more concurrent trials than the
// queue admits and checks three things: some requests are refused
// with 429 + Retry-After, refused requests admit nothing, and every
// accepted request streams back its full trial count — an accepted
// job is never dropped. The collector starts only after the first
// 429, so the queue is full when the clients first arrive.
func TestSaturationReturns429(t *testing.T) {
	b := newBatcher(BatcherConfig{QueueDepth: 8})
	srv := newServer(Config{}, b)
	defer srv.Close()
	hts := httptest.NewServer(srv.Handler())
	defer hts.Close()

	const clients = 16
	var (
		mu        sync.Mutex
		rejected  int
		complete  int
		short     int
		firstOnce sync.Once
	)
	firstReject := make(chan struct{})
	var wg sync.WaitGroup
	for c := 0; c < clients; c++ {
		wg.Add(1)
		go func() {
			defer wg.Done()
			for i := 0; i < 4; i++ {
				resp := postJSON(t, hts.URL+"/v1/trials", lightRequest(4))
				switch resp.StatusCode {
				case http.StatusOK:
					n := 0
					sc := bufio.NewScanner(resp.Body)
					for sc.Scan() {
						n++
					}
					resp.Body.Close()
					mu.Lock()
					if n == 4 {
						complete++
					} else {
						short++
					}
					mu.Unlock()
				case http.StatusTooManyRequests:
					ra := resp.Header.Get("Retry-After")
					if secs, err := strconv.Atoi(ra); err != nil || secs < 1 {
						t.Errorf("429 without usable Retry-After %q", ra)
					}
					var eb errorBody
					if err := json.NewDecoder(resp.Body).Decode(&eb); err != nil || eb.RetryAfterMs <= 0 {
						t.Errorf("429 body missing retry_after_ms: %v %+v", err, eb)
					}
					resp.Body.Close()
					mu.Lock()
					rejected++
					mu.Unlock()
					firstOnce.Do(func() { close(firstReject) })
				default:
					resp.Body.Close()
					t.Errorf("unexpected status %d", resp.StatusCode)
				}
			}
		}()
	}
	<-firstReject
	go b.collect()
	wg.Wait()

	if rejected == 0 {
		t.Fatal("admission control never engaged (no 429s)")
	}
	if short != 0 {
		t.Fatalf("%d accepted requests streamed fewer trials than admitted", short)
	}
	st := srv.Batcher().Stats()
	if st.RejectedRequests != int64(rejected) {
		t.Fatalf("server admission counter %d != client-observed 429s %d", st.RejectedRequests, rejected)
	}
	if st.ExecutedTrials != st.AcceptedTrials {
		t.Fatalf("executed %d of %d accepted trials", st.ExecutedTrials, st.AcceptedTrials)
	}
	if st.AcceptedTrials != int64(complete*4) {
		t.Fatalf("accepted %d trials but clients saw %d", st.AcceptedTrials, complete*4)
	}
}

// TestBatcherAllOrNothing pins the reservation arithmetic directly:
// a request larger than the remaining depth is refused whole, a
// smaller one still fits, and Close resolves every admitted unit.
func TestBatcherAllOrNothing(t *testing.T) {
	// No collector yet: reservations stay pinned until Close drains.
	b := newBatcher(BatcherConfig{QueueDepth: 4, Workers: 1})
	rq := resolveBody(t, lightRequest(3))
	cells3 := rq.Cells()

	first, err := b.Enqueue(cells3)
	if err != nil {
		t.Fatalf("first enqueue: %v", err)
	}
	if _, err := b.Enqueue(cells3); err != ErrSaturated {
		t.Fatalf("oversized enqueue: got %v, want ErrSaturated", err)
	}
	second, err := b.Enqueue(cells3[:1])
	if err != nil {
		t.Fatalf("fitting enqueue refused: %v", err)
	}
	st := b.Stats()
	if st.RejectedRequests != 1 || st.RejectedTrials != 3 || st.AcceptedTrials != 4 {
		t.Fatalf("admission counters wrong: %+v", st)
	}

	go b.collect()
	b.Close() // must drain: all four admitted units resolve
	for i, u := range append(first, second...) {
		select {
		case res := <-u.Done():
			if res.Err != nil || res.Res == nil {
				t.Fatalf("unit %d failed: %+v", i, res)
			}
		default:
			t.Fatalf("unit %d unresolved after Close", i)
		}
	}
	if st := b.Stats(); st.ExecutedTrials != 4 || st.Queued != 0 {
		t.Fatalf("drain incomplete: %+v", st)
	}
}

// TestBatchErrorAttribution: one poisoned cell must not fail its
// batch-mates — the batcher retries individually and attributes the
// error to exactly the bad cell.
func TestBatchErrorAttribution(t *testing.T) {
	b := newBatcher(BatcherConfig{QueueDepth: 16, Workers: 1})
	defer b.Close()
	rq := resolveBody(t, lightRequest(3))
	cells := rq.Cells()
	cells[1].Trial.Horizon = 0 // poison: Run rejects a non-positive horizon

	units, err := b.Enqueue(cells)
	if err != nil {
		t.Fatalf("enqueue: %v", err)
	}
	go b.collect() // the three queued cells run as one batch
	for i, u := range units {
		res := <-u.Done()
		if res.Timing.BatchSize != len(cells) {
			t.Fatalf("cell %d ran in a batch of %d, want %d", i, res.Timing.BatchSize, len(cells))
		}
		if i == 1 {
			if res.Err == nil {
				t.Fatal("poisoned cell did not report its error")
			}
			continue
		}
		if res.Err != nil || res.Res == nil {
			t.Fatalf("healthy cell %d caught its batch-mate's error: %+v", i, res)
		}
	}
}

// TestBatchIsWhatIsQueued: the cells of three requests queued before
// the collector starts run as one batch, with no timer involved.
func TestBatchIsWhatIsQueued(t *testing.T) {
	b := newBatcher(BatcherConfig{Workers: 1})
	defer b.Close()
	var units []*Unit
	total := 0
	for _, n := range []int{1, 2, 3} {
		cells := resolveBody(t, lightRequest(n)).Cells()
		us, err := b.Enqueue(cells)
		if err != nil {
			t.Fatalf("enqueue %d: %v", n, err)
		}
		units = append(units, us...)
		total += n
	}
	go b.collect()
	for i, u := range units {
		res := <-u.Done()
		if res.Err != nil || res.Timing.BatchSize != total {
			t.Fatalf("unit %d: err %v, batch of %d, want one batch of %d", i, res.Err, res.Timing.BatchSize, total)
		}
	}
	if st := b.Stats(); st.Batches != 1 || st.ExecutedTrials != int64(total) {
		t.Fatalf("want one batch of %d: %+v", total, st)
	}
}

// TestBatchCap: a backlog longer than maxBatch runs as a full batch
// of the first maxBatch cells in queue order, then the remainder; Close
// on the running batcher resolves all of it.
func TestBatchCap(t *testing.T) {
	const backlog = maxBatch + 6
	b := newBatcher(BatcherConfig{Workers: 1})
	cells := resolveBody(t, lightRequest(backlog)).Cells()
	units, err := b.Enqueue(cells)
	if err != nil {
		t.Fatalf("enqueue: %v", err)
	}
	go b.collect()
	b.Close()
	for i, u := range units {
		want := maxBatch
		if i >= maxBatch {
			want = backlog - maxBatch
		}
		select {
		case res := <-u.Done():
			if res.Err != nil || res.Res == nil || res.Timing.BatchSize != want {
				t.Fatalf("unit %d: %+v, want a result from a batch of %d", i, res, want)
			}
		default:
			t.Fatalf("unit %d unresolved after Close", i)
		}
	}
	if st := b.Stats(); st.Batches != 2 || st.ExecutedTrials != backlog || st.Queued != 0 {
		t.Fatalf("want 2 batches draining %d trials: %+v", backlog, st)
	}
}

// TestSweepJobLifecycle: async submit returns 202 + id, the job
// reaches done, status carries the aggregate, and the results
// endpoint streams every per-trial line. Unknown ids are 404s.
func TestSweepJobLifecycle(t *testing.T) {
	srv := New(Config{})
	defer srv.Close()
	hts := httptest.NewServer(srv.Handler())
	defer hts.Close()

	resp := postJSON(t, hts.URL+"/v1/sweeps", lightRequest(5))
	if resp.StatusCode != http.StatusAccepted {
		t.Fatalf("submit status %d", resp.StatusCode)
	}
	var st SweepStatus
	if err := json.NewDecoder(resp.Body).Decode(&st); err != nil {
		t.Fatalf("decode: %v", err)
	}
	resp.Body.Close()
	if st.ID == "" || st.Trials != 5 {
		t.Fatalf("bad submit status: %+v", st)
	}

	wresp, err := http.Get(hts.URL + "/v1/sweeps/" + st.ID + "/results?wait=1")
	if err != nil {
		t.Fatalf("results: %v", err)
	}
	var nlines int
	sc := bufio.NewScanner(wresp.Body)
	for sc.Scan() {
		nlines++
	}
	wresp.Body.Close()
	if nlines != 5 {
		t.Fatalf("results streamed %d lines, want 5", nlines)
	}

	sresp, err := http.Get(hts.URL + "/v1/sweeps/" + st.ID)
	if err != nil {
		t.Fatalf("status: %v", err)
	}
	var final SweepStatus
	if err := json.NewDecoder(sresp.Body).Decode(&final); err != nil {
		t.Fatalf("decode status: %v", err)
	}
	sresp.Body.Close()
	if final.State != JobDone || final.Completed != 5 || final.Aggregate == nil {
		t.Fatalf("job not finished: %+v", final)
	}
	if final.Aggregate.Trials != 5 || final.Aggregate.Rendered == "" {
		t.Fatalf("bad aggregate: %+v", final.Aggregate)
	}

	nf, err := http.Get(hts.URL + "/v1/sweeps/sweep-999999")
	if err != nil {
		t.Fatalf("get: %v", err)
	}
	nf.Body.Close()
	if nf.StatusCode != http.StatusNotFound {
		t.Fatalf("unknown id: status %d, want 404", nf.StatusCode)
	}
}

// runSweep submits a sweep in the given metrics mode, waits for it,
// and returns the final status fetched from url + query.
func runSweep(t *testing.T, hts *httptest.Server, mode string, query string) SweepStatus {
	t.Helper()
	req := lightRequest(4)
	req["metrics"] = mode
	resp := postJSON(t, hts.URL+"/v1/sweeps", req)
	var st SweepStatus
	if err := json.NewDecoder(resp.Body).Decode(&st); err != nil {
		t.Fatalf("decode submit: %v", err)
	}
	resp.Body.Close()
	wresp, err := http.Get(hts.URL + "/v1/sweeps/" + st.ID + "/results?wait=1")
	if err != nil {
		t.Fatalf("wait: %v", err)
	}
	wresp.Body.Close()
	sresp, err := http.Get(hts.URL + "/v1/sweeps/" + st.ID + query)
	if err != nil {
		t.Fatalf("status: %v", err)
	}
	defer sresp.Body.Close()
	var final SweepStatus
	if err := json.NewDecoder(sresp.Body).Decode(&final); err != nil {
		t.Fatalf("decode status: %v", err)
	}
	return final
}

// TestSweepAggregateDistSummaries: the sweep payload carries merged
// cross-trial quantile summaries per metrics mode — exact folds with
// ε=0, streaming folds at the sketch's ε — and ?sketch=1 attaches a serialized sketch that decodes back into a
// recorder agreeing with the summary.
func TestSweepAggregateDistSummaries(t *testing.T) {
	srv := New(Config{})
	defer srv.Close()
	hts := httptest.NewServer(srv.Handler())
	defer hts.Close()

	exact := runSweep(t, hts, "exact", "")
	if exact.Aggregate == nil || exact.Aggregate.Response == nil {
		t.Fatalf("exact sweep missing response summary: %+v", exact.Aggregate)
	}
	if d := exact.Aggregate.Response; d.Epsilon != 0 || d.N == 0 || d.P50 > d.P99 || d.P99 > d.Max {
		t.Fatalf("exact response summary inconsistent: %+v", d)
	}
	if len(exact.Aggregate.ResponseSketch) != 0 {
		t.Fatalf("exact sweep leaked a serialized sketch without ?sketch=1")
	}

	stream := runSweep(t, hts, "stream", "?sketch=1")
	d := stream.Aggregate.Response
	if d == nil || d.Epsilon <= 0 {
		t.Fatalf("stream response summary not merged: %+v", d)
	}
	if d.N != exact.Aggregate.Response.N {
		t.Fatalf("stream folded %d observations, exact folded %d", d.N, exact.Aggregate.Response.N)
	}
	if len(stream.Aggregate.ResponseSketch) == 0 {
		t.Fatalf("?sketch=1 returned no serialized response sketch")
	}
	var dec metrics.Streaming
	if err := json.Unmarshal(stream.Aggregate.ResponseSketch, &dec); err != nil {
		t.Fatalf("serialized sketch does not decode: %v", err)
	}
	if dec.N() != int(d.N) || dec.Percentile(99) != d.P99 {
		t.Fatalf("decoded sketch (n=%d p99=%g) disagrees with summary %+v", dec.N(), dec.Percentile(99), d)
	}
}

// TestJobStoreSaturation fills the queue of a store whose runner is
// not started, so admission is tested without racing execution; Close
// must then drain every accepted job.
func TestJobStoreSaturation(t *testing.T) {
	s := newJobStore(JobStoreConfig{MaxJobs: 2, Workers: 1})
	rq := resolveBody(t, lightRequest(2))
	var jobs []*Job
	for i := 0; i < 2; i++ {
		j, err := s.Submit(rq)
		if err != nil {
			t.Fatalf("submit %d: %v", i, err)
		}
		jobs = append(jobs, j)
	}
	if _, err := s.Submit(rq); err != ErrSaturated {
		t.Fatalf("overflow submit: got %v, want ErrSaturated", err)
	}
	if st := s.Stats(); st.Accepted != 2 || st.Rejected != 1 {
		t.Fatalf("job counters wrong: %+v", st)
	}

	go s.run()
	s.Close() // drains both accepted jobs
	for i, j := range jobs {
		st := j.Status()
		if st.State != JobDone || st.Completed != 2 {
			t.Fatalf("job %d not drained: %+v", i, st)
		}
	}
}

// TestServerCloseDrains: trials admitted just before shutdown still
// resolve — Close waits for both execution paths. The collector starts
// only once Close has stopped admission, so Close is called while the
// units are still queued.
func TestServerCloseDrains(t *testing.T) {
	b := newBatcher(BatcherConfig{QueueDepth: 64})
	srv := newServer(Config{}, b)
	rq := resolveBody(t, lightRequest(4))
	units, err := srv.Batcher().Enqueue(rq.Cells())
	if err != nil {
		t.Fatalf("enqueue: %v", err)
	}
	job, err := srv.Jobs().Submit(rq)
	if err != nil {
		t.Fatalf("submit: %v", err)
	}
	closed := make(chan struct{})
	go func() {
		srv.Close()
		close(closed)
	}()
	for {
		b.mu.RLock()
		closing := b.closed
		b.mu.RUnlock()
		if closing {
			break
		}
		runtime.Gosched()
	}
	go b.collect()
	<-closed
	for i, u := range units {
		select {
		case res := <-u.Done():
			if res.Err != nil {
				t.Fatalf("unit %d: %v", i, res.Err)
			}
		default:
			t.Fatalf("unit %d unresolved after Close", i)
		}
	}
	if st := job.Status(); st.State != JobDone {
		t.Fatalf("job not drained: %+v", st)
	}
}

// TestStatsEndpoint sanity-checks the counters surfaced to /v1/stats.
func TestStatsEndpoint(t *testing.T) {
	srv := New(Config{})
	defer srv.Close()
	hts := httptest.NewServer(srv.Handler())
	defer hts.Close()

	readLines(t, postJSON(t, hts.URL+"/v1/trials", lightRequest(2)))
	resp, err := http.Get(hts.URL + "/v1/stats")
	if err != nil {
		t.Fatalf("stats: %v", err)
	}
	defer resp.Body.Close()
	var st StatsResponse
	if err := json.NewDecoder(resp.Body).Decode(&st); err != nil {
		t.Fatalf("decode: %v", err)
	}
	if st.Batcher.AcceptedTrials != 2 || st.Batcher.ExecutedTrials != 2 || st.Batcher.Batches == 0 {
		t.Fatalf("batcher stats wrong: %+v", st.Batcher)
	}
	if st.Batcher.MeanBatchSize <= 0 || st.Batcher.ExecMeanMs <= 0 {
		t.Fatalf("timing recorders empty: %+v", st.Batcher)
	}
}
