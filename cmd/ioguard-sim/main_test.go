package main

import (
	"bufio"
	"bytes"
	"encoding/json"
	"errors"
	"io"
	"net/http"
	"net/http/httptest"
	"os"
	"path/filepath"
	"strings"
	"testing"

	"ioguard/internal/cliflags"
	"ioguard/internal/server"
	"ioguard/internal/system"
)

// failingWriter accepts `left` bytes and then fails every write — the
// same shape internal/trace uses to pin the sink's sticky-error
// contract, here exercising the CLI's exit paths.
type failingWriter struct {
	left int
}

var errDiskFull = errors.New("disk full")

func (w *failingWriter) Write(p []byte) (int, error) {
	if w.left <= 0 {
		return 0, errDiskFull
	}
	n := len(p)
	if n > w.left {
		n = w.left
		w.left = 0
		return n, errDiskFull
	}
	w.left -= n
	return n, nil
}

func (w *failingWriter) Close() error { return nil }

// withFailingTraceFile routes -csv output into a failing writer for
// the duration of the test.
func withFailingTraceFile(t *testing.T, budget int) {
	t.Helper()
	orig := openTraceFile
	openTraceFile = func(string) (io.WriteCloser, error) { return &failingWriter{left: budget}, nil }
	t.Cleanup(func() { openTraceFile = orig })
}

// TestStreamCSVFlushErrorSurfaces: a trial that itself succeeds must
// still fail the command when the streamed trace hit a write error —
// the sink swallows it on the hot path and only Flush reveals it. -csv
// streams in both metrics modes.
func TestStreamCSVFlushErrorSurfaces(t *testing.T) {
	for _, mode := range []system.MetricsMode{system.MetricsExact, system.MetricsStream} {
		t.Run(mode.String(), func(t *testing.T) {
			withFailingTraceFile(t, 64)
			var out bytes.Buffer
			err := run(&out, "ioguard-70", "case", 2, 0.5, 1, 1, 1, 0, "trace.csv", false, false, cliflags.Resolved{Workers: 1, Metrics: mode})
			if err == nil {
				t.Fatal("run succeeded despite failing trace writer")
			}
			if !strings.Contains(err.Error(), "streaming csv") || !errors.Is(err, errDiskFull) {
				t.Fatalf("error does not surface the sink failure: %v", err)
			}
			if strings.Contains(out.String(), "streamed trace events") {
				t.Fatalf("success message printed despite flush error:\n%s", out.String())
			}
		})
	}
}

// TestTraceOutputIdenticalAcrossModes: -gantt and -csv together print
// the chart and write the same CSV bytes in exact mode, stream mode
// and with -dense.
func TestTraceOutputIdenticalAcrossModes(t *testing.T) {
	dir := t.TempDir()
	runs := []struct {
		name  string
		mode  system.MetricsMode
		dense bool
	}{
		{"exact", system.MetricsExact, false},
		{"stream", system.MetricsStream, false},
		{"dense", system.MetricsExact, true},
	}
	var wantOut, wantCSV []byte
	for i, r := range runs {
		path := filepath.Join(dir, r.name+".csv")
		var out bytes.Buffer
		if err := run(&out, "ioguard-70", "case", 2, 0.5, 1, 1, 1, 30, path, false, r.dense, cliflags.Resolved{Workers: 1, Metrics: r.mode}); err != nil {
			t.Fatalf("%s: %v", r.name, err)
		}
		if !strings.Contains(out.String(), "slots 0..29") || strings.Contains(out.String(), "no trace recorded") {
			t.Fatalf("%s: no Gantt rows in output:\n%s", r.name, out.String())
		}
		got, err := os.ReadFile(path)
		if err != nil {
			t.Fatal(err)
		}
		if !strings.Contains(string(got), ",execute,") || !strings.Contains(string(got), ",complete,") {
			t.Fatalf("%s: CSV lacks execute or complete rows", r.name)
		}
		// The status line names the file; compare the rest.
		stdout := bytes.ReplaceAll(out.Bytes(), []byte(path), []byte("trace.csv"))
		if i == 0 {
			wantOut, wantCSV = stdout, got
			continue
		}
		if !bytes.Equal(stdout, wantOut) {
			t.Errorf("%s: stdout differs from %s:\n%s\n--- want ---\n%s", r.name, runs[0].name, stdout, wantOut)
		}
		if !bytes.Equal(got, wantCSV) {
			t.Errorf("%s: CSV differs from %s", r.name, runs[0].name)
		}
	}
}

// TestFlushErrorJoinedWithTrialError: when the trial errors after the
// sink was opened (partial trace output), the command must report
// BOTH the trial error and the flush error — the early-exit path used
// to drop the latter.
func TestFlushErrorJoinedWithTrialError(t *testing.T) {
	withFailingTraceFile(t, 3) // header alone overruns the budget
	var out bytes.Buffer
	// hyperperiods 0 → non-positive horizon: the trial fails after the
	// sink exists and the header row is buffered.
	err := run(&out, "ioguard-70", "case", 2, 0.5, 0, 1, 1, 0, "trace.csv", false, false, cliflags.Resolved{Workers: 1, Metrics: system.MetricsStream})
	if err == nil {
		t.Fatal("run succeeded despite trial error and failing writer")
	}
	if !strings.Contains(err.Error(), "non-positive horizon") {
		t.Fatalf("trial error lost: %v", err)
	}
	if !strings.Contains(err.Error(), "streaming csv") || !errors.Is(err, errDiskFull) {
		t.Fatalf("flush error lost on early-exit path: %v", err)
	}
}

// TestServerTrialMatchesCLI pins the service contract: a trial
// executed through POST /v1/trials renders byte-identically to this
// command at the same parameters, for both collector modes — and the
// server's sharded run matches the command's dense reference loop.
func TestServerTrialMatchesCLI(t *testing.T) {
	srv := server.New(server.Config{})
	defer srv.Close()
	ts := httptest.NewServer(srv.Handler())
	defer ts.Close()

	cases := []struct {
		name     string
		system   string
		metrics  system.MetricsMode
		cliDense bool
	}{
		{"exact", "ioguard-70", system.MetricsExact, false},
		{"stream", "ioguard-70", system.MetricsStream, false},
		{"baseline", "bluevisor", system.MetricsExact, false},
		{"sharded", "ioguard-70", system.MetricsExact, true},
	}
	for _, tc := range cases {
		t.Run(tc.name, func(t *testing.T) {
			var cli bytes.Buffer
			if err := run(&cli, tc.system, "case", 2, 0.5, 1, 7, 1, 0, "", false, tc.cliDense, cliflags.Resolved{Workers: 1, Metrics: tc.metrics}); err != nil {
				t.Fatalf("cli run: %v", err)
			}

			body, _ := json.Marshal(map[string]any{
				"system":       tc.system,
				"vms":          2,
				"util":         0.5,
				"hyperperiods": 1,
				"seed":         7,
				"metrics":      tc.metrics.String(),
			})
			resp, err := http.Post(ts.URL+"/v1/trials", "application/json", bytes.NewReader(body))
			if err != nil {
				t.Fatalf("post: %v", err)
			}
			defer resp.Body.Close()
			if resp.StatusCode != http.StatusOK {
				t.Fatalf("status %d", resp.StatusCode)
			}
			sc := bufio.NewScanner(resp.Body)
			if !sc.Scan() {
				t.Fatalf("no result line: %v", sc.Err())
			}
			var line struct {
				Rendered string `json:"rendered"`
				Error    string `json:"error"`
			}
			if err := json.Unmarshal(sc.Bytes(), &line); err != nil {
				t.Fatalf("bad line: %v", err)
			}
			if line.Error != "" {
				t.Fatalf("server trial failed: %s", line.Error)
			}
			// The CLI prints a workload banner then the metrics block;
			// the server's rendered block must match it byte for byte.
			idx := strings.Index(cli.String(), "system: ")
			if idx < 0 {
				t.Fatalf("no metrics block in CLI output:\n%s", cli.String())
			}
			if got, want := line.Rendered, cli.String()[idx:]; got != want {
				t.Fatalf("server output diverges from CLI:\n--- server ---\n%s\n--- cli ---\n%s", got, want)
			}
		})
	}
}

// TestSweepAggregateMatchesCLI does the same for the asynchronous
// sweep path: submit, poll to done, compare the rendered aggregate.
func TestSweepAggregateMatchesCLI(t *testing.T) {
	srv := server.New(server.Config{})
	defer srv.Close()
	hts := httptest.NewServer(srv.Handler())
	defer hts.Close()

	var cli bytes.Buffer
	if err := run(&cli, "bluevisor", "case", 2, 0.5, 1, 7, 5, 0, "", false, false, cliflags.Resolved{Workers: 2, Metrics: system.MetricsExact}); err != nil {
		t.Fatalf("cli run: %v", err)
	}

	body, _ := json.Marshal(map[string]any{
		"system": "bluevisor", "vms": 2, "util": 0.5, "hyperperiods": 1, "seed": 7, "trials": 5,
	})
	resp, err := http.Post(hts.URL+"/v1/sweeps", "application/json", bytes.NewReader(body))
	if err != nil {
		t.Fatalf("post: %v", err)
	}
	defer resp.Body.Close()
	if resp.StatusCode != http.StatusAccepted {
		t.Fatalf("status %d", resp.StatusCode)
	}
	var st struct {
		ID string `json:"id"`
	}
	if err := json.NewDecoder(resp.Body).Decode(&st); err != nil {
		t.Fatalf("decode submit: %v", err)
	}
	// ?wait=1 blocks until the job is terminal; then fetch the status.
	wr, err := http.Get(hts.URL + "/v1/sweeps/" + st.ID + "/results?wait=1")
	if err != nil {
		t.Fatalf("wait: %v", err)
	}
	wr.Body.Close()
	sr, err := http.Get(hts.URL + "/v1/sweeps/" + st.ID)
	if err != nil {
		t.Fatalf("status: %v", err)
	}
	defer sr.Body.Close()
	var status struct {
		State     string `json:"state"`
		Aggregate *struct {
			Rendered string `json:"rendered"`
		} `json:"aggregate"`
	}
	if err := json.NewDecoder(sr.Body).Decode(&status); err != nil {
		t.Fatalf("decode status: %v", err)
	}
	if status.State != "done" || status.Aggregate == nil {
		t.Fatalf("job not done: %+v", status)
	}
	idx := strings.Index(cli.String(), "system: ")
	if got, want := status.Aggregate.Rendered, cli.String()[idx:]; got != want {
		t.Fatalf("sweep aggregate diverges from CLI:\n--- server ---\n%s\n--- cli ---\n%s", got, want)
	}
}
