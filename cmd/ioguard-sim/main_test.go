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
	"ioguard/internal/metrics"
	"ioguard/internal/server"
	"ioguard/internal/system"
	"ioguard/internal/system/systemtest"
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

// stepping calls f with the command's trials run through
// systemtest.Dense when dense is set, and as they are otherwise.
func stepping(dense bool, f func() error) error {
	if !dense {
		return f()
	}
	orig := runTrial
	runTrial = func(build system.Builder, tr system.Trial) (*metrics.TrialResult, error) {
		return orig(systemtest.Dense(build), tr)
	}
	defer func() { runTrial = orig }()
	return f()
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
			err := run(&out, "ioguard-70", "case", 2, 0.5, 1, 1, 1, 0, "trace.csv", false, cliflags.Resolved{Workers: 1, Metrics: mode})
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
// and with every slot stepped (systemtest.Dense).
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
		err := stepping(r.dense, func() error {
			return run(&out, "ioguard-70", "case", 2, 0.5, 1, 1, 1, 30, path, false, cliflags.Resolved{Workers: 1, Metrics: r.mode})
		})
		if err != nil {
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
	err := run(&out, "ioguard-70", "case", 2, 0.5, 0, 1, 1, 0, "trace.csv", false, cliflags.Resolved{Workers: 1, Metrics: system.MetricsStream})
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
// server's fast-forward run matches the command's trial stepped in
// every slot (systemtest.Dense).
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
			err := stepping(tc.cliDense, func() error {
				return run(&cli, tc.system, "case", 2, 0.5, 1, 7, 1, 0, "", false, cliflags.Resolved{Workers: 1, Metrics: tc.metrics})
			})
			if err != nil {
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
	if err := run(&cli, "bluevisor", "case", 2, 0.5, 1, 7, 5, 0, "", false, cliflags.Resolved{Workers: 2, Metrics: system.MetricsExact}); err != nil {
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

// TestTrialsBelowOneRejected: -trials 0 and -trials -1 are errors, not
// a silent single trial.
func TestTrialsBelowOneRejected(t *testing.T) {
	for _, trials := range []int{0, -1} {
		var out bytes.Buffer
		err := run(&out, "bluevisor", "case", 2, 0.5, 1, 1, trials, 0, "", false, cliflags.Resolved{Workers: 1})
		if err == nil || !strings.Contains(err.Error(), "-trials") {
			t.Errorf("-trials %d: err = %v, want a -trials error", trials, err)
		}
		if out.Len() != 0 {
			t.Errorf("-trials %d: printed output:\n%s", trials, out.String())
		}
	}
}

// denseAndDefault runs the command twice, once with every slot stepped
// (systemtest.Dense) and once as it is, and returns both outputs.
func denseAndDefault(t *testing.T, f func(out io.Writer) error) (dense, def string) {
	t.Helper()
	var d, ff bytes.Buffer
	if err := stepping(true, func() error { return f(&d) }); err != nil {
		t.Fatalf("dense: %v", err)
	}
	if err := f(&ff); err != nil {
		t.Fatal(err)
	}
	return d.String(), ff.String()
}

// TestGanttCSVDenseMatchesExact: ioguard-sim -system ioguard-40
// -gantt 60 -csv prints the same chart and writes the same CSV bytes
// whether every slot is stepped or idle slots are skipped. The other
// settings are the command's defaults.
func TestGanttCSVDenseMatchesExact(t *testing.T) {
	path := filepath.Join(t.TempDir(), "trace.csv")
	var csv [][]byte
	dense, def := denseAndDefault(t, func(out io.Writer) error {
		if err := run(out, "ioguard-40", "case", 4, 0.7, 3, 1, 1, 60, path, false, cliflags.Resolved{Metrics: system.MetricsExact}); err != nil {
			return err
		}
		b, err := os.ReadFile(path)
		csv = append(csv, b)
		return err
	})
	if !strings.Contains(def, "slots 0..59") {
		t.Fatalf("no Gantt chart in output:\n%s", def)
	}
	if dense != def {
		t.Errorf("dense stdout differs:\n%s\n--- exact ---\n%s", dense, def)
	}
	if len(csv[1]) == 0 || !bytes.Equal(csv[0], csv[1]) {
		t.Errorf("dense CSV (%d bytes) differs from exact (%d bytes)", len(csv[0]), len(csv[1]))
	}
}

// TestPartitionDenseMatchesDefault: ioguard-sim -system partition -vms 4
// -hyperperiods 2 -seed 3 prints the same trial dense and by default.
func TestPartitionDenseMatchesDefault(t *testing.T) {
	dense, def := denseAndDefault(t, func(out io.Writer) error {
		return run(out, "partition", "case", 4, 0.7, 2, 3, 1, 0, "", false, cliflags.Resolved{})
	})
	if !strings.Contains(def, "system: ") {
		t.Fatalf("no metrics block in output:\n%s", def)
	}
	if dense != def {
		t.Errorf("dense output differs:\n%s\n--- default ---\n%s", dense, def)
	}
}

// TestAvionicsGolden: ioguard-sim -workload avionics -system ioguard-70
// -vms 4 -hyperperiods 1 -seed 1 reproduces testdata/avionics_golden.txt,
// generated with the per-slot slot table, byte for byte, both dense
// and by default.
func TestAvionicsGolden(t *testing.T) {
	golden, err := os.ReadFile(filepath.Join("testdata", "avionics_golden.txt"))
	if err != nil {
		t.Fatal(err)
	}
	dense, def := denseAndDefault(t, func(out io.Writer) error {
		return run(out, "ioguard-70", "avionics", 4, 0.7, 1, 1, 1, 0, "", false, cliflags.Resolved{})
	})
	for name, got := range map[string]string{"dense": dense, "default": def} {
		if got != string(golden) {
			t.Errorf("%s output differs from the golden:\n%s\n--- golden ---\n%s", name, got, golden)
		}
	}
}
