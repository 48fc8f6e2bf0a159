// Command ioguard-sim runs one slot-accurate simulation of a chosen
// architecture on the automotive case-study workload and prints the
// trial metrics (and optionally a Gantt excerpt of the I/O-GUARD
// hypervisor's schedule).
//
// Usage:
//
//	ioguard-sim -system ioguard-70 -vms 8 -util 0.85 -hyperperiods 4
//	ioguard-sim -system rtxen -vms 4 -util 0.6
//	ioguard-sim -system ioguard-40 -gantt 200
//	ioguard-sim -system ioguard-70 -trials 50 -workers 4
//	ioguard-sim -system ioguard-70 -hyperperiods 64 -metrics stream
//
// With -trials N > 1 the command repeats the trial across independent
// seeds on a deterministic worker pool and prints the aggregate
// (success ratio, throughput distribution) instead of single-trial
// metrics; -workers only changes wall-clock time, never the output.
//
// -metrics selects the collector implementation: exact (default)
// buffers every response time and reports exact percentiles; stream
// keeps collector memory independent of the horizon (Welford moments
// plus a KLL quantile sketch), which is what makes very long
// -hyperperiods runs tractable. Counters, throughput and min/max are
// identical in both modes. -csv writes rows online through a
// trace.CSVSink in either mode; -gantt renders from a trace.Recorder.
//
// The flags fill an experiments.Request, the same request the trial
// server decodes from its JSON body, and both resolve it through
// experiments.Request.Resolve: a server-executed trial at the same
// parameters is byte-identical to this command's output. -workers and
// -metrics are the shared execution flags (internal/cliflags); the
// -fault-* plan is this command's own (the server takes it as fault_*
// fields). -gantt, -csv and -bytask need a single trial.
package main

import (
	"errors"
	"flag"
	"fmt"
	"io"
	"os"
	"strings"

	"ioguard/internal/cliflags"
	"ioguard/internal/experiments"
	"ioguard/internal/hypervisor"
	"ioguard/internal/slot"
	"ioguard/internal/system"
	"ioguard/internal/task"
	"ioguard/internal/trace"
	"ioguard/internal/workload"
)

// openTraceFile creates the -csv output file. A variable so tests can
// substitute a failing writer and exercise the flush-error paths.
var openTraceFile = func(path string) (io.WriteCloser, error) { return os.Create(path) }

// runTrial executes a single trial. A variable so tests can run the
// command's fully wrapped builder through systemtest.Dense.
var runTrial = system.Run

func main() {
	req := requestFlags(flag.CommandLine)
	var (
		gantt   = flag.Int("gantt", 0, "print a Gantt chart of the first N slots (I/O-GUARD only, single trial)")
		csvPath = flag.String("csv", "", "write the execution trace as CSV (I/O-GUARD only, single trial)")
		byTask  = flag.Bool("bytask", false, "print per-task completion/miss statistics (single trial)")
	)
	exec := cliflags.RegisterDefault()
	flag.Parse()
	r, err := exec.Resolve()
	if err != nil {
		fmt.Fprintln(os.Stderr, "ioguard-sim:", err)
		os.Exit(1)
	}
	req.Metrics = exec.Metrics
	if err := run(os.Stdout, *req, *gantt, *csvPath, *byTask, r.Workers); err != nil {
		fmt.Fprintln(os.Stderr, "ioguard-sim:", err)
		os.Exit(1)
	}
}

// requestFlags binds the trial-request flags on fs straight into a
// request holding the defaults; -metrics is the shared cliflags flag.
func requestFlags(fs *flag.FlagSet) *experiments.Request {
	req := experiments.DefaultRequest()
	fs.StringVar(&req.System, "system", req.System, experiments.SystemSpecs())
	fs.StringVar(&req.Workload, "workload", req.Workload, "workload family: case (automotive case study) | avionics (ARINC-653-style long partition periods, H = 4,000,000 slots; -util is ignored)")
	fs.IntVar(&req.VMs, "vms", req.VMs, "number of virtual machines")
	fs.Float64Var(&req.Util, "util", req.Util, "target device utilization (case family only)")
	fs.IntVar(&req.Hyperperiods, "hyperperiods", req.Hyperperiods, "horizon in workload hyper-periods")
	fs.Int64Var(&req.Seed, "seed", req.Seed, "random seed")
	fs.IntVar(&req.Trials, "trials", req.Trials, "repeat across N independent seeds and print the aggregate")
	fs.Int64Var(&req.Plan.Seed, "fault-seed", 0,
		"fault-injection stream seed; the same seed replays a faulted trial byte-identically")
	fs.Int64Var((*int64)(&req.Plan.ReleaseJitter), "fault-jitter", 0,
		"max extra release jitter in slots injected at the workload layer (0 = off)")
	fs.Float64Var(&req.Plan.DropProb, "fault-drop", 0,
		"probability a request is lost in transport before reaching the system")
	fs.Float64Var(&req.Plan.DupProb, "fault-dup", 0,
		"probability a request is duplicated in transport")
	fs.Float64Var(&req.Plan.DelayProb, "fault-delay", 0,
		"probability a request is delayed in transport (requires -fault-delay-max)")
	fs.Int64Var((*int64)(&req.Plan.DelayMax), "fault-delay-max", 0,
		"max transport delay in slots for -fault-delay hits")
	return &req
}

func run(out io.Writer, req experiments.Request, gantt int, csvPath string, byTask bool, workers int) (err error) {
	if req.Trials > 1 && (gantt > 0 || csvPath != "" || byTask) {
		return fmt.Errorf("-gantt, -csv and -bytask need a single trial (got -trials %d)", req.Trials)
	}
	rq, err := req.Resolve()
	if err != nil {
		return err
	}
	ts := rq.Trial.Tasks
	fmt.Fprintf(out, "workload: %d tasks, per-device utilization %v, hyper-period %d slots\n",
		len(ts), formatUtil(workload.DeviceUtilization(ts)), ts.Hyperperiod())

	if rq.Trials > 1 {
		agg, err := system.ParallelSweep(rq.Build, rq.Trial, rq.Trials, workers)
		if err != nil {
			return err
		}
		fmt.Fprint(out, experiments.RenderAggregate(rq.System, agg))
		return nil
	}

	// Trace plumbing. The Recorder backs -gantt (it renders from the
	// executed slots); -csv streams every event through a CSVSink as it
	// happens, in either metrics mode. Completion rows reach the sink
	// via Collector.Observe.
	rec := &trace.Recorder{}
	var sink *trace.CSVSink
	if csvPath != "" {
		csvFile, ferr := openTraceFile(csvPath)
		if ferr != nil {
			return ferr
		}
		defer csvFile.Close()
		if sink, err = trace.NewCSVSink(csvFile); err != nil {
			return err
		}
		// Sticky-error contract: the sink swallows write errors on the
		// hot path and surfaces them at Flush, so EVERY exit path —
		// including a trial error after partial trace output — must
		// join the flush error into the command's result. The success
		// path below flushes inline (to order the error before its
		// status message) and clears sink so this runs only on early
		// exits.
		defer func() {
			if sink != nil {
				err = errors.Join(err, sink.Flush())
			}
		}()
	}
	build := rq.Build
	switch {
	case gantt > 0 && sink != nil:
		s := sink // sink is cleared once flushed; the hook keeps its own
		build = withTrace(build, func(now slot.Time, j *task.Job) {
			rec.OnExecute(now, j)
			s.OnExecute(now, j)
		})
	case gantt > 0:
		build = withTrace(build, rec.OnExecute)
	case sink != nil:
		build = withTrace(build, sink.OnExecute)
	}
	var captured *system.Collector
	wrapped := func(tr system.Trial, col *system.Collector) (system.System, error) {
		captured = col
		if byTask {
			col.TrackByTask()
		}
		if sink != nil {
			col.Observe(sink.OnComplete)
		}
		return build(tr, col)
	}
	res, err := runTrial(wrapped, rq.Trial)
	if err != nil {
		return err
	}
	fmt.Fprint(out, experiments.RenderTrial(rq.System, res))
	if gantt > 0 {
		if rec.Len() == 0 {
			fmt.Fprintln(out, "(no trace recorded: -gantt is only wired for ioguard-* systems)")
		} else {
			fmt.Fprintln(out)
			fmt.Fprint(out, rec.Gantt(0, slot.Time(gantt)))
		}
	}
	if byTask && captured != nil {
		fmt.Fprintln(out)
		fmt.Fprint(out, system.RenderByTask(captured.ByTask()))
	}
	if sink != nil {
		s := sink
		sink = nil // the deferred joiner must not flush again
		if err := s.Flush(); err != nil {
			return err
		}
		fmt.Fprintf(out, "streamed trace events to %s\n", csvPath)
	}
	return nil
}

func formatUtil(m map[string]float64) string {
	parts := make([]string, 0, len(m))
	for _, dev := range []string{"ethernet", "flexray"} {
		if u, ok := m[dev]; ok {
			parts = append(parts, fmt.Sprintf("%s=%.2f", dev, u))
		}
	}
	return strings.Join(parts, " ")
}

// withTrace hooks the per-slot execution callback into every manager
// of an I/O-GUARD system (baselines have no managers; the hook is a
// no-op for them, matching -gantt's documented scope).
func withTrace(build system.Builder, onExec func(slot.Time, *task.Job)) system.Builder {
	return func(tr system.Trial, col *system.Collector) (system.System, error) {
		s, err := build(tr, col)
		if err != nil {
			return nil, err
		}
		if hv, ok := s.(interface {
			Managers() map[string]*hypervisor.Manager
		}); ok {
			for _, mgr := range hv.Managers() {
				mgr.OnExecute = onExec
			}
		}
		return s, nil
	}
}
