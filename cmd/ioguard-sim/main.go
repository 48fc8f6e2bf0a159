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
// System specs, the printed metrics blocks and the -workers /
// -metrics / -fault-* flags are shared with ioguard-server
// (internal/experiments, internal/cliflags): a server-executed trial
// at the same parameters is byte-identical to this command's output.
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
	var (
		sysName = flag.String("system", "ioguard-70", experiments.SystemSpecs())
		family  = flag.String("workload", "case", "workload family: case (automotive case study) | avionics (ARINC-653-style long partition periods, H = 4,000,000 slots; -util is ignored)")
		vms     = flag.Int("vms", 4, "number of virtual machines")
		util    = flag.Float64("util", 0.7, "target device utilization (case family only)")
		hps     = flag.Int("hyperperiods", 3, "horizon in workload hyper-periods")
		seed    = flag.Int64("seed", 1, "random seed")
		trials  = flag.Int("trials", 1, "repeat across N independent seeds and print the aggregate")
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
	if err := run(os.Stdout, *sysName, *family, *vms, *util, *hps, *seed, *trials, *gantt, *csvPath, *byTask, r); err != nil {
		fmt.Fprintln(os.Stderr, "ioguard-sim:", err)
		os.Exit(1)
	}
}

// generateFamily dispatches on the -workload flag. The case-study
// family sweeps -util; the avionics family's utilization is fixed by
// its catalogue (sparse partition windows), so -util is ignored there.
func generateFamily(family string, vms int, util float64, seed int64) (task.Set, error) {
	switch family {
	case "case":
		return workload.Generate(workload.Config{VMs: vms, TargetUtil: util, Seed: seed})
	case "avionics":
		return workload.GenerateAvionics(workload.AvionicsConfig{VMs: vms, Seed: seed})
	default:
		return nil, fmt.Errorf("unknown workload family %q (case|avionics)", family)
	}
}

func run(out io.Writer, sysName, family string, vms int, util float64, hps int, seed int64, trials, gantt int, csvPath string, byTask bool, ec cliflags.Resolved) (err error) {
	if trials < 1 {
		return fmt.Errorf("-trials %d: need at least one trial", trials)
	}
	mode := ec.Metrics
	ts, err := generateFamily(family, vms, util, seed)
	if err != nil {
		return err
	}
	fmt.Fprintf(out, "workload: %d tasks, per-device utilization %v, hyper-period %d slots\n",
		len(ts), formatUtil(workload.DeviceUtilization(ts)), ts.Hyperperiod())

	if trials > 1 {
		return runSweep(out, sysName, family, vms, util, hps, seed, trials, ec)
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
	build, err := experiments.BuilderFor(sysName)
	if err != nil {
		return err
	}
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
	horizon, err := ts.Horizon(hps)
	if err != nil {
		return err
	}
	res, err := runTrial(wrapped, system.Trial{
		VMs:     vms,
		Tasks:   ts,
		Horizon: horizon,
		Seed:    seed,
		Metrics: mode,
		Faults:  ec.Faults,
	})
	if err != nil {
		return err
	}
	fmt.Fprint(out, experiments.RenderTrial(sysName, res))
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

// runSweep repeats the trial across independent release seeds on the
// deterministic worker pool and prints the aggregate.
func runSweep(out io.Writer, sysName, family string, vms int, util float64, hps int, seed int64, trials int, ec cliflags.Resolved) error {
	ts, err := generateFamily(family, vms, util, seed)
	if err != nil {
		return err
	}
	build, err := experiments.BuilderFor(sysName)
	if err != nil {
		return err
	}
	horizon, err := ts.Horizon(hps)
	if err != nil {
		return err
	}
	agg, err := system.ParallelSweep(build, system.Trial{
		VMs:     vms,
		Tasks:   ts,
		Horizon: horizon,
		Seed:    seed,
		Metrics: ec.Metrics,
		Faults:  ec.Faults,
	}, trials, ec.Workers)
	if err != nil {
		return err
	}
	fmt.Fprint(out, experiments.RenderAggregate(sysName, agg))
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
		if hv, ok := s.(interface{ Hypervisor() *hypervisor.Hypervisor }); ok {
			for _, dev := range hv.Hypervisor().Devices() {
				mgr, err := hv.Hypervisor().Manager(dev)
				if err != nil {
					return nil, err
				}
				mgr.OnExecute = onExec
			}
		}
		return s, nil
	}
}
