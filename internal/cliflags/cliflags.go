// Package cliflags centralizes the execution flags every I/O-GUARD
// command shares — -workers, -metrics and the -fault-* plan — so their
// names, defaults, help text and validation live in exactly one place.
// Before this package each main.go re-declared them by hand, which
// let the trial server's configuration drift from the batch CLIs; now
// ioguard-sim, ioguard-experiments, ioguard-server and ioguard-load
// all register the same Exec block and resolve it through the same
// validation.
package cliflags

import (
	"flag"
	"runtime"

	"ioguard/internal/faults"
	"ioguard/internal/slot"
	"ioguard/internal/system"
)

// Exec holds the raw values of the shared execution flags as parsed
// from the command line (or filled programmatically). Resolve
// validates them into a runnable configuration.
type Exec struct {
	// Workers is the goroutine count fanning independent trial cells;
	// ≤ 0 selects runtime.GOMAXPROCS(0). Output is identical for any
	// value (the deterministic-fold contract of system.RunCells).
	Workers int
	// Metrics is the collector-mode spelling: exact (buffered, exact
	// percentiles) or stream (bounded memory, mergeable KLL sketch —
	// sweeps report merged cross-trial quantiles).
	Metrics string
	// The -fault-* sextet configures the deterministic fault-injection
	// layer (system.Trial.Faults). All zero — the defaults — is a clean
	// run; any enabled plan keeps the byte-identity contract across
	// -workers and whichever slots the run loop skips, because every
	// fault decision is a pure per-job hash of (FaultSeed, trial seed).
	FaultSeed     int64
	FaultJitter   int
	FaultDrop     float64
	FaultDup      float64
	FaultDelay    float64
	FaultDelayMax int
}

// Resolved is a validated execution configuration.
type Resolved struct {
	Workers int
	Metrics system.MetricsMode
	// Faults is the validated fault plan; the zero value runs clean.
	Faults faults.Plan
}

// Register installs the shared flags on fs with the canonical names,
// defaults and help strings, returning the destination block. Call
// Resolve after fs.Parse.
func Register(fs *flag.FlagSet) *Exec {
	e := &Exec{}
	fs.IntVar(&e.Workers, "workers", runtime.GOMAXPROCS(0),
		"goroutines running independent trials (output is identical for any value)")
	fs.StringVar(&e.Metrics, "metrics", system.MetricsExact.String(),
		"collector mode: exact (buffered, exact percentiles) or stream (bounded memory, mergeable cross-trial quantiles)")
	fs.Int64Var(&e.FaultSeed, "fault-seed", 0,
		"fault-injection stream seed; the same seed replays a faulted trial byte-identically")
	fs.IntVar(&e.FaultJitter, "fault-jitter", 0,
		"max extra release jitter in slots injected at the workload layer (0 = off)")
	fs.Float64Var(&e.FaultDrop, "fault-drop", 0,
		"probability a request is lost in transport before reaching the system")
	fs.Float64Var(&e.FaultDup, "fault-dup", 0,
		"probability a request is duplicated in transport")
	fs.Float64Var(&e.FaultDelay, "fault-delay", 0,
		"probability a request is delayed in transport (requires -fault-delay-max)")
	fs.IntVar(&e.FaultDelayMax, "fault-delay-max", 0,
		"max transport delay in slots for -fault-delay hits")
	return e
}

// RegisterDefault is Register on the process-wide flag.CommandLine.
func RegisterDefault() *Exec { return Register(flag.CommandLine) }

// Resolve validates the raw values: workers ≤ 0 resolves to
// runtime.GOMAXPROCS(0) (matching system.RunCells), the metrics
// spelling is parsed through the single system.ParseMetricsMode entry
// point, and the fault plan is validated.
func (e *Exec) Resolve() (Resolved, error) {
	r := Resolved{Workers: e.Workers}
	if r.Workers <= 0 {
		r.Workers = runtime.GOMAXPROCS(0)
	}
	mode, err := system.ParseMetricsMode(e.Metrics)
	if err != nil {
		return Resolved{}, err
	}
	r.Metrics = mode
	r.Faults = faults.Plan{
		Seed:          e.FaultSeed,
		ReleaseJitter: slot.Time(e.FaultJitter),
		DropProb:      e.FaultDrop,
		DupProb:       e.FaultDup,
		DelayProb:     e.FaultDelay,
		DelayMax:      slot.Time(e.FaultDelayMax),
	}
	if err := r.Faults.Validate(); err != nil {
		return Resolved{}, err
	}
	return r, nil
}
