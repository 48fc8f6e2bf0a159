// Package cliflags centralizes the execution flags every I/O-GUARD
// command shares — -workers and -metrics — so their names, defaults,
// help text and validation live in exactly one place. ioguard-sim,
// ioguard-experiments, ioguard-server and ioguard-load all register
// the same Exec block and resolve it through the same validation.
// The -fault-* flags are not shared: ioguard-sim alone takes a fault
// plan on its command line, bound into experiments.Request.
package cliflags

import (
	"flag"
	"runtime"

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
}

// Resolved is a validated execution configuration.
type Resolved struct {
	Workers int
	Metrics system.MetricsMode
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
	return e
}

// RegisterDefault is Register on the process-wide flag.CommandLine.
func RegisterDefault() *Exec { return Register(flag.CommandLine) }

// Resolve validates the raw values: workers ≤ 0 resolves to
// runtime.GOMAXPROCS(0) (matching system.RunCells), and the metrics
// spelling is parsed through the single system.ParseMetricsMode entry
// point.
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
	return r, nil
}
