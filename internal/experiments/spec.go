// The set of buildable systems, written once, and single-trial
// rendering. The case-study sweeps, ioguard-sim's -system flag, the
// trial server and the benchmark suite all resolve systems through
// the table below: a spec and the report name on its row build the
// same system, and a server-executed trial renders byte-identically
// to the CLI because both resolve and render here.

package experiments

import (
	"fmt"
	"strconv"
	"strings"

	"ioguard/internal/baseline"
	"ioguard/internal/core"
	"ioguard/internal/hypervisor"
	"ioguard/internal/metrics"
	"ioguard/internal/system"
)

// systemRow is one buildable system: the spec the CLI and the server
// accept, the name reports print, and its builder.
type systemRow struct {
	spec, name string
	// fig7 marks the case-study columns of the committed Fig. 7
	// tables. BS|PART is not one: it joins later comparisons only, which
	// keeps every historical render byte-identical.
	fig7  bool
	build system.Builder
}

// systems lists every buildable system in presentation order.
var systems = []systemRow{
	{"legacy", "BS|Legacy", true, func(tr system.Trial, col *system.Collector) (system.System, error) {
		return baseline.NewLegacy(tr.VMs, tr.Tasks, col)
	}},
	{"rtxen", "BS|RT-XEN", true, func(tr system.Trial, col *system.Collector) (system.System, error) {
		return baseline.NewRTXen(tr.VMs, tr.Tasks, col, 0)
	}},
	{"bluevisor", "BS|BV", true, func(tr system.Trial, col *system.Collector) (system.System, error) {
		return baseline.NewBlueVisor(tr.VMs, tr.Tasks, col)
	}},
	{"partition", "BS|PART", false, func(tr system.Trial, col *system.Collector) (system.System, error) {
		return baseline.NewPartition(tr.VMs, tr.Tasks, col)
	}},
	{"ioguard-40", "I/O-GUARD-40", true, IOGuardBuilder(0.40)},
	{"ioguard-70", "I/O-GUARD-70", true, IOGuardBuilder(0.70)},
}

// ioguardPrefix starts every I/O-GUARD spec: ioguard-<pct> pre-loads
// pct% of the tasks into the slot table.
const ioguardPrefix = "ioguard-"

// SystemNames lists the case-study systems in presentation order —
// the column set of the committed Fig. 7 tables.
func SystemNames() []string {
	var out []string
	for _, r := range systems {
		if r.fig7 {
			out = append(out, r.name)
		}
	}
	return out
}

// AllSystemNames lists every buildable system in presentation order —
// the case-study five plus the BS|PART partitioning baseline. The
// robustness sweep compares across this set.
func AllSystemNames() []string {
	out := make([]string, len(systems))
	for i, r := range systems {
		out[i] = r.name
	}
	return out
}

// Builders returns the builder of every system, keyed by report name.
func Builders() map[string]system.Builder {
	out := make(map[string]system.Builder, len(systems))
	for _, r := range systems {
		out[r.name] = r.build
	}
	return out
}

// DefaultPoolCapacity is the per-VM I/O-pool depth of the prototype
// hypervisor: the pool's priority-queue entries are hardware
// registers (Sec. III-A footnote 2), so the R-channel backlog per VM
// is bounded and overload eventually drops requests.
const DefaultPoolCapacity = 8

// ioguardConfig is the I/O-GUARD system that the experiments, the
// CLIs, the server and the benchmark suite build: the paper's
// DirectEDF G-Sched with the prototype's pool depth, frac of the tasks
// pre-loaded.
func ioguardConfig(vms int, frac float64) core.Config {
	return core.Config{
		VMs:          vms,
		PreloadFrac:  frac,
		Mode:         hypervisor.DirectEDF,
		PoolCapacity: DefaultPoolCapacity,
	}
}

// IOGuardBuilder returns a builder for I/O-GUARD-x with the given
// pre-load fraction (ioguardConfig).
func IOGuardBuilder(frac float64) system.Builder {
	return func(tr system.Trial, col *system.Collector) (system.System, error) {
		return core.New(ioguardConfig(tr.VMs, frac), tr.Tasks, col)
	}
}

// BuilderFor resolves a system spec (SystemSpecs) to its builder. A
// spec in the table builds the same system as its report name in
// Builders(); any other ioguard-<pct> is IOGuardBuilder(pct/100).
func BuilderFor(spec string) (system.Builder, error) {
	for _, r := range systems {
		if r.spec == spec {
			return r.build, nil
		}
	}
	suffix, ok := strings.CutPrefix(spec, ioguardPrefix)
	if !ok {
		return nil, fmt.Errorf("unknown system %q", spec)
	}
	// Only the canonical spelling: no sign, leading zero or trailing
	// input, so the label the report prints is the system that ran.
	pct, err := strconv.Atoi(suffix)
	if err != nil || pct < 0 || pct > 100 || strconv.Itoa(pct) != suffix {
		return nil, fmt.Errorf("bad I/O-GUARD spec %q (want ioguard-<0..100>)", spec)
	}
	return IOGuardBuilder(float64(pct) / 100), nil
}

// SystemSpecs lists the spec spellings BuilderFor accepts, for help
// strings and request validation errors.
func SystemSpecs() string {
	var specs []string
	for _, r := range systems {
		if !strings.HasPrefix(r.spec, ioguardPrefix) {
			specs = append(specs, r.spec)
		}
	}
	return strings.Join(append(specs, ioguardPrefix+"<pct>"), "|")
}

// RenderTrial prints one trial's metrics block exactly as ioguard-sim
// does — the byte-for-byte contract the server determinism test pins.
func RenderTrial(name string, res *metrics.TrialResult) string {
	var b strings.Builder
	fmt.Fprintf(&b, "system: %s\n", name)
	fmt.Fprintf(&b, "  completed:        %d jobs (%d bytes)\n", res.Completed, res.BytesServed)
	fmt.Fprintf(&b, "  critical misses:  %d\n", res.CriticalMisses)
	fmt.Fprintf(&b, "  synthetic misses: %d\n", res.OtherMisses)
	fmt.Fprintf(&b, "  unfinished:       %d   dropped: %d\n", res.Unfinished, res.Dropped)
	fmt.Fprintf(&b, "  success:          %v\n", res.Success())
	fmt.Fprintf(&b, "  throughput:       %.3f MB/s\n", res.ThroughputMBps())
	fmt.Fprintf(&b, "  response (slots): %s\n", res.Response.String())
	// The lines below exist only on opted-in trials, so every
	// historical render stays byte-identical.
	if res.Accuracy != nil {
		fmt.Fprintf(&b, "  accuracy (slots): %s\n", res.Accuracy.String())
	}
	if f := res.Faults; f != nil {
		fmt.Fprintf(&b, "  faults injected:  jittered=%d dropped=%d duplicated=%d delayed=%d\n",
			f.Jittered, f.Dropped, f.Duplicated, f.Delayed)
		fmt.Fprintf(&b, "  fault effects:    dup-delivered=%d faulted-misses=%d\n",
			f.DupDelivered, f.FaultedMisses)
	}
	return b.String()
}

// RenderAggregate prints a sweep's aggregate block exactly as
// ioguard-sim's -trials N mode does. The response/tardiness lines are
// the cross-trial distributions: exact in -metrics exact, fold-exact
// merged sketches (within ⌈εN⌉ ranks) in -metrics stream. Each mode
// renders deterministically for any worker count — the fold order is
// trial order.
func RenderAggregate(name string, agg *metrics.Aggregate) string {
	var b strings.Builder
	fmt.Fprintf(&b, "system: %s (%d trials)\n", name, agg.Trials)
	fmt.Fprintf(&b, "  success ratio:    %.1f%% (%d/%d trials)\n", 100*agg.SuccessRatio(), agg.Successes, agg.Trials)
	fmt.Fprintf(&b, "  throughput MB/s:  mean=%.3f sd=%.3f min=%.3f max=%.3f\n",
		agg.Throughput.Mean(), agg.Throughput.StdDev(), agg.Throughput.Min(), agg.Throughput.Max())
	fmt.Fprintf(&b, "  critical misses:  mean=%.1f max=%.0f per trial\n", agg.Misses.Mean(), agg.Misses.Max())
	fmt.Fprintf(&b, "  response (slots): %s\n", agg.Response.String())
	fmt.Fprintf(&b, "  tardiness:        %s\n", agg.Tardiness.String())
	// Fault lines appear only when trials carried a fault summary, so
	// clean sweeps render exactly the historical block.
	if agg.FaultTrials > 0 {
		fmt.Fprintf(&b, "  faulted trials:   %d/%d\n", agg.FaultTrials, agg.Trials)
		fmt.Fprintf(&b, "  faults injected:  jittered=%.1f dropped=%.1f duplicated=%.1f delayed=%.1f per trial\n",
			agg.FaultJittered.Mean(), agg.FaultDropped.Mean(), agg.FaultDuplicated.Mean(), agg.FaultDelayed.Mean())
		fmt.Fprintf(&b, "  fault effects:    dup-delivered=%.1f faulted-misses=%.1f per trial\n",
			agg.DupDelivered.Mean(), agg.FaultedMisses.Mean())
		fmt.Fprintf(&b, "  accuracy (slots): %s\n", agg.Accuracy.String())
	}
	return b.String()
}
