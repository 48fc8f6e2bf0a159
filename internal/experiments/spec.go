// System-spec resolution and single-trial rendering shared by the
// batch CLIs and the trial server. ioguard-sim historically owned both
// (its -system flag and its printed metrics block); the server must
// execute and render trials *byte-identically* to the CLI, so the
// logic lives here and both import it.

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

// BuilderFor resolves a CLI system spec — legacy | rtxen | bluevisor |
// ioguard-<0..100> — to a builder with ioguard-sim's semantics: the
// I/O-GUARD variants run the DirectEDF G-Sched with unbounded pools
// (the case-study Builders() instead apply the prototype's bounded
// pool depth). The server resolves request specs through the same
// function, which is what makes a server-executed trial byte-identical
// to the CLI at the same seed and worker counts.
func BuilderFor(name string) (system.Builder, error) {
	switch {
	case name == "legacy":
		return func(tr system.Trial, col *system.Collector) (system.System, error) {
			return baseline.NewLegacy(tr.VMs, tr.Tasks, col)
		}, nil
	case name == "rtxen":
		return func(tr system.Trial, col *system.Collector) (system.System, error) {
			return baseline.NewRTXen(tr.VMs, tr.Tasks, col, 0)
		}, nil
	case name == "bluevisor":
		return func(tr system.Trial, col *system.Collector) (system.System, error) {
			return baseline.NewBlueVisor(tr.VMs, tr.Tasks, col)
		}, nil
	case name == "partition":
		return func(tr system.Trial, col *system.Collector) (system.System, error) {
			return baseline.NewPartition(tr.VMs, tr.Tasks, col)
		}, nil
	case strings.HasPrefix(name, "ioguard-"):
		// Only the canonical spelling: no sign, leading zero or trailing
		// input, so the label the report prints is the system that ran.
		suffix := strings.TrimPrefix(name, "ioguard-")
		pct, err := strconv.Atoi(suffix)
		if err != nil || pct < 0 || pct > 100 || strconv.Itoa(pct) != suffix {
			return nil, fmt.Errorf("bad I/O-GUARD spec %q (want ioguard-<0..100>)", name)
		}
		frac := float64(pct) / 100
		return func(tr system.Trial, col *system.Collector) (system.System, error) {
			return core.New(core.Config{
				VMs:         tr.VMs,
				PreloadFrac: frac,
				Mode:        hypervisor.DirectEDF,
			}, tr.Tasks, col)
		}, nil
	default:
		return nil, fmt.Errorf("unknown system %q", name)
	}
}

// SystemSpecs lists the spec spellings BuilderFor accepts, for help
// strings and request validation errors.
func SystemSpecs() string { return "legacy|rtxen|bluevisor|partition|ioguard-<pct>" }

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
