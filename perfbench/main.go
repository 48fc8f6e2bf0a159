// Command perfbench is the repository's end-to-end benchmark. It runs
// one named workload for a fixed time, checks that every simulated
// result is correct, and prints its metrics; the last line of standard
// output is one JSON object {correct, attempted, failed, metrics}.
//
//	perfbench --workload fig7a|avionics|robust|serve --seed N --seconds S --trace 0|1
//
// With --trace 0 it reports the end-to-end metrics; with --trace 1 it
// runs the workload untraced and then traced, and reports the
// per-layer split (see README.md in this directory for the map of
// workloads, layers and metrics). perfbench/run.sh builds and runs it
// from the root of a checkout.
package main

import (
	"encoding/json"
	"errors"
	"flag"
	"fmt"
	"math"
	"os"
	"runtime"
	rtmetrics "runtime/metrics"
	"sort"
	"strconv"
	"strings"
	"time"

	"ioguard/internal/experiments"
)

// setupReps is how many times a run repeats its set-up; setup_s is
// the median.
const setupReps = 15

// metric is one reported value.
type metric struct {
	Value float64 `json:"value"`
	Unit  string  `json:"unit"`
}

// result is the final line of output.
type result struct {
	Correct   bool              `json:"correct"`
	Attempted int64             `json:"attempted"`
	Failed    int64             `json:"failed"`
	Metrics   map[string]metric `json:"metrics"`
}

type options struct {
	workload string
	seed     int64
	seconds  int
	trace    int
	root     string
	commit   string
	record   string
	workers  int
}

func main() {
	var o options
	flag.StringVar(&o.workload, "workload", "", "workload: fig7a | avionics | robust | serve")
	flag.Int64Var(&o.seed, "seed", 1, "workload seed; seed 1 is checked against recorded outputs")
	flag.IntVar(&o.seconds, "seconds", 25, "length of the timed phase in seconds")
	flag.IntVar(&o.trace, "trace", 0, "0: end-to-end metrics; 1: per-layer metrics from a traced run")
	flag.StringVar(&o.root, "root", ".", "root of the repository checkout")
	flag.StringVar(&o.commit, "commit", "unknown", "commit of the checkout, recorded with the run")
	flag.StringVar(&o.record, "record", "", "write the seed's cell digests of the in-process workloads to this file and exit")
	flag.Parse()
	o.workers = runtime.GOMAXPROCS(0)
	if err := run(o); err != nil {
		fmt.Fprintln(os.Stderr, "perfbench:", err)
		os.Exit(1)
	}
}

func run(o options) error {
	if o.record != "" {
		return record(o)
	}
	if o.seconds < 1 {
		return fmt.Errorf("--seconds must be at least 1")
	}
	if o.trace != 0 && o.trace != 1 {
		return fmt.Errorf("--trace must be 0 or 1")
	}
	var (
		res  *result
		meta map[string]any
		err  error
	)
	switch o.workload {
	case "fig7a", "avionics", "robust":
		res, meta, err = runSweep(o)
	case "serve":
		res, meta, err = runServeWorkload(o)
	default:
		return fmt.Errorf("unknown --workload %q (fig7a|avionics|robust|serve)", o.workload)
	}
	if err != nil {
		return err
	}
	meta["workload"] = o.workload
	meta["seed"] = o.seed
	meta["trace"] = o.trace
	meta["seconds"] = o.seconds
	meta["num_cpu"] = runtime.NumCPU()
	meta["gomaxprocs"] = runtime.GOMAXPROCS(0)
	meta["go_version"] = runtime.Version()
	meta["commit"] = o.commit
	meta["workers"] = o.workers
	meta["model"] = "unvalidated against hardware: correctness is checked against recorded simulator outputs, so no accuracy-error figure is given"
	printReport(res, meta)
	line, err := json.Marshal(map[string]any{"meta": meta})
	if err != nil {
		return err
	}
	fmt.Println(string(line))
	line, err = json.Marshal(res)
	if err != nil {
		return err
	}
	fmt.Println(string(line))
	return nil
}

// printReport prints the metrics one per line, by name with unit.
func printReport(res *result, meta map[string]any) {
	names := make([]string, 0, len(res.Metrics))
	for n := range res.Metrics {
		names = append(names, n)
	}
	sort.Strings(names)
	fmt.Printf("perfbench %v seed=%v trace=%v: correct=%v attempted=%d failed=%d\n",
		meta["workload"], meta["seed"], meta["trace"], res.Correct, res.Attempted, res.Failed)
	for _, n := range names {
		m := res.Metrics[n]
		fmt.Printf("  %-28s %14.4f %s\n", n, m.Value, m.Unit)
	}
	if notes, ok := meta["notes"].([]string); ok {
		for _, n := range notes {
			fmt.Println("  note:", n)
		}
	}
}

// median returns the median of v.
func median(v []float64) float64 {
	return quantile(v, 0.5)
}

// quantile returns the nearest-rank q-quantile of v.
func quantile(v []float64, q float64) float64 {
	if len(v) == 0 {
		return math.NaN()
	}
	v = append([]float64(nil), v...)
	sort.Float64s(v)
	i := int(math.Ceil(q*float64(len(v)))) - 1
	if i < 0 {
		i = 0
	}
	return v[i]
}

func sum(v []float64) float64 {
	var s float64
	for _, x := range v {
		s += x
	}
	return s
}

func mean(v []float64) float64 {
	if len(v) == 0 {
		return 0
	}
	return sum(v) / float64(len(v))
}

// beyond is how many of n samples lie above the nearest-rank
// q-quantile.
func beyond(n int, q float64) int {
	return n - int(math.Ceil(q*float64(n)))
}

// peakRSSMB reads the process's peak resident set (VmHWM).
func peakRSSMB() (float64, error) {
	b, err := os.ReadFile("/proc/self/status")
	if err != nil {
		return 0, err
	}
	for _, line := range strings.Split(string(b), "\n") {
		if rest, ok := strings.CutPrefix(line, "VmHWM:"); ok {
			kb, err := strconv.ParseFloat(strings.TrimSuffix(strings.TrimSpace(rest), " kB"), 64)
			if err != nil {
				return 0, err
			}
			return kb / 1024, nil
		}
	}
	return 0, errors.New("no VmHWM in /proc/self/status")
}

// runtimeSnap is the cumulative Go runtime cost at one instant.
type runtimeSnap struct {
	allocBytes      float64
	gcCPU, totalCPU float64
}

func readRuntime() runtimeSnap {
	s := []rtmetrics.Sample{
		{Name: "/gc/heap/allocs:bytes"},
		{Name: "/cpu/classes/gc/total:cpu-seconds"},
		{Name: "/cpu/classes/total:cpu-seconds"},
	}
	rtmetrics.Read(s)
	val := func(x rtmetrics.Sample) float64 {
		switch x.Value.Kind() {
		case rtmetrics.KindUint64:
			return float64(x.Value.Uint64())
		case rtmetrics.KindFloat64:
			return x.Value.Float64()
		}
		return 0
	}
	return runtimeSnap{allocBytes: val(s[0]), gcCPU: val(s[1]), totalCPU: val(s[2])}
}

// goCost turns two snapshots around a phase of n trials into the go.*
// metrics.
func goCost(before, after runtimeSnap, trials float64, m map[string]metric) {
	perTrial := 0.0
	if trials > 0 {
		perTrial = (after.allocBytes - before.allocBytes) / 1e6 / trials
	}
	frac := 0.0
	if d := after.totalCPU - before.totalCPU; d > 0 {
		frac = (after.gcCPU - before.gcCPU) / d
	}
	m["go.alloc_mb_per_trial"] = metric{perTrial, "MB"}
	m["go.gc_cpu_fraction"] = metric{frac, "fraction"}
}

// timeSetup runs setup setupReps times and returns the last state, the
// median duration at nominal host speed, and the host slowdown it was
// corrected by: after each repetition the probe loop runs once on the
// same goroutine. Earlier states are released with drop.
func timeSetup[T any](setup func() (T, error), drop func(T)) (T, float64, float64, error) {
	var (
		state        T
		durs, probes []float64
	)
	loop := newProbeLoop()
	for i := 0; i < setupReps; i++ {
		t0 := time.Now()
		s, err := setup()
		d := time.Since(t0).Seconds()
		if err != nil {
			return state, 0, 0, err
		}
		if i > 0 && drop != nil {
			drop(state)
		}
		state = s
		durs = append(durs, d)
		probes = append(probes, float64(loop.run()))
	}
	slow := median(probes) / float64(probeNominal)
	return state, median(durs) / slow, slow, nil
}

// layerMetricNames lists every per-layer metric with its unit, in the
// order BENCHMARK.json declares them. Metrics a workload does not
// exercise report 0.
var layerMetricNames = [][2]string{
	{"hypervisor.step_ms", "ms"}, {"hypervisor.steps", "count"},
	{"hypervisor.nextwork_ms", "ms"}, {"hypervisor.nextwork_calls", "count"},
	{"hypervisor.submits", "count"},
	{"noc.step_ms", "ms"}, {"noc.steps", "count"}, {"noc.nextwork_ms", "ms"},
	{"bluevisor.step_ms", "ms"}, {"bluevisor.steps", "count"},
	{"partition.step_ms", "ms"}, {"partition.steps", "count"},
	{"system.self_ms", "ms"}, {"system.skip_ratio", "fraction"},
	{"system.nextwork_per_kslot", "count"},
	{"faults.injected", "count"}, {"faults.self_ms_delta", "ms"},
	{"core.build_ms", "ms"}, {"baseline.build_ms", "ms"}, {"workload.gen_ms", "ms"},
	{"metrics.completions", "count"}, {"metrics.fold_ms", "ms"},
	{"server.queue_wait_ms", "ms"}, {"server.exec_ms_per_trial", "ms"},
	{"server.batch_size", "count"}, {"server.http_ms", "ms"}, {"server.rejected", "count"},
	{"go.alloc_mb_per_trial", "MB"}, {"go.gc_cpu_fraction", "fraction"},
	{"trace.overhead", "ratio"}, {"host.slowdown", "ratio"},
	{"trace.wall_ms", "ms"}, {"trace.attributed_ms", "ms"}, {"trace.unattributed_ms", "ms"},
}

// zeroLayerMetrics returns every per-layer metric at 0.
func zeroLayerMetrics() map[string]metric {
	m := make(map[string]metric, len(layerMetricNames))
	for _, nu := range layerMetricNames {
		m[nu[0]] = metric{0, nu[1]}
	}
	return m
}

// ms converts nanoseconds to milliseconds.
func ms(ns int64) float64 { return float64(ns) / 1e6 }

// recordedDigests is the file of cell digests recorded at the commit
// that added the benchmark.
type recordedDigests struct {
	Seed      int64                        `json:"seed"`
	Workloads map[string]map[string]string `json:"workloads"`
}

const digestsPath = "perfbench/golden/digests.json"

// loadDigests returns the recorded digests of workload at seed, or nil
// when that seed was not recorded.
func loadDigests(root, workload string, seed int64) (map[string]string, error) {
	b, err := os.ReadFile(root + "/" + digestsPath)
	if err != nil {
		return nil, err
	}
	var rd recordedDigests
	if err := json.Unmarshal(b, &rd); err != nil {
		return nil, fmt.Errorf("%s: %w", digestsPath, err)
	}
	if rd.Seed != seed {
		return nil, nil
	}
	return rd.Workloads[workload], nil
}

// record runs one pass of each in-process workload at o.seed, checks
// it against the committed references and a sequential re-run of every
// cell, and writes the cell digests.
func record(o options) error {
	rd := recordedDigests{Seed: o.seed, Workloads: map[string]map[string]string{}}
	for _, name := range []string{"fig7a", "avionics", "robust"} {
		sr, err := setupSweep(o.root, name, o.seed, false)
		if err != nil {
			return err
		}
		p, err := runPass(sr.spec, o.workers, false)
		if err != nil {
			return err
		}
		p.digestAll()
		g := gateSweep(sr.spec, []*passOut{p}, nil, 1)
		sr.checkReferences(o, p, g)
		if g.failed > 0 {
			return fmt.Errorf("record %s: %d cells failed: %v", name, g.failed, g.notes)
		}
		d := map[string]string{}
		for i, c := range p.cells {
			d[c.key] = p.digests[i]
		}
		rd.Workloads[name] = d
		fmt.Printf("recorded %s: %d cells (%s)\n", name, len(d), g.checked)
	}
	b, err := json.MarshalIndent(rd, "", " ")
	if err != nil {
		return err
	}
	return os.WriteFile(o.record, append(b, '\n'), 0o644)
}

// sweepRun is a set-up in-process workload.
type sweepRun struct {
	spec     *sweepSpec
	recorded map[string]string
	// reference is the committed output the run's rendering (fig7a) or
	// golden cell (avionics) must reproduce at seed 1.
	reference string
	genNs     int64
}

// setupSweep loads the references and lays out the workload; with
// recorded false it skips the recorded digests (the record mode
// writes them).
func setupSweep(root, name string, seed int64, recorded bool) (*sweepRun, error) {
	sr := &sweepRun{}
	var err error
	if recorded {
		if sr.recorded, err = loadDigests(root, name, seed); err != nil {
			return nil, err
		}
	}
	switch name {
	case "fig7a":
		sr.spec = fig7aSpec(seed)
		b, err := os.ReadFile(root + "/experiments_output.txt")
		if err != nil {
			return nil, err
		}
		if sr.reference, err = fig7aBlock(string(b)); err != nil {
			return nil, err
		}
	case "avionics":
		t0 := time.Now()
		if sr.spec, err = avionicsSpec(seed); err != nil {
			return nil, err
		}
		sr.genNs = int64(time.Since(t0))
		b, err := os.ReadFile(root + "/cmd/ioguard-sim/testdata/avionics_golden.txt")
		if err != nil {
			return nil, err
		}
		// The golden's first line describes the workload; the rest is
		// the trial's metrics block.
		_, block, ok := strings.Cut(string(b), "\n")
		if !ok {
			return nil, errors.New("avionics golden: no metrics block")
		}
		sr.reference = block
	case "robust":
		sr.spec = robustSpec(seed)
	}
	return sr, nil
}

// fig7aBlock extracts the 4-VM Fig. 7 block of experiments_output.txt.
func fig7aBlock(out string) (string, error) {
	const start, end = "Fig. 7 — success ratio (%), 4 VMs", "Fig. 7 — success ratio (%), 8 VMs"
	i := strings.Index(out, start)
	j := strings.Index(out, end)
	if i < 0 || j < i {
		return "", errors.New("experiments_output.txt: no 4-VM Fig. 7 block")
	}
	return strings.TrimRight(out[i:j], "\n ") + "\n", nil
}

// checkReferences applies the workload's checks against committed
// outputs at seed 1: the fig7a rendering, the avionics golden cell,
// and the robust rendering against experiments.Robustness run on one
// worker.
func (sr *sweepRun) checkReferences(o options, first *passOut, g *gateReport) {
	switch sr.spec.name {
	case "fig7a":
		if o.seed != committedSeed {
			return
		}
		if strings.TrimRight(first.render, "\n ")+"\n" != sr.reference {
			g.fail("fig7a: rendering differs from the 4-VM block of experiments_output.txt")
		}
		g.checked += "; rendering = experiments_output.txt"
	case "avionics":
		if o.seed != committedSeed {
			return
		}
		if first.golden != sr.reference {
			g.fail("avionics: %s differs from avionics_golden.txt", avionicsGoldenCell)
		}
		g.checked += "; " + avionicsGoldenCell + " = avionics_golden.txt"
	case "robust":
		if o.seed != committedSeed {
			return
		}
		points, err := experiments.Robustness(experiments.RobustnessConfig{
			VMs: robustVMs, Util: robustUtil, Trials: robustTrials,
			HyperPeriods: robustHyperPeriods, Seed: committedSeed, Workers: 1,
		})
		if err != nil {
			g.fail("robust: experiments.Robustness: %v", err)
			return
		}
		if experiments.RenderRobustness(points, robustVMs, robustUtil) != first.render {
			g.fail("robust: rendering differs from experiments.Robustness at workers=1")
		}
		g.checked += "; rendering = experiments.Robustness at workers=1"
	}
}

// timedPasses repeats a pass, with the host monitor running, until it
// has made minPasses and the next one would end past budget. Each pass
// is digested, handed to onPass (if set), and then drops its results.
func timedPasses(spec *sweepSpec, workers int, traced bool, budget time.Duration, minPasses int, onPass func(*passOut)) ([]*passOut, error) {
	var passes []*passOut
	mon := startMonitor()
	defer mon.Stop()
	start := time.Now()
	for {
		p, err := runPass(spec, workers, traced)
		if err != nil {
			return nil, err
		}
		p.slowdown = mon.slowdown(p.start, p.start.Add(p.wall))
		p.digestAll()
		if onPass != nil {
			onPass(p)
		}
		p.release()
		passes = append(passes, p)
		el := time.Since(start)
		if len(passes) >= minPasses && el+el/time.Duration(len(passes)) > budget {
			return passes, nil
		}
	}
}

// medianSlowdown is the median host slowdown over passes.
func medianSlowdown(passes []*passOut) float64 {
	var v []float64
	for _, p := range passes {
		v = append(v, p.slowdown)
	}
	return median(v)
}

func wallOf(passes []*passOut) time.Duration {
	var w time.Duration
	for _, p := range passes {
		w += p.wall
	}
	return w
}

func trialsOf(passes []*passOut) int64 {
	var n int64
	for _, p := range passes {
		n += int64(len(p.cells))
	}
	return n
}

func runSweep(o options) (*result, map[string]any, error) {
	sr, setupS, setupSlow, err := timeSetup(func() (*sweepRun, error) { return setupSweep(o.root, o.workload, o.seed, true) }, nil)
	if err != nil {
		return nil, nil, err
	}
	budget := time.Duration(o.seconds) * time.Second
	meta := map[string]any{"setup_slowdown": setupSlow}
	res := &result{Metrics: map[string]metric{}}
	var all []*passOut
	if o.trace == 0 {
		// Two passes at least, so a pass slowed throughout by the host
		// is not the only reading (fig7a's pass is about half the run).
		passes, err := timedPasses(sr.spec, o.workers, false, budget, 2, nil)
		if err != nil {
			return nil, nil, err
		}
		rss, err := peakRSSMB()
		if err != nil {
			return nil, nil, err
		}
		all = passes
		// Every time is read at nominal host speed (hostspeed.go): each
		// pass's wall time, and each trial's, is divided by the host
		// slowdown seen during that pass. What the correction misses is
		// still one-sided (other tenants only slow a pass, and the first
		// pass also warms the heap), so the fastest corrected pass, and
		// each trial's fastest corrected run, are the steadiest readings.
		best := passes[0]
		ops := make([]float64, len(best.cells))
		var raw, slows []float64
		for i := range ops {
			ops[i] = math.Inf(1)
		}
		for _, p := range passes {
			if p.corrected() < best.corrected() {
				best = p
			}
			raw = append(raw, math.Round(float64(p.wall)/1e4)/100)
			slows = append(slows, math.Round(p.slowdown*1000)/1000)
			for i, c := range p.outs {
				ops[i] = math.Min(ops[i], float64(c.wall)/1e6/p.slowdown)
			}
		}
		wall := best.corrected().Seconds()
		m := res.Metrics
		m["setup_s"] = metric{setupS, "s"}
		m["trials_per_s"] = metric{float64(len(best.cells)) / wall, "trials/s"}
		m["sim_slots_per_s"] = metric{best.horizon() / wall, "slots/s"}
		m["peak_rss_mb"] = metric{rss, "MB"}
		m["op_mean_ms"] = metric{mean(ops), "ms"}
		m["op_p90_ms"] = metric{quantile(ops, 0.90), "ms"}
		m["sweep_ms"] = metric{wall * 1e3, "ms"}
		meta["pass_ms_raw"] = raw
		meta["pass_slowdown"] = slows
		meta["op"] = "one trial's system.Run on the pool, fastest of its runs over the passes"
		meta["op_samples"] = len(ops)
		meta["op_p90_samples_beyond"] = beyond(len(ops), 0.90)
	} else {
		before := readRuntime()
		plain, err := timedPasses(sr.spec, o.workers, false, budget/2, 1, nil)
		if err != nil {
			return nil, nil, err
		}
		after := readRuntime()
		acc := newLayerAcc()
		traced, err := timedPasses(sr.spec, o.workers, true, budget/2, 1, acc.add)
		if err != nil {
			return nil, nil, err
		}
		all = append(plain, traced...)
		res.Metrics = acc.metrics(sr, o, plain, traced)
		res.Metrics["host.slowdown"] = metric{medianSlowdown(all), "ratio"}
		goCost(before, after, float64(trialsOf(plain)), res.Metrics)
		meta["passes"] = map[string]int{"untraced": len(plain), "traced": len(traced)}
		meta["trace_stride"] = traceStride
		meta["trace_note"] = "every call into a shard is counted and one in trace_stride is timed; a collector Complete runs inside a shard's Step and is charged to that shard's layer; *_ms and counts are per traced pass"
	}
	g := gateSweep(sr.spec, all, sr.recorded, gateStride)
	sr.checkReferences(o, all[0], g)
	res.Attempted = trialsOf(all)
	res.Failed = g.failed
	res.Correct = g.failed == 0
	meta["gate"] = g.checked
	meta["notes"] = g.notes
	return res, meta, nil
}

// layerAcc accumulates the per-layer record of traced passes as they
// finish.
type layerAcc struct {
	lt                   *layerTotals
	genNs, foldNs        int64
	injected             float64
	cleanSelf, faultSelf []float64
}

func newLayerAcc() *layerAcc { return &layerAcc{lt: newLayerTotals()} }

func (a *layerAcc) add(p *passOut) {
	a.genNs += p.genNs
	a.foldNs += p.foldNs
	for i, c := range p.outs {
		bc := p.cells[i]
		a.lt.add(c.tt, c.wall, bc.cell.Trial.Horizon)
		if f := c.res.Faults; f != nil {
			a.injected += float64(f.Jittered + f.Dropped + f.Duplicated + f.Delayed)
		}
		switch bc.group {
		case "":
		case "clean":
			a.cleanSelf = append(a.cleanSelf, ms(c.tt.selfNs(c.wall)))
		default:
			a.faultSelf = append(a.faultSelf, ms(c.tt.selfNs(c.wall)))
		}
	}
}

// metrics computes the per-layer split of the traced passes.
func (a *layerAcc) metrics(sr *sweepRun, o options, plain, traced []*passOut) map[string]metric {
	m := zeroLayerMetrics()
	lt := a.lt
	n := float64(len(traced))
	per := func(ns int64) float64 { return ms(ns) / n }
	cnt := func(c int64) float64 { return float64(c) / n }
	set := func(name string, v float64) { m[name] = metric{v, m[name].Unit} }

	hv, noc := lt.shard[layerHypervisor], lt.shard[layerNoC]
	bv, pt := lt.shard[layerBlueVisor], lt.shard[layerPartition]
	set("hypervisor.step_ms", per(hv.step.total()))
	set("hypervisor.steps", cnt(hv.step.calls))
	set("hypervisor.nextwork_ms", per(hv.nextWork.total()))
	set("hypervisor.nextwork_calls", cnt(hv.nextWork.calls))
	set("hypervisor.submits", cnt(hv.submit.calls))
	set("noc.step_ms", per(noc.step.total()))
	set("noc.steps", cnt(noc.step.calls))
	set("noc.nextwork_ms", per(noc.nextWork.total()))
	set("bluevisor.step_ms", per(bv.step.total()))
	set("bluevisor.steps", cnt(bv.step.calls))
	set("partition.step_ms", per(pt.step.total()))
	set("partition.steps", cnt(pt.step.calls))

	var steps, nextWorks, shardNs int64
	for _, st := range lt.shard {
		steps += st.step.calls
		nextWorks += st.nextWork.calls
		shardNs += st.ns()
	}
	set("system.self_ms", per(lt.selfNs))
	if lt.shardSlots > 0 {
		set("system.skip_ratio", 1-float64(steps)/lt.shardSlots)
	}
	if lt.horizon > 0 {
		set("system.nextwork_per_kslot", float64(nextWorks)/(lt.horizon/1000))
	}
	set("faults.injected", a.injected/n)
	if len(a.cleanSelf) > 0 && len(a.faultSelf) > 0 {
		set("faults.self_ms_delta", mean(a.faultSelf)-mean(a.cleanSelf))
	}
	set("core.build_ms", per(lt.build[layerCore].total()))
	set("baseline.build_ms", per(lt.build[layerBaseline].total()))
	// Avionics builds its task sets once, in set-up; its figure is that
	// one generation.
	set("workload.gen_ms", per(a.genNs)+ms(sr.genNs))
	set("metrics.completions", cnt(lt.completions))
	set("metrics.fold_ms", per(a.foldNs))

	tracedWall := float64(wallOf(traced)) / n
	plainWall := float64(wallOf(plain)) / float64(len(plain))
	set("trace.overhead", (tracedWall/medianSlowdown(traced))/(plainWall/medianSlowdown(plain)))
	workerMs := tracedWall / 1e6 * float64(o.workers)
	attributed := per(shardNs + lt.build[layerCore].total() + lt.build[layerBaseline].total() + lt.selfNs + a.genNs + a.foldNs)
	set("trace.wall_ms", workerMs)
	set("trace.attributed_ms", attributed)
	set("trace.unattributed_ms", workerMs-attributed)
	return m
}

func runServeWorkload(o options) (*result, map[string]any, error) {
	s, setupS, setupSlow, err := timeSetup(func() (*serveSetup, error) { return setupServe(o.seed, o.workers) }, (*serveSetup).close)
	if err != nil {
		return nil, nil, err
	}
	defer s.close()
	budget := time.Duration(o.seconds) * time.Second
	meta := map[string]any{"setup_slowdown": setupSlow}
	res := &result{Metrics: map[string]metric{}}
	var phases []*serveOut
	if o.trace == 0 {
		out := runServe(s, budget)
		rss, err := peakRSSMB()
		if err != nil {
			return nil, nil, err
		}
		phases = append(phases, out)
		// Times are read at nominal host speed (hostspeed.go).
		slow := out.slowdown
		wall := out.wall.Seconds() / slow
		lines := float64(out.trials.lines + out.sweeps.lines)
		m := res.Metrics
		m["setup_s"] = metric{setupS, "s"}
		m["trials_per_s"] = metric{lines / wall, "trials/s"}
		m["sim_slots_per_s"] = metric{(out.trials.slots + out.sweeps.slots) / wall, "slots/s"}
		m["peak_rss_mb"] = metric{rss, "MB"}
		// The round trips are bimodal (client A's batch runs alone or
		// beside a sweep of client B), with the median in the gap between
		// the modes, so the mean is the steady central figure.
		m["op_mean_ms"] = metric{mean(out.trials.rtts) / slow, "ms"}
		m["op_p90_ms"] = metric{quantile(out.trials.rtts, 0.90) / slow, "ms"}
		m["sweep_ms"] = metric{mean(out.sweeps.rtts) / slow, "ms"}
		meta["slowdown"] = slow
		meta["trials_per_s_raw"] = lines / out.wall.Seconds()
		meta["op"] = "one POST /v1/trials round trip (4 trials)"
		meta["op_samples"] = len(out.trials.rtts)
		meta["op_p90_samples_beyond"] = beyond(len(out.trials.rtts), 0.90)
		meta["sweep_samples"] = len(out.sweeps.rtts)
	} else {
		before := readRuntime()
		plain := runServe(s, budget/2)
		after := readRuntime()
		traced := runServe(s, budget/2)
		phases = append(phases, plain, traced)
		m := zeroLayerMetrics()
		a := traced.trials
		set := func(name string, v float64) { m[name] = metric{v, m[name].Unit} }
		set("server.queue_wait_ms", mean(a.queueMs))
		set("server.exec_ms_per_trial", mean(a.execPerTrialMs))
		set("server.batch_size", mean(a.batchSize))
		set("server.http_ms", mean(a.httpMs))
		set("server.rejected", float64(traced.stats.RejectedRequests-plain.stats.RejectedRequests))
		perTrial := func(p *serveOut) float64 {
			return p.wall.Seconds() / p.slowdown / float64(p.trials.lines+p.sweeps.lines)
		}
		set("host.slowdown", (plain.slowdown+traced.slowdown)/2)
		set("trace.overhead", perTrial(traced)/perTrial(plain))
		clientMs := float64(traced.wall) / 1e6 * 2
		rttMs := sum(traced.trials.rtts) + sum(traced.sweeps.rtts)
		set("trace.wall_ms", clientMs)
		set("trace.attributed_ms", rttMs)
		set("trace.unattributed_ms", clientMs-rttMs)
		res.Metrics = m
		goCost(before, after, float64(plain.trials.lines+plain.sweeps.lines), m)
		meta["trace_note"] = "server.* are means over client A's /v1/trials lines, from each line's timing block and Batcher().Stats(); the simulator layers run inside the server and are not observed on this workload"
	}
	all := newServeStats()
	for _, p := range phases {
		all.merge(p.trials)
		all.merge(p.sweeps)
	}
	failed, notes, err := gateServe(s, all)
	if err != nil {
		return nil, nil, err
	}
	res.Attempted = all.attempted
	res.Failed = all.failed + failed
	res.Correct = res.Failed == 0
	meta["gate"] = fmt.Sprintf("every streamed line (%d) equals the same trial run in-process via system.Run", all.lines)
	meta["notes"] = append(all.notes, notes...)
	return res, meta, nil
}
