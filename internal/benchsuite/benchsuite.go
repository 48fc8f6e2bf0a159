// Package benchsuite defines the simulation benchmark bodies shared
// by the `go test -bench` wrappers at the repository root and by
// cmd/ioguard-bench, which runs them standalone and emits a JSON
// trajectory (BENCH_sim.json). Keeping the bodies here guarantees the
// two entry points measure exactly the same work.
//
// The dense/fastforward pairs exist to quantify system.Run's idle-slot
// fast-forward: both variants execute the identical trial — the
// equivalence tests enforce bit-identical results — so their ratio is
// pure scheduling-loop speedup. The dense variant runs the builder
// wrapped in systemtest.Dense, which steps every shard in every slot;
// the fastforward variant skips each shard's idle slots.
package benchsuite

import (
	"fmt"
	"testing"

	"ioguard/internal/experiments"
	"ioguard/internal/queue"
	"ioguard/internal/slot"
	"ioguard/internal/system"
	"ioguard/internal/system/systemtest"
	"ioguard/internal/task"
	"ioguard/internal/workload"
)

// Spec is one benchmark: a name (sub-benchmark path), the number of
// simulated slots one iteration advances (0 when slots/sec is not
// meaningful, e.g. queue micro-benchmarks), and the body.
type Spec struct {
	Name       string
	SlotsPerOp int64
	Bench      func(b *testing.B)
}

// sparseStretch derives the idle-heavy cell: the case-study workload's
// base per-device utilization (0.40) divided by 8 gives 0.05 per
// device — a ≤30% total-utilization cell across both devices.
const (
	sparseStretch      slot.Time = 8
	sparseHyperperiods slot.Time = 2
)

// sparseWorkload builds the stretched task set and its trial horizon.
func sparseWorkload() (t system.Trial, err error) {
	ts, err := workload.Generate(workload.Config{VMs: 8, TargetUtil: 0.4, Seed: 1})
	if err != nil {
		return system.Trial{}, err
	}
	ts, err = workload.Stretch(ts, sparseStretch)
	if err != nil {
		return system.Trial{}, err
	}
	return system.Trial{
		VMs:     8,
		Tasks:   ts,
		Horizon: ts.Hyperperiod() * sparseHyperperiods,
		Seed:    1,
	}, nil
}

// sparseSlotsPerOp reports the RunSparse horizon for slots/sec
// derivation.
func sparseSlotsPerOp() int64 {
	tr, err := sparseWorkload()
	if err != nil {
		return 0
	}
	return int64(tr.Horizon)
}

// runCell runs one trial of a benchmark cell per iteration on the
// system experiments.BuilderFor(spec) builds. A pair's dense variant
// wraps the builder in systemtest.Dense and its fastforward variant
// runs it as is, so both execute the identical trial.
func runCell(b *testing.B, cell func() (system.Trial, error), spec string, dense bool) {
	tr, err := cell()
	if err != nil {
		b.Fatal(err)
	}
	build, err := experiments.BuilderFor(spec)
	if err != nil {
		b.Fatal(err)
	}
	if dense {
		build = systemtest.Dense(build)
	}
	b.ReportAllocs()
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		res, err := system.Run(build, tr)
		if err != nil {
			b.Fatal(err)
		}
		if res.Completed == 0 {
			b.Fatal("trial completed no jobs")
		}
	}
}

// skewedHyperperiods sizes the RunSkewed horizon.
const skewedHyperperiods slot.Time = 2

// skewedWorkload builds the one-busy-device skew cell: bursty
// telemetry keeps four devices almost idle while a diagnostic flood
// drives the CAN controller to 60% utilization. Under a single global
// clock the busy device pins the whole system to dense stepping; the
// per-device clocks let the idle devices keep fast-forwarding. The
// cell runs on ioguard-0, every task on the R-channel, so the busy
// CAN manager's pool does the work, and on the Legacy and BS|RT-XEN
// mesh baselines, each one shard that jumps between request
// injections, mesh hops and the CAN station's service starts and ends.
func skewedWorkload() (system.Trial, error) {
	ts, err := workload.GenerateTelemetry(workload.TelemetryConfig{
		VMs: 4, HotDevice: "can", HotUtil: 0.6, Seed: 1,
	})
	if err != nil {
		return system.Trial{}, err
	}
	return system.Trial{
		VMs:     4,
		Tasks:   ts,
		Horizon: ts.Hyperperiod() * skewedHyperperiods,
		Seed:    1,
	}, nil
}

// skewedSlotsPerOp reports the RunSkewed horizon for slots/sec
// derivation.
func skewedSlotsPerOp() int64 {
	tr, err := skewedWorkload()
	if err != nil {
		return 0
	}
	return int64(tr.Horizon)
}

// collectorComplete measures the collector's per-completion hot path
// at steady state: one warmed job folded in repeatedly, mirroring how
// every system's response path drives Complete each slot. The stream
// variant must run allocation-free (bounded recorders, no completion
// log — the same guarantee the PQ and FIFO churn benchmarks pin
// for their hot paths); exact mode amortizes its log's append.
func collectorComplete(b *testing.B, mode system.MetricsMode) {
	col := system.NewCollectorFor(mode, 1<<16, 0)
	tk := &task.Sporadic{ID: 0, Kind: task.Safety, Period: 10, WCET: 1, Deadline: 10, OpBytes: 64}
	j := task.NewJob(tk, 0, 0)
	var x uint64 = 7
	warm := 100_000
	if mode == system.MetricsExact {
		// Exact mode buffers every response time; warming 100k
		// iterations would just grow the samples past their presize.
		// Warm enough to settle the recorders.
		warm = 1 << 10
	}
	for i := 0; i < warm; i++ {
		x = x*6364136223846793005 + 1442695040888963407
		j.Release = slot.Time(x % 1024)
		j.Deadline = j.Release + 10
		col.Complete(j, j.Release+slot.Time(x%32))
	}
	b.ReportAllocs()
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		x = x*6364136223846793005 + 1442695040888963407
		j.Release = slot.Time(x % 1024)
		j.Deadline = j.Release + 10
		col.Complete(j, j.Release+slot.Time(x%32))
	}
}

// pqChurn measures the steady-state cost of the R-channel pool's
// priority queue: push/pop cycles at a fixed resident depth. Entries
// live by value in the heap's backing array, so this must run
// allocation-free.
func pqChurn(b *testing.B) {
	const depth = 64
	var q queue.PQ[int]
	for i := 0; i < depth; i++ {
		q.Push(slot.Time(i), i)
	}
	key := slot.Time(depth)
	b.ReportAllocs()
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		q.Push(key, i)
		key++
		q.PopMin()
	}
}

// Specs returns every benchmark in the suite. Names use the same
// sub-benchmark paths the `go test -bench` wrappers expose.
func Specs() []Spec {
	return []Spec{
		{Name: "RunSparse/dense", SlotsPerOp: sparseSlotsPerOp(),
			Bench: func(b *testing.B) { runCell(b, sparseWorkload, "ioguard-70", true) }},
		{Name: "RunSparse/fastforward", SlotsPerOp: sparseSlotsPerOp(),
			Bench: func(b *testing.B) { runCell(b, sparseWorkload, "ioguard-70", false) }},
		{Name: "RunAvionics/dense", SlotsPerOp: avionicsSlotsPerOp(),
			Bench: func(b *testing.B) { runCell(b, avionicsWorkload, "ioguard-70", true) }},
		{Name: "RunAvionics/fastforward", SlotsPerOp: avionicsSlotsPerOp(),
			Bench: func(b *testing.B) { runCell(b, avionicsWorkload, "ioguard-70", false) }},
		{Name: "RunSkewed/dense", SlotsPerOp: skewedSlotsPerOp(),
			Bench: func(b *testing.B) { runCell(b, skewedWorkload, "ioguard-0", true) }},
		{Name: "RunSkewed/fastforward", SlotsPerOp: skewedSlotsPerOp(),
			Bench: func(b *testing.B) { runCell(b, skewedWorkload, "ioguard-0", false) }},
		{Name: "RunSkewedLegacy/dense", SlotsPerOp: skewedSlotsPerOp(),
			Bench: func(b *testing.B) { runCell(b, skewedWorkload, "legacy", true) }},
		{Name: "RunSkewedLegacy/fastforward", SlotsPerOp: skewedSlotsPerOp(),
			Bench: func(b *testing.B) { runCell(b, skewedWorkload, "legacy", false) }},
		{Name: "RunSkewedRTXen/dense", SlotsPerOp: skewedSlotsPerOp(),
			Bench: func(b *testing.B) { runCell(b, skewedWorkload, "rtxen", true) }},
		{Name: "RunSkewedRTXen/fastforward", SlotsPerOp: skewedSlotsPerOp(),
			Bench: func(b *testing.B) { runCell(b, skewedWorkload, "rtxen", false) }},
		{Name: "SlotBuild/dense", SlotsPerOp: 0,
			Bench: func(b *testing.B) { slotBuild(b, true) }},
		{Name: "SlotBuild/interval", SlotsPerOp: 0,
			Bench: func(b *testing.B) { slotBuild(b, false) }},
		{Name: "SlotNextFree/dense", SlotsPerOp: 0,
			Bench: func(b *testing.B) { slotNextFree(b, true) }},
		{Name: "SlotNextFree/interval", SlotsPerOp: 0,
			Bench: func(b *testing.B) { slotNextFree(b, false) }},
		{Name: "SlotFreeIn/dense", SlotsPerOp: 0,
			Bench: func(b *testing.B) { slotFreeIn(b, true) }},
		{Name: "SlotFreeIn/interval", SlotsPerOp: 0,
			Bench: func(b *testing.B) { slotFreeIn(b, false) }},
		{Name: "PQChurn", SlotsPerOp: 0, Bench: pqChurn},
		{Name: "CollectorComplete/exact", SlotsPerOp: 0,
			Bench: func(b *testing.B) { collectorComplete(b, system.MetricsExact) }},
		{Name: "CollectorComplete/stream", SlotsPerOp: 0,
			Bench: func(b *testing.B) { collectorComplete(b, system.MetricsStream) }},
	}
}

// ByPrefix returns the specs whose name starts with prefix + "/",
// keyed by the remainder — the shape b.Run sub-benchmarks want.
func ByPrefix(prefix string) ([]Spec, error) {
	var out []Spec
	for _, s := range Specs() {
		if len(s.Name) > len(prefix)+1 && s.Name[:len(prefix)+1] == prefix+"/" {
			s.Name = s.Name[len(prefix)+1:]
			out = append(out, s)
		}
	}
	if len(out) == 0 {
		return nil, fmt.Errorf("benchsuite: no specs under %q", prefix)
	}
	return out, nil
}
