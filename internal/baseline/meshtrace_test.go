package baseline

import (
	"testing"

	"ioguard/internal/faults"
	"ioguard/internal/packet"
	"ioguard/internal/slot"
	"ioguard/internal/system"
	"ioguard/internal/system/systemtest"
	"ioguard/internal/workload"
)

// delivRec is one packet delivery as seen by the transport, the
// finest-grained observable of the mesh baselines.
type delivRec struct {
	kind     packet.Kind
	task     uint16
	seq      uint32
	injected slot.Time
	now      slot.Time
}

func traceDeliveries(t *testing.T, build system.Builder, tr system.Trial) []delivRec {
	t.Helper()
	var out []delivRec
	debugDeliver = func(kind packet.Kind, task uint16, seq uint32, injected, now slot.Time) {
		out = append(out, delivRec{kind, task, seq, injected, now})
	}
	defer func() { debugDeliver = nil }()
	if _, err := system.Run(build, tr); err != nil {
		t.Fatal(err)
	}
	return out
}

// TestMeshDeliveryTraceEquivalence pins the fast-forwarded mesh
// transport to per-slot stepping at per-delivery granularity for both
// mesh-coupled baselines: every packet must arrive at the same slot,
// in the same order, whether the one shard jumps with NextWork or
// systemtest.Dense steps every slot. A single swapped or shifted
// delivery changes station FIFO order and cascades into divergent
// completions. The seeded workloads span 2–4 VMs and target
// utilizations 0.5–1.0; the last one also delays and duplicates
// requests through the fault layer.
func TestMeshDeliveryTraceEquivalence(t *testing.T) {
	type cell struct {
		vms    int
		util   float64
		faults faults.Plan
	}
	var cells []cell
	for i := 0; i < 8; i++ {
		cells = append(cells, cell{vms: 2 + i%3, util: 0.5 + 0.5*float64(i)/7})
	}
	cells = append(cells, cell{vms: 3, util: 0.8, faults: faults.Plan{Seed: 5, DupProb: 0.1, DelayProb: 0.2, DelayMax: 40}})
	builders := map[string]system.Builder{
		"legacy": func(tr system.Trial, col *system.Collector) (system.System, error) {
			return NewLegacy(tr.VMs, tr.Tasks, col)
		},
		"rtxen": func(tr system.Trial, col *system.Collector) (system.System, error) {
			return NewRTXen(tr.VMs, tr.Tasks, col, 0)
		},
	}
	for name, build := range builders {
		t.Run(name, func(t *testing.T) {
			for i, c := range cells {
				seed := int64(40 + i)
				ts, err := workload.Generate(workload.Config{VMs: c.vms, TargetUtil: c.util, Seed: seed})
				if err != nil {
					t.Fatal(err)
				}
				tr := system.Trial{VMs: c.vms, Tasks: ts, Horizon: ts.Hyperperiod() * 2, Seed: seed, Faults: c.faults}
				dense := traceDeliveries(t, systemtest.Dense(build), tr)
				shard := traceDeliveries(t, build, tr)
				if len(dense) == 0 {
					t.Fatalf("cell %d: workload produced no deliveries", i)
				}
				if len(dense) != len(shard) {
					t.Fatalf("cell %d: delivery count: dense=%d shard=%d", i, len(dense), len(shard))
				}
				for k := range dense {
					if dense[k] != shard[k] {
						t.Fatalf("cell %d: delivery %d: dense %+v shard %+v", i, k, dense[k], shard[k])
					}
				}
			}
		})
	}
}
