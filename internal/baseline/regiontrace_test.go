package baseline

import (
	"testing"

	"ioguard/internal/packet"
	"ioguard/internal/slot"
	"ioguard/internal/system"
	"ioguard/internal/workload"
)

// delivRec is one packet delivery as seen by the transport, the
// finest-grained observable the region split must reproduce exactly:
// a single swapped or shifted delivery changes station FIFO order and
// cascades into divergent completions.
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

// TestRegionDeliveryTraceEquivalence pins the region-sharded transport
// to the dense mesh at per-delivery granularity for both mesh-coupled
// baselines: every packet must arrive at the same slot, in the same
// order, whether the 5×5 mesh runs monolithically or as two
// boundary-horizon regions. This is the test that caught both protocol
// bugs the split can make: a region fast-forwarding past a response
// that feeds back across the cut (loopback horizon), and a station
// response overtaking a same-slot router hop in a shared FIFO
// (staged injection).
func TestRegionDeliveryTraceEquivalence(t *testing.T) {
	ts, err := workload.Generate(workload.Config{VMs: 3, TargetUtil: 0.8, Seed: 42})
	if err != nil {
		t.Fatal(err)
	}
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
			tr := system.Trial{VMs: 3, Tasks: ts, Horizon: ts.Hyperperiod() * 2, Seed: 42}
			tr.Dense = true
			dense := traceDeliveries(t, build, tr)
			tr.Dense = false
			shard := traceDeliveries(t, build, tr)
			if len(dense) != len(shard) {
				t.Fatalf("delivery count: dense=%d shard=%d", len(dense), len(shard))
			}
			if len(dense) == 0 {
				t.Fatal("workload produced no deliveries")
			}
			diffs := 0
			for i := range dense {
				if dense[i] != shard[i] {
					t.Errorf("delivery %d: dense %+v shard %+v", i, dense[i], shard[i])
					if diffs++; diffs > 8 {
						t.Fatal("too many divergent deliveries")
					}
				}
			}
		})
	}
}
