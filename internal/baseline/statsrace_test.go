package baseline

import (
	"sync/atomic"
	"testing"
	"time"

	"ioguard/internal/system"
	"ioguard/internal/workload"
)

// TestMeshStatsConcurrentSnapshot reads Legacy.MeshStats and Dropped
// from a second goroutine while the region shards step. Run under
// -race in CI, it proves the per-region counters are safe to snapshot
// mid-run — monitoring a live trial (the server's sweep endpoints do
// this) never tears or races a counter.
func TestMeshStatsConcurrentSnapshot(t *testing.T) {
	ts, err := workload.GenerateTelemetry(workload.TelemetryConfig{VMs: 4, HotDevice: "can", HotUtil: 0.6, Seed: 7})
	if err != nil {
		t.Fatal(err)
	}
	var sys atomic.Pointer[Legacy]
	build := func(tr system.Trial, col *system.Collector) (system.System, error) {
		l, err := NewLegacy(tr.VMs, tr.Tasks, col)
		if err == nil {
			sys.Store(l)
		}
		return l, err
	}
	tr := system.Trial{VMs: 4, Tasks: ts, Horizon: ts.Hyperperiod() * 2, Seed: 7}

	done := make(chan error, 1)
	go func() {
		_, err := system.Run(build, tr)
		done <- err
	}()

	// Poll the counters for the whole run (yielding between snapshots —
	// a hard spin would starve the trial on a single-CPU host);
	// the snapshots must be race-free and monotone in the packet count.
	var lastInjected int64
	for {
		select {
		case err := <-done:
			if err != nil {
				t.Fatal(err)
			}
			l := sys.Load()
			if l == nil {
				t.Fatal("system never built")
			}
			final := l.MeshStats()
			if final.Injected < lastInjected {
				t.Errorf("final injected %d below observed %d", final.Injected, lastInjected)
			}
			if final.Delivered == 0 {
				t.Error("no deliveries recorded")
			}
			_ = l.Dropped()
			return
		default:
		}
		if l := sys.Load(); l != nil {
			s := l.MeshStats()
			if s.Injected < lastInjected {
				t.Fatalf("injected went backwards: %d -> %d", lastInjected, s.Injected)
			}
			lastInjected = s.Injected
			_ = l.Dropped()
		}
		time.Sleep(200 * time.Microsecond)
	}
}
