package workload

import (
	"math"
	"reflect"
	"testing"

	"ioguard/internal/slot"
)

// Every catalogue period must come from the harmonic telemetry ladder
// so hyper-periods stay bounded at 64 ms.
func TestTelemetryPeriodsHarmonic(t *testing.T) {
	ok := map[slot.Time]bool{}
	for _, p := range telemetryLadder {
		ok[p] = true
	}
	for _, e := range TelemetryEntries() {
		if !ok[e.Period] {
			t.Errorf("%s: period %d not in telemetry ladder %v", e.Name, e.Period, telemetryLadder)
		}
	}
}

// The telemetry family must be genuinely sparse: every device below 2%
// utilization, and all five low-speed platform devices covered.
func TestTelemetrySparse(t *testing.T) {
	ts, err := GenerateTelemetry(TelemetryConfig{VMs: 4, Sensors: 1})
	if err != nil {
		t.Fatal(err)
	}
	utils := DeviceUtilization(ts)
	want := []string{"can", "flexray", "i2c", "spi", "uart"}
	for _, dev := range want {
		u, ok := utils[dev]
		if !ok {
			t.Fatalf("device %s missing from telemetry set", dev)
		}
		if u >= 0.02 {
			t.Errorf("device %s utilization %.4f not sparse (want < 0.02)", dev, u)
		}
	}
	for _, tk := range ts {
		if tk.Jitter <= 0 {
			t.Errorf("task %s: telemetry reports should carry release jitter", tk.Name)
		}
	}
}

// A hot device must reach (approximately) its target utilization while
// the remaining devices stay sparse — the skew cell of the decoupling
// benchmarks.
func TestTelemetryHotDevice(t *testing.T) {
	ts, err := GenerateTelemetry(TelemetryConfig{VMs: 4, HotDevice: "can", HotUtil: 0.6})
	if err != nil {
		t.Fatal(err)
	}
	utils := DeviceUtilization(ts)
	if u := utils["can"]; u < 0.55 || u > 0.70 {
		t.Errorf("hot device utilization %.3f, want ≈0.60", u)
	}
	for dev, u := range utils {
		if dev == "can" {
			continue
		}
		if u >= 0.02 {
			t.Errorf("cold device %s utilization %.4f not sparse", dev, u)
		}
	}
}

// The generator must be deterministic in its config and pass
// task.Set validation at every scale it is used at.
func TestTelemetryDeterministicAndValid(t *testing.T) {
	cfgs := []TelemetryConfig{
		{VMs: 1},
		{VMs: 3, Sensors: 4, Seed: 7},
		{VMs: 8, Sensors: 2, Jitter: 25, HotDevice: "spi", HotUtil: 0.8, Seed: 11},
		{VMs: 2, Jitter: -1, HotDevice: "uart", HotUtil: 0.3},
	}
	for _, cfg := range cfgs {
		a, err := GenerateTelemetry(cfg)
		if err != nil {
			t.Fatalf("%+v: %v", cfg, err)
		}
		b, err := GenerateTelemetry(cfg)
		if err != nil {
			t.Fatal(err)
		}
		if !reflect.DeepEqual(a, b) {
			t.Errorf("%+v: generator not deterministic", cfg)
		}
		if err := a.Validate(); err != nil {
			t.Errorf("%+v: %v", cfg, err)
		}
		if cfg.Jitter < 0 {
			for _, tk := range a {
				if tk.Jitter != 0 {
					t.Errorf("%+v: task %s has jitter %d with jitter disabled", cfg, tk.Name, tk.Jitter)
				}
			}
		}
	}
	if _, err := GenerateTelemetry(TelemetryConfig{VMs: 0}); err == nil {
		t.Error("want error for zero VMs")
	}
	if _, err := GenerateTelemetry(TelemetryConfig{VMs: 1, HotUtil: 1.5}); err == nil {
		t.Error("want error for out-of-range hot utilization")
	}
	if _, err := GenerateTelemetry(TelemetryConfig{VMs: 1, HotUtil: math.NaN()}); err == nil {
		t.Error("want error for NaN hot utilization")
	}
}
