// ARINC-653-style avionics workload family: partitioned I/O schedules
// with long, non-harmonic partition periods. Unlike the automotive
// catalogue (1–16 ms harmonic ladder, hyper-period ≤ 16 ms) the
// avionics periods mix powers of two and five up to 250 ms, so the
// hyper-period of the full set is 4,000,000 slots (4 s) — the
// million-slot σ* regime the interval slot table exists for. Per-device
// utilization stays low (≈2–3%, sparse partition windows separated by
// long idle gaps), which is exactly the shape ARINC-653 I/O partitions
// have: the cost of the dense table was all in H, not in occupancy.

package workload

import (
	"fmt"
	"math/rand"

	"ioguard/internal/slot"
	"ioguard/internal/task"
)

// AvionicsHyperperiod is the hyper-period of the avionics set:
// lcm of the partition periods = 2^8 · 5^6 · ... = 4,000,000 slots.
// Every period in the catalogue divides it, so the full set's
// hyper-period is exactly this value.
const AvionicsHyperperiod slot.Time = 4_000_000

// AvionicsEntries returns the partition I/O catalogue: periodic
// partition windows on the AFDX-style Ethernet backbone and the
// ARINC-429-style field bus (modelled on the platform's flexray
// controller). Periods are drawn from the 2^a·5^b family so their
// lcm is exactly AvionicsHyperperiod; the two lcm carriers (62500 =
// 2^2·5^6 and 32000 = 2^8·5^3) lead each device's list so they are
// preloaded first at any realistic preload fraction.
func AvionicsEntries() []Entry {
	return []Entry{
		// AFDX/Ethernet backbone: sensor and flight-management traffic.
		{"afdx-nav-frame", task.Safety, "ethernet", 62500, 250, 1024},
		{"afdx-display-push", task.Function, "ethernet", 32000, 120, 512},
		{"afdx-sensor-fusion", task.Safety, "ethernet", 25000, 100, 512},
		{"afdx-io-gateway", task.Function, "ethernet", 16000, 80, 256},
		{"afdx-fms-plan", task.Function, "ethernet", 125000, 300, 2048},
		{"afdx-health-cnt", task.Safety, "ethernet", 50000, 160, 256},
		{"afdx-radio-tune", task.Function, "ethernet", 100000, 240, 512},
		{"afdx-maint-log", task.Function, "ethernet", 200000, 260, 1024},
		// ARINC-429-style bus: label broadcasts from avionics partitions.
		{"a429-adc-labels", task.Safety, "flexray", 62500, 240, 256},
		{"a429-ahrs-att", task.Safety, "flexray", 32000, 128, 128},
		{"a429-autopilot-cmd", task.Safety, "flexray", 16000, 72, 64},
		{"a429-cabin-press", task.Safety, "flexray", 25000, 90, 64},
		{"a429-gear-status", task.Safety, "flexray", 50000, 150, 64},
		{"a429-fuel-qty", task.Function, "flexray", 125000, 280, 128},
		{"a429-ice-detect", task.Safety, "flexray", 100000, 200, 64},
		{"a429-maint-words", task.Function, "flexray", 250000, 300, 256},
	}
}

// AvionicsAlarmEntries returns the aperiodic alarm traffic: sporadic
// crew alerts and advisories released with jitter, so they are never
// eligible for the P-channel and always exercise the R-channel
// alongside the table-guaranteed partitions. Periods divide
// AvionicsHyperperiod, keeping the full set's hyper-period unchanged.
func AvionicsAlarmEntries() []Entry {
	return []Entry{
		{"alarm-stall-warn", task.Safety, "flexray", 8000, 20, 32},
		{"alarm-tcas-advisory", task.Safety, "ethernet", 10000, 24, 64},
		{"alarm-egpws", task.Safety, "flexray", 20000, 30, 64},
		{"alarm-acars-msg", task.Function, "ethernet", 40000, 60, 256},
		{"alarm-xpdr-interr", task.Function, "ethernet", 8000, 16, 32},
		{"alarm-crew-alert", task.Safety, "flexray", 40000, 48, 64},
	}
}

// AvionicsConfig parameterizes the avionics generator.
type AvionicsConfig struct {
	VMs int
	// Partitions instantiates each partition entry this many times
	// (independent partition replicas); default 1.
	Partitions int
	// Jitter bounds the alarm release jitter. Zero selects Period/16
	// per alarm; negative disables jitter (which makes the alarms
	// preload-eligible — not the intended configuration).
	Jitter slot.Time
	// Seed drives alarm jitter assignment; the set itself is
	// deterministic in the config.
	Seed int64
}

// GenerateAvionics builds the ARINC-653-style task set: partition
// windows first (zero jitter, preload-eligible in ID order), alarms
// last. Task IDs are dense from 0; VMs are assigned round-robin.
func GenerateAvionics(cfg AvionicsConfig) (task.Set, error) {
	if cfg.VMs <= 0 {
		return nil, fmt.Errorf("workload: need at least one VM")
	}
	if cfg.Partitions <= 0 {
		cfg.Partitions = 1
	}
	rng := rand.New(rand.NewSource(cfg.Seed))
	entries, alarms := AvionicsEntries(), AvionicsAlarmEntries()
	// Exact capacity: callers keep generated sets for a whole sweep,
	// so append's spare capacity would be retained with them.
	ts := make(task.Set, 0, cfg.Partitions*len(entries)+len(alarms))
	id := 0
	add := func(e Entry, jitter slot.Time) {
		ts = append(ts, task.Sporadic{
			ID:       id,
			Name:     e.Name,
			VM:       id % cfg.VMs,
			Kind:     e.Kind,
			Period:   e.Period,
			WCET:     e.WCET,
			Deadline: e.Period, // implicit deadlines, like the case study
			Device:   e.Device,
			OpBytes:  e.OpBytes,
			Jitter:   jitter,
		})
		id++
	}
	for p := 0; p < cfg.Partitions; p++ {
		for _, e := range entries {
			if p > 0 {
				e.Name = fmt.Sprintf("%s-%d", e.Name, p)
			}
			add(e, 0)
		}
	}
	jitterFor := func(p slot.Time) slot.Time {
		switch {
		case cfg.Jitter < 0:
			return 0
		case cfg.Jitter > 0:
			return cfg.Jitter
		default:
			return p / 16
		}
	}
	for _, e := range alarms {
		// Draw even when the value is overridden, so Seed changes the
		// assignment order deterministically like the telemetry family.
		_ = rng.Int63()
		add(e, jitterFor(e.Period))
	}
	if err := ts.Validate(); err != nil {
		return nil, err
	}
	return ts, nil
}
