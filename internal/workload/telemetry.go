// Bursty-telemetry workload family: genuinely sparse multi-device
// task sets (not derived from the 0.40-util automotive base via
// Stretch). Sensor endpoints report in short bursts separated by long
// silences, spread over all six I/O devices of the platform, so
// multi-device cells with non-overlapping busy windows — the regime
// the per-device clock decoupling targets — are first-class rather
// than synthesized.

package workload

import (
	"fmt"
	"math/rand"

	"ioguard/internal/slot"
	"ioguard/internal/task"
)

// telemetryLadder is the harmonic period family of the telemetry
// catalogue (8–64 ms): reports are rare, so hyper-periods stay
// bounded at 64 ms even though per-device utilization is ≈1–2%.
var telemetryLadder = []slot.Time{8000, 16000, 32000, 64000}

// TelemetryEntries returns the bursty-telemetry catalogue: low-rate
// report bursts across five low-speed device models of the platform
// (internal/iodev) — can, flexray, i2c, spi and uart, which also fit
// the mesh baselines' five-tile device row. Per-device utilization is
// ≈0.5–2%, so any one device is idle for >98% of the horizon.
func TelemetryEntries() []Entry {
	return []Entry{
		// SPI: inertial sensor pack, read out in bursts.
		{"imu-burst", task.Function, "spi", 8000, 42, 512},
		{"mag-sample", task.Function, "spi", 16000, 28, 128},
		// I²C: slow environmental sensors.
		{"baro-report", task.Function, "i2c", 16000, 24, 64},
		{"temp-sweep", task.Function, "i2c", 32000, 40, 128},
		// UART: GNSS receiver sentences and cellular modem chatter.
		{"gps-nmea", task.Function, "uart", 16000, 60, 256},
		{"gps-almanac", task.Function, "uart", 64000, 120, 1024},
		{"modem-at", task.Function, "uart", 32000, 52, 128},
		// CAN: drivetrain diagnostics polling and body status.
		{"obd-poll", task.Function, "can", 8000, 36, 128},
		{"dtc-scan", task.Function, "can", 32000, 64, 256},
		{"body-status", task.Function, "can", 16000, 44, 64},
		// FlexRay: periodic health frames (safety-relevant).
		{"health-frame", task.Safety, "flexray", 32000, 48, 64},
		{"wear-report", task.Safety, "flexray", 64000, 96, 128},
	}
}

// TelemetryConfig parameterizes the bursty-telemetry generator.
type TelemetryConfig struct {
	VMs int
	// Sensors instantiates each catalogue entry this many times
	// (independent sensor channels); default 1.
	Sensors int
	// Jitter bounds the extra release delay per report. Zero selects
	// Period/16 per task (telemetry is event-ish, never strictly
	// periodic); negative disables jitter entirely.
	Jitter slot.Time
	// HotDevice, when set, drives that endpoint to HotUtil with dense
	// diagnostic traffic (1 ms period) — the one-busy-device skew cell
	// of the decoupling benchmarks. The remaining devices keep their
	// sparse telemetry load.
	HotDevice string
	HotUtil   float64
	// Seed drives jitter assignment ordering only; the set itself is
	// deterministic in the config.
	Seed int64
}

// GenerateTelemetry builds a bursty-telemetry task set. Task IDs are
// dense from 0; VMs are assigned round-robin.
func GenerateTelemetry(cfg TelemetryConfig) (task.Set, error) {
	if cfg.VMs <= 0 {
		return nil, fmt.Errorf("workload: need at least one VM")
	}
	if cfg.Sensors <= 0 {
		cfg.Sensors = 1
	}
	if !(cfg.HotUtil >= 0 && cfg.HotUtil <= 1) { // NaN fails both
		return nil, fmt.Errorf("workload: hot utilization %.2f outside [0,1]", cfg.HotUtil)
	}
	rng := rand.New(rand.NewSource(cfg.Seed))
	var ts task.Set
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
	for s := 0; s < cfg.Sensors; s++ {
		for _, e := range TelemetryEntries() {
			if s > 0 {
				e.Name = fmt.Sprintf("%s-%d", e.Name, s)
			}
			add(e, jitterFor(e.Period))
		}
	}
	if cfg.HotDevice != "" && cfg.HotUtil > 0 {
		// Dense diagnostic stream on the hot endpoint: chunked ops at
		// the shortest catalogue period, sized to the target
		// utilization (same chunking rule as the synthetic case-study
		// load).
		const hotPeriod slot.Time = 1000
		c := slot.Time(cfg.HotUtil*float64(hotPeriod) + 0.5)
		if c < 1 {
			c = 1
		}
		m := int((c + MaxOpSlots - 1) / MaxOpSlots)
		if m < 1 {
			m = 1
		}
		part := (c + slot.Time(m) - 1) / slot.Time(m)
		for k := 0; k < m; k++ {
			hotJitter := slot.Time(rng.Int63n(64))
			if cfg.Jitter < 0 {
				hotJitter = 0
			}
			add(Entry{
				Name:    fmt.Sprintf("diag-flood-%s-%d", cfg.HotDevice, k),
				Kind:    task.Synthetic,
				Device:  cfg.HotDevice,
				Period:  hotPeriod,
				WCET:    part,
				OpBytes: 64,
			}, hotJitter)
		}
	}
	if err := ts.Validate(); err != nil {
		return nil, err
	}
	return exactCap(ts), nil
}
