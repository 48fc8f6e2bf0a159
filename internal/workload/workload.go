// Package workload generates the task sets of the case study
// (Sec. V-C): 20 automotive safety tasks drawn from the Renesas
// automotive use-case set (CRC, RSA32, ...), 20 automotive function
// tasks drawn from the EEMBC AutoBench suite (FFT, road-speed
// calculation, ...), plus synthetic tasks used to steer the overall
// system to a target utilization.
//
// The paper measures WCETs with a hybrid measurement approach on the
// FPGA; this reproduction fixes per-benchmark WCETs of matching
// magnitude so that the base (safety + function) load is ≈40% per
// device, exactly as the case study configures it. Raw data enters
// through a 1 Gbps Ethernet controller and results leave via a
// 10 Mbps FlexRay controller; the catalogue splits the tasks between
// the two accordingly.
package workload

import (
	"fmt"
	"math"
	"math/rand"
	"sort"

	"ioguard/internal/slot"
	"ioguard/internal/task"
)

// Entry is one catalogue benchmark: a named I/O task template.
type Entry struct {
	Name    string
	Kind    task.Kind
	Device  string
	Period  slot.Time // slots (1 µs each)
	WCET    slot.Time // slots
	OpBytes int
}

// Utilization returns the entry's bandwidth share.
func (e Entry) Utilization() float64 { return float64(e.WCET) / float64(e.Period) }

// periodLadder keeps hyper-periods bounded: all catalogue and
// synthetic periods are drawn from this harmonic family (1–16 ms).
var periodLadder = []slot.Time{1000, 2000, 4000, 8000, 16000}

// MaxOpSlots bounds a single I/O operation's service demand: larger
// transfers are chunked into multiple operations (DMA burst limits do
// the same on the real platform). Without this bound a single
// synthetic bulk transfer could exceed the tightest task deadline and
// no non-preemptive system could ever succeed.
const MaxOpSlots slot.Time = 300

// SafetyEntries returns the 20 automotive safety tasks (Renesas
// automotive use-case set). Ten target the Ethernet ingress, ten the
// FlexRay egress; each device's safety share is ≈0.2.
func SafetyEntries() []Entry {
	return []Entry{
		{"crc8", task.Safety, "ethernet", 1000, 18, 64},
		{"crc16", task.Safety, "ethernet", 1000, 20, 128},
		{"crc32", task.Safety, "ethernet", 2000, 42, 256},
		{"rsa32-sign", task.Safety, "ethernet", 8000, 170, 128},
		{"rsa32-verify", task.Safety, "ethernet", 8000, 150, 128},
		{"aes128-enc", task.Safety, "ethernet", 4000, 80, 256},
		{"aes128-dec", task.Safety, "ethernet", 4000, 85, 256},
		{"sha256", task.Safety, "ethernet", 2000, 40, 256},
		{"hmac-verify", task.Safety, "ethernet", 4000, 78, 128},
		{"frame-guard", task.Safety, "ethernet", 1000, 22, 64},
		{"watchdog-ping", task.Safety, "flexray", 1000, 16, 16},
		{"lockstep-cmp", task.Safety, "flexray", 2000, 44, 64},
		{"parity-check", task.Safety, "flexray", 1000, 19, 32},
		{"brake-monitor", task.Safety, "flexray", 2000, 38, 64},
		{"airbag-poll", task.Safety, "flexray", 1000, 21, 32},
		{"torque-limit", task.Safety, "flexray", 4000, 84, 64},
		{"lane-keep-guard", task.Safety, "flexray", 4000, 76, 128},
		{"battery-guard", task.Safety, "flexray", 8000, 168, 64},
		{"ecu-heartbeat", task.Safety, "flexray", 2000, 36, 16},
		{"door-interlock", task.Safety, "flexray", 8000, 152, 32},
	}
}

// FunctionEntries returns the 20 automotive function tasks (EEMBC
// AutoBench kernels). Each device's function share is ≈0.2.
func FunctionEntries() []Entry {
	return []Entry{
		{"aifftr-fft", task.Function, "ethernet", 4000, 86, 512},
		{"aiifft-ifft", task.Function, "ethernet", 4000, 82, 512},
		{"aifirf-fir", task.Function, "ethernet", 2000, 41, 256},
		{"iirflt-iir", task.Function, "ethernet", 2000, 39, 256},
		{"matrix-mult", task.Function, "ethernet", 8000, 164, 1024},
		{"idctrn-idct", task.Function, "ethernet", 8000, 156, 512},
		{"cacheb-buster", task.Function, "ethernet", 4000, 79, 256},
		{"pntrch-search", task.Function, "ethernet", 2000, 37, 128},
		{"tblook-interp", task.Function, "ethernet", 1000, 20, 64},
		{"basefp-float", task.Function, "ethernet", 1000, 18, 64},
		{"a2time-angle", task.Function, "flexray", 2000, 40, 64},
		{"rspeed-speed", task.Function, "flexray", 1000, 19, 32},
		{"puwmod-pwm", task.Function, "flexray", 1000, 21, 32},
		{"ttsprk-spark", task.Function, "flexray", 2000, 42, 64},
		{"canrdr-canio", task.Function, "flexray", 2000, 38, 128},
		{"bitmnp-bitman", task.Function, "flexray", 4000, 80, 64},
		{"matrix-arith", task.Function, "flexray", 8000, 160, 256},
		{"swerve-plan", task.Function, "flexray", 8000, 158, 128},
		{"cruise-update", task.Function, "flexray", 4000, 78, 64},
		{"gear-select", task.Function, "flexray", 2000, 44, 32},
	}
}

// UUniFast draws n utilizations summing to total (Bini & Buttazzo's
// UUniFast), each strictly positive. It panics on n ≤ 0.
func UUniFast(rng *rand.Rand, n int, total float64) []float64 {
	if n <= 0 {
		panic("workload: UUniFast needs n > 0")
	}
	out := make([]float64, n)
	sum := total
	for i := 1; i < n; i++ {
		next := sum * math.Pow(rng.Float64(), 1/float64(n-i))
		out[i-1] = sum - next
		sum = next
	}
	out[n-1] = sum
	return out
}

// Config parameterizes the case-study workload.
type Config struct {
	VMs int
	// TargetUtil is the per-device target utilization in [0,1]; the
	// case study sweeps it from 0.40 to 1.00.
	TargetUtil float64
	// Seed drives the synthetic-task draw and jitter assignment.
	Seed int64
	// SyntheticJitter adds bounded release jitter to synthetic tasks
	// (they model run-time load; jitter keeps them out of the
	// P-channel). Zero keeps everything periodic.
	SyntheticJitter slot.Time
}

// syntheticPerDevice is the number of synthetic tasks per device that
// absorb the gap between the catalogue's utilization and the target.
const syntheticPerDevice = 4

// Generate builds the case-study task set: the full safety and
// function catalogues plus synthetic load lifting each device to the
// target utilization. Task IDs are dense from 0; VMs are assigned
// round-robin.
func Generate(cfg Config) (task.Set, error) {
	if cfg.VMs <= 0 {
		return nil, fmt.Errorf("workload: need at least one VM")
	}
	if !(cfg.TargetUtil >= 0 && cfg.TargetUtil <= 1) { // NaN fails both
		return nil, fmt.Errorf("workload: target utilization %.2f outside [0,1]", cfg.TargetUtil)
	}
	rng := rand.New(rand.NewSource(cfg.Seed))
	entries := append(SafetyEntries(), FunctionEntries()...)

	var ts task.Set
	id := 0
	baseUtil := map[string]float64{}
	add := func(e Entry, jitter slot.Time) {
		ts = append(ts, task.Sporadic{
			ID:       id,
			Name:     e.Name,
			VM:       id % cfg.VMs,
			Kind:     e.Kind,
			Period:   e.Period,
			WCET:     e.WCET,
			Deadline: e.Period, // implicit deadlines (Sec. V-C)
			Device:   e.Device,
			OpBytes:  e.OpBytes,
			Jitter:   jitter,
		})
		id++
	}
	for _, e := range entries {
		add(e, 0)
		baseUtil[e.Device] += e.Utilization()
	}
	devices := make([]string, 0, len(baseUtil))
	for d := range baseUtil {
		devices = append(devices, d)
	}
	sort.Strings(devices)
	for _, dev := range devices {
		gap := cfg.TargetUtil - baseUtil[dev]
		// The safety+function catalogue fixes a ≈0.40 floor per device:
		// a target below it cannot be met by generating fewer synthetic
		// tasks (there are none to remove). Refuse instead of silently
		// producing the floor workload; sparser sets are derived by
		// period-stretching the catalogue.
		if gap < -0.001 {
			return nil, fmt.Errorf(
				"workload: target utilization %.2f is below the catalogue's base %.2f on %s; use Stretch/StretchToUtil to derive sparser sets",
				cfg.TargetUtil, baseUtil[dev], dev)
		}
		if gap <= 0.001 {
			continue
		}
		for i, u := range UUniFast(rng, syntheticPerDevice, gap) {
			p := periodLadder[rng.Intn(len(periodLadder))]
			c := slot.Time(u*float64(p) + 0.5)
			if c < 1 {
				c = 1
			}
			if c > p {
				c = p
			}
			// Chunk bulk synthetic transfers: emit m tasks of ≤
			// MaxOpSlots each instead of one oversized operation.
			m := int((c + MaxOpSlots - 1) / MaxOpSlots)
			if m < 1 {
				m = 1
			}
			part := (c + slot.Time(m) - 1) / slot.Time(m)
			for k := 0; k < m; k++ {
				add(Entry{
					Name:    fmt.Sprintf("synthetic-%s-%d-%d", dev, i, k),
					Kind:    task.Synthetic,
					Device:  dev,
					Period:  p,
					WCET:    part,
					OpBytes: 64,
				}, cfg.SyntheticJitter)
			}
		}
	}
	if err := ts.Validate(); err != nil {
		return nil, err
	}
	return exactCap(ts), nil
}

// exactCap copies ts into a slice of exactly its length: callers keep
// generated sets for a whole sweep, so append's spare capacity would
// be retained with them.
func exactCap(ts task.Set) task.Set {
	out := make(task.Set, len(ts))
	copy(out, ts)
	return out
}

// DeviceUtilization returns the per-device utilization of a set.
func DeviceUtilization(ts task.Set) map[string]float64 {
	out := map[string]float64{}
	for _, t := range ts {
		out[t.Device] += t.Utilization()
	}
	return out
}
