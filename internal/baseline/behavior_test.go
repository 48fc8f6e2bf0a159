package baseline

import (
	"testing"

	"ioguard/internal/slot"
	"ioguard/internal/system"
	"ioguard/internal/task"
)

// TestRTXenVMMSerializes: the software hypervisor processes one
// backend operation at a time, so two simultaneous requests from
// different VMs leave the VMM at least VMMRequest slots apart — even
// though they target different devices.
func TestRTXenVMMSerializes(t *testing.T) {
	ts := task.Set{
		{ID: 0, VM: 0, Kind: task.Safety, Device: "ethernet", Period: 10000, WCET: 5, Deadline: 10000},
		{ID: 1, VM: 1, Kind: task.Safety, Device: "flexray", Period: 10000, WCET: 5, Deadline: 10000},
	}
	col := &system.Collector{}
	var at []slot.Time
	col.Observe(func(j *task.Job, t slot.Time) { at = append(at, t) })
	// Quantum 1 keeps VCPU windows from dominating the measurement.
	x, err := NewRTXen(2, ts, col, 1)
	if err != nil {
		t.Fatal(err)
	}
	x.Submit(0, task.NewJob(&ts[0], 0, 0))
	x.Submit(0, task.NewJob(&ts[1], 0, 0))
	for now := slot.Time(0); now < 500; now++ {
		x.Step(now)
	}
	if col.Completed() != 2 {
		t.Fatalf("completions = %d", col.Completed())
	}
	gap := at[1] - at[0]
	if gap < 0 {
		gap = -gap
	}
	if gap < x.path.VMMRequest {
		t.Errorf("completions %d apart; VMM serialization should force ≥ %d", gap, x.path.VMMRequest)
	}
}

// TestBlueVisorRoundRobinStarvationFree: even with one VM flooding,
// every VM's head-of-line op is served within one round-robin cycle.
func TestBlueVisorRoundRobinStarvationFree(t *testing.T) {
	ts := task.Set{
		{ID: 0, VM: 0, Kind: task.Synthetic, Device: "spi", Period: 1000, WCET: 10, Deadline: 1000},
		{ID: 1, VM: 1, Kind: task.Safety, Device: "spi", Period: 1000, WCET: 10, Deadline: 1000},
	}
	col := &system.Collector{}
	var victimDone slot.Time
	col.Observe(func(j *task.Job, at slot.Time) {
		if j.Task.ID == 1 && victimDone == 0 {
			victimDone = at
		}
	})
	b, err := NewBlueVisor(2, ts, col)
	if err != nil {
		t.Fatal(err)
	}
	// VM0 floods 10 ops; VM1 submits one.
	for i := 0; i < 10; i++ {
		b.Submit(0, task.NewJob(&ts[0], i, 0))
	}
	b.Submit(0, task.NewJob(&ts[1], 0, 0))
	for now := slot.Time(0); now < 500; now++ {
		b.Step(now)
	}
	if victimDone == 0 {
		t.Fatal("victim never completed")
	}
	// Round robin: the victim waits at most one flood op + its own
	// service, not ten.
	if victimDone > 60 {
		t.Errorf("victim finished at %d; round robin should bound its wait to ~2 ops", victimDone)
	}
}

// TestLegacyFIFOStarvesUnderFlood contrasts the same scenario on the
// legacy global FIFO: the victim waits behind the entire flood.
func TestLegacyFIFOStarvesUnderFlood(t *testing.T) {
	ts := task.Set{
		{ID: 0, VM: 0, Kind: task.Synthetic, Device: "spi", Period: 1000, WCET: 10, Deadline: 1000},
		{ID: 1, VM: 1, Kind: task.Safety, Device: "spi", Period: 1000, WCET: 10, Deadline: 1000},
	}
	col := &system.Collector{}
	var victimDone slot.Time
	col.Observe(func(j *task.Job, at slot.Time) {
		if j.Task.ID == 1 {
			victimDone = at
		}
	})
	l, err := NewLegacy(2, ts, col)
	if err != nil {
		t.Fatal(err)
	}
	for i := 0; i < 10; i++ {
		l.Submit(0, task.NewJob(&ts[0], i, 0))
	}
	l.Submit(0, task.NewJob(&ts[1], 0, 0))
	for now := slot.Time(0); now < 2000; now++ {
		l.Step(now)
	}
	if victimDone == 0 {
		t.Fatal("victim never completed")
	}
	// Ten flood ops × (10 service + 3 setup) ≈ 130 slots of blocking
	// before the victim can even start.
	if victimDone < 100 {
		t.Errorf("victim finished at %d; global FIFO should have made it wait out the flood", victimDone)
	}
}

// TestBaselineStatsNonNegative sanity-checks the exported counters on
// a busy run.
func TestBaselineStatsNonNegative(t *testing.T) {
	ts := lightWorkload()
	col := &system.Collector{}
	l, _ := NewLegacy(2, ts, col)
	for i := 0; i < 5; i++ {
		l.Submit(0, task.NewJob(&ts[0], i, 0))
	}
	for now := slot.Time(0); now < 3000; now++ {
		l.Step(now)
	}
	st := l.t.mesh.Stats()
	if st.Injected <= 0 || st.Delivered <= 0 || st.Forwarded < st.Delivered {
		t.Errorf("mesh stats inconsistent: %+v", st)
	}
	if st.AvgDelay() <= 0 || st.MaxQueued < 0 {
		t.Errorf("derived stats inconsistent: %+v", st)
	}
}
