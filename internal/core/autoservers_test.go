package core

import (
	"strings"
	"testing"

	"ioguard/internal/hypervisor"
	"ioguard/internal/slot"
	"ioguard/internal/system"
	"ioguard/internal/task"
)

// lightServerWorkload keeps per-VM utilization low so synthesis
// succeeds comfortably.
func lightServerWorkload() task.Set {
	return task.Set{
		{ID: 0, VM: 0, Kind: task.Safety, Device: "spi", Period: 512, WCET: 8, Deadline: 512, OpBytes: 64},
		{ID: 1, VM: 1, Kind: task.Function, Device: "spi", Period: 1024, WCET: 16, Deadline: 1024, OpBytes: 64},
	}
}

func TestAutoServersSynthesizesAndRuns(t *testing.T) {
	col := &system.Collector{}
	s, err := New(Config{
		VMs:         2,
		Mode:        hypervisor.ServerEDF,
		AutoServers: true,
	}, lightServerWorkload(), col)
	if err != nil {
		t.Fatal(err)
	}
	mgr, ok := s.Managers()["spi"]
	if !ok {
		t.Fatal("no spi manager")
	}
	if len(mgr.Config().Servers) != 2 {
		t.Fatalf("synthesized servers = %v", mgr.Config().Servers)
	}
	for _, g := range mgr.Config().Servers {
		if err := g.Validate(); err != nil {
			t.Errorf("server %v invalid: %v", g, err)
		}
	}
	// The synthesized system must meet every deadline under maximal
	// sporadic pressure.
	build := func(tr system.Trial, c *system.Collector) (system.System, error) {
		return New(Config{VMs: tr.VMs, Mode: hypervisor.ServerEDF, AutoServers: true}, tr.Tasks, c)
	}
	res, err := system.Run(build, system.Trial{VMs: 2, Tasks: lightServerWorkload(), Horizon: 8192, Seed: 4})
	if err != nil {
		t.Fatal(err)
	}
	if res.Completed == 0 || res.CriticalMisses != 0 {
		t.Errorf("auto-server run: %+v", res)
	}
}

func TestAutoServersRejectsOverload(t *testing.T) {
	heavy := task.Set{
		{ID: 0, VM: 0, Device: "spi", Period: 16, WCET: 10, Deadline: 16},
		{ID: 1, VM: 1, Device: "spi", Period: 16, WCET: 10, Deadline: 16},
	}
	_, err := New(Config{VMs: 2, Mode: hypervisor.ServerEDF, AutoServers: true}, heavy, nil)
	if err == nil {
		t.Fatal("overloaded auto-server synthesis should fail")
	}
	if !strings.Contains(err.Error(), "spi") {
		t.Errorf("error should name the device: %v", err)
	}
}

func TestAutoServersRejectsTightDeadlineVsPath(t *testing.T) {
	// WCET + overhead barely exceeds the path-adjusted deadline.
	tight := task.Set{
		{ID: 0, VM: 0, Device: "spi", Period: 16, WCET: 10, Deadline: 12},
	}
	if _, err := New(Config{VMs: 1, Mode: hypervisor.ServerEDF, AutoServers: true}, tight, nil); err == nil {
		t.Error("deadline tighter than wcet+overhead+path should be rejected")
	}
}

func TestAutoServersExplicitPeriod(t *testing.T) {
	s, err := New(Config{
		VMs:          2,
		Mode:         hypervisor.ServerEDF,
		AutoServers:  true,
		ServerPeriod: 64,
	}, lightServerWorkload(), nil)
	if err != nil {
		t.Fatal(err)
	}
	mgr := s.Managers()["spi"]
	for _, g := range mgr.Config().Servers {
		if g.Period != 64 {
			t.Errorf("server period = %d, want 64", g.Period)
		}
	}
}

func TestAutoServersIgnoredInDirectEDF(t *testing.T) {
	s, err := New(Config{VMs: 2, Mode: hypervisor.DirectEDF, AutoServers: true}, lightServerWorkload(), nil)
	if err != nil {
		t.Fatal(err)
	}
	mgr := s.Managers()["spi"]
	if len(mgr.Config().Servers) != 0 {
		t.Error("DirectEDF should not synthesize servers")
	}
}

func TestVMStatsThroughCore(t *testing.T) {
	col := &system.Collector{}
	s, err := New(Config{VMs: 2, Mode: hypervisor.DirectEDF}, lightServerWorkload(), col)
	if err != nil {
		t.Fatal(err)
	}
	tk := &lightServerWorkload()[0]
	s.Submit(0, task.NewJob(tk, 0, 0))
	for now := slot.Time(0); now < 64; now++ {
		s.Step(now)
	}
	mgr := s.Managers()["spi"]
	st, err := mgr.VMStats(0)
	if err != nil {
		t.Fatal(err)
	}
	if st.Admitted != 1 || st.Completed != 1 || st.SlotsUsed == 0 {
		t.Errorf("vm0 stats = %+v", st)
	}
	if _, err := mgr.VMStats(9); err == nil {
		t.Error("out-of-range VMStats accepted")
	}
}
