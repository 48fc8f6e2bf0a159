package core

import (
	"strings"
	"testing"

	"ioguard/internal/hypervisor"
	"ioguard/internal/slot"
	"ioguard/internal/system"
	"ioguard/internal/task"
)

// caseWorkload builds a small two-device workload with zero jitter so
// every task is preload-eligible.
func caseWorkload() task.Set {
	return task.Set{
		{ID: 0, VM: 0, Kind: task.Safety, Device: "ethernet", Period: 64, WCET: 4, Deadline: 64, OpBytes: 256},
		{ID: 1, VM: 0, Kind: task.Function, Device: "ethernet", Period: 128, WCET: 8, Deadline: 128, OpBytes: 512},
		{ID: 2, VM: 1, Kind: task.Safety, Device: "flexray", Period: 64, WCET: 4, Deadline: 64, OpBytes: 128},
		{ID: 3, VM: 1, Kind: task.Synthetic, Device: "flexray", Period: 128, WCET: 8, Deadline: 128, OpBytes: 64},
	}
}

func TestNewValidation(t *testing.T) {
	if _, err := New(Config{VMs: 0}, caseWorkload(), nil); err == nil {
		t.Error("zero VMs accepted")
	}
	if _, err := New(Config{VMs: 2, PreloadFrac: 1.5}, caseWorkload(), nil); err == nil {
		t.Error("fraction > 1 accepted")
	}
	bad := task.Set{{ID: 0, VM: 0, Device: "ethernet", Period: 0, WCET: 1, Deadline: 1}}
	if _, err := New(Config{VMs: 1}, bad, nil); err == nil {
		t.Error("invalid task accepted")
	}
	unknown := task.Set{{ID: 0, VM: 0, Device: "tape", Period: 8, WCET: 1, Deadline: 8}}
	if _, err := New(Config{VMs: 1}, unknown, nil); err == nil {
		t.Error("unknown device accepted")
	}
}

func TestNameReflectsPreloadFraction(t *testing.T) {
	s40, err := New(Config{VMs: 2, PreloadFrac: 0.4}, caseWorkload(), nil)
	if err != nil {
		t.Fatal(err)
	}
	if s40.Name() != "I/O-GUARD-40" {
		t.Errorf("name = %q", s40.Name())
	}
	s70, _ := New(Config{VMs: 2, PreloadFrac: 0.7}, caseWorkload(), nil)
	if s70.Name() != "I/O-GUARD-70" {
		t.Errorf("name = %q", s70.Name())
	}
}

func TestPreloadPartition(t *testing.T) {
	ws := caseWorkload()
	s, err := New(Config{VMs: 2, PreloadFrac: 0.5}, ws, nil)
	if err != nil {
		t.Fatal(err)
	}
	if len(s.Preloaded()) != 2 || len(s.Residual()) != 2 {
		t.Fatalf("partition = %d pre / %d residual, want 2/2",
			len(s.Preloaded()), len(s.Residual()))
	}
	// Lowest IDs are selected first.
	if s.Preloaded()[0].ID != 0 || s.Preloaded()[1].ID != 1 {
		t.Errorf("preloaded = %v", s.Preloaded())
	}
	// Jittery tasks are never preloaded.
	ws2 := caseWorkload()
	for i := range ws2 {
		ws2[i].Jitter = 3
	}
	s2, err := New(Config{VMs: 2, PreloadFrac: 1}, ws2, nil)
	if err != nil {
		t.Fatal(err)
	}
	if len(s2.Preloaded()) != 0 {
		t.Error("jittery tasks must stay in the R-channel")
	}
}

func TestZeroPreloadHasEmptyTables(t *testing.T) {
	s, err := New(Config{VMs: 2, PreloadFrac: 0}, caseWorkload(), nil)
	if err != nil {
		t.Fatal(err)
	}
	if len(s.Preloaded()) != 0 || len(s.Residual()) != 4 {
		t.Error("zero fraction should preload nothing")
	}
	mgr, ok := s.Managers()["ethernet"]
	if !ok {
		t.Fatal("no ethernet manager")
	}
	if mgr.Config().Table.FreeCount() != mgr.Config().Table.Len() {
		t.Error("table should be all free with no preloads")
	}
}

func TestEndToEndMeetsDeadlinesUnderFeasibleLoad(t *testing.T) {
	build := func(tr system.Trial, col *system.Collector) (system.System, error) {
		return New(Config{VMs: tr.VMs, PreloadFrac: 0.5, Mode: hypervisor.DirectEDF}, tr.Tasks, col)
	}
	res, err := system.Run(build, system.Trial{
		VMs: 2, Tasks: caseWorkload(), Horizon: 2048, Seed: 3,
	})
	if err != nil {
		t.Fatal(err)
	}
	if res.Completed < 40 {
		t.Fatalf("too few completions: %d", res.Completed)
	}
	if !res.Success() {
		t.Errorf("feasible load should have no critical misses: %+v", res)
	}
	if res.BytesServed == 0 {
		t.Error("throughput accounting broken")
	}
}

func TestPreloadedTasksCompleteExactlyOnSchedule(t *testing.T) {
	col := &system.Collector{}
	col.Observe(func(j *task.Job, at slot.Time) {
		if at > j.Deadline {
			t.Errorf("P-channel job %d missed: %d > %d", j.Seq, at, j.Deadline)
		}
	})
	ts := task.Set{{ID: 0, VM: 0, Kind: task.Safety, Device: "spi", Period: 16, WCET: 2, Deadline: 16}}
	s, err := New(Config{VMs: 1, PreloadFrac: 1}, ts, col)
	if err != nil {
		t.Fatal(err)
	}
	if len(s.Residual()) != 0 {
		t.Fatal("everything should be preloaded")
	}
	for now := slot.Time(0); now < 160; now++ {
		s.Step(now)
	}
	if col.Completed() != 10 {
		t.Fatalf("completions = %d, want 10", col.Completed())
	}
}

func TestHigherPreloadNoWorseUnderOverload(t *testing.T) {
	// Build an overloaded R-channel: when most tasks are preloaded the
	// table guarantees them, so I/O-GUARD-80 must miss no more
	// critical deadlines than I/O-GUARD-0.
	ts := task.Set{
		{ID: 0, VM: 0, Kind: task.Safety, Device: "spi", Period: 32, WCET: 8, Deadline: 32, OpBytes: 64},
		{ID: 1, VM: 0, Kind: task.Safety, Device: "spi", Period: 32, WCET: 8, Deadline: 32, OpBytes: 64},
		{ID: 2, VM: 1, Kind: task.Safety, Device: "spi", Period: 32, WCET: 8, Deadline: 32, OpBytes: 64},
		{ID: 3, VM: 1, Kind: task.Synthetic, Device: "spi", Period: 32, WCET: 12, Deadline: 32, OpBytes: 64},
	}
	missesAt := func(frac float64) int64 {
		build := func(tr system.Trial, col *system.Collector) (system.System, error) {
			return New(Config{VMs: 2, PreloadFrac: frac, Mode: hypervisor.DirectEDF}, tr.Tasks, col)
		}
		res, err := system.Run(build, system.Trial{VMs: 2, Tasks: ts, Horizon: 2048, Seed: 5})
		if err != nil {
			t.Fatal(err)
		}
		return res.CriticalMisses
	}
	if m80, m0 := missesAt(0.8), missesAt(0); m80 > m0 {
		t.Errorf("preloading should not hurt: misses 80%%=%d 0%%=%d", m80, m0)
	}
}

func TestDemotionOnInfeasiblePreload(t *testing.T) {
	// Two tasks that cannot both fit one table (combined U > 1): the
	// builder must demote rather than fail.
	ts := task.Set{
		{ID: 0, VM: 0, Device: "spi", Period: 8, WCET: 5, Deadline: 8},
		{ID: 1, VM: 1, Device: "spi", Period: 8, WCET: 5, Deadline: 8},
	}
	s, err := New(Config{VMs: 2, PreloadFrac: 1}, ts, nil)
	if err != nil {
		t.Fatal(err)
	}
	if len(s.Preloaded()) != 1 || len(s.Residual()) != 1 {
		t.Errorf("demotion should leave 1 preloaded, 1 residual: %d/%d",
			len(s.Preloaded()), len(s.Residual()))
	}
}

func TestServerEDFConfiguration(t *testing.T) {
	ts := caseWorkload()
	servers := []task.Server{
		{VM: 0, Period: 16, Budget: 8},
		{VM: 1, Period: 16, Budget: 8},
	}
	col := &system.Collector{}
	s, err := New(Config{VMs: 2, Mode: hypervisor.ServerEDF, Servers: servers}, ts, col)
	if err != nil {
		t.Fatal(err)
	}
	build := func(tr system.Trial, c *system.Collector) (system.System, error) {
		return New(Config{VMs: 2, Mode: hypervisor.ServerEDF, Servers: servers}, tr.Tasks, c)
	}
	res, err := system.Run(build, system.Trial{VMs: 2, Tasks: ts, Horizon: 2048, Seed: 9})
	if err != nil {
		t.Fatal(err)
	}
	if res.Completed == 0 {
		t.Error("server mode should complete work")
	}
	_ = s
}

func TestDescribe(t *testing.T) {
	s, err := New(Config{VMs: 2, PreloadFrac: 0.5}, caseWorkload(), nil)
	if err != nil {
		t.Fatal(err)
	}
	out := s.Describe()
	for _, want := range []string{"I/O-GUARD-50", "ethernet", "flexray", "σ*", "op overhead"} {
		if !strings.Contains(out, want) {
			t.Errorf("Describe missing %q:\n%s", want, out)
		}
	}
}
