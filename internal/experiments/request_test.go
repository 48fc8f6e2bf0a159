package experiments

import (
	"reflect"
	"testing"

	"ioguard/internal/system"
	"ioguard/internal/workload"
)

// TestBuilderForCanonicalSpecs: only ioguard-<pct> spelled as
// strconv.Itoa(pct), pct in 0..100, names an I/O-GUARD system; any
// other spelling is an error instead of running a system under a
// label it does not have.
func TestBuilderForCanonicalSpecs(t *testing.T) {
	for _, name := range []string{"ioguard-0", "ioguard-7", "ioguard-70", "ioguard-100", "legacy", "rtxen", "bluevisor", "partition"} {
		if _, err := BuilderFor(name); err != nil {
			t.Errorf("%q rejected: %v", name, err)
		}
	}
	for _, name := range []string{
		"ioguard-70abc", "ioguard-+70", "ioguard-070", "ioguard-7 0", "ioguard-00",
		"ioguard--0", "ioguard-", "ioguard-101", "ioguard--1", "ioguard-70 ",
	} {
		if _, err := BuilderFor(name); err == nil {
			t.Errorf("%q accepted", name)
		}
	}
}

// TestSpecBuildsReportSystem: a spec and the report name in its table
// row build the same system, so a CLI or server probe of ioguard-70
// measures Fig. 7's I/O-GUARD-70. The cell overloads one VM's pools,
// where an unbounded-pool I/O-GUARD drops nothing and the prototype's
// 8-deep pools drop jobs.
func TestSpecBuildsReportSystem(t *testing.T) {
	ts, err := workload.Generate(workload.Config{VMs: 1, TargetUtil: 1.0, Seed: 1})
	if err != nil {
		t.Fatal(err)
	}
	tr := system.Trial{VMs: 1, Tasks: ts, Horizon: ts.Hyperperiod() * 3, Seed: 1}
	builders := Builders()
	for _, row := range systems {
		bySpec, err := BuilderFor(row.spec)
		if err != nil {
			t.Fatalf("%s: %v", row.spec, err)
		}
		want, err := system.Run(builders[row.name], tr)
		if err != nil {
			t.Fatalf("%s: %v", row.name, err)
		}
		got, err := system.Run(bySpec, tr)
		if err != nil {
			t.Fatalf("%s: %v", row.spec, err)
		}
		if !reflect.DeepEqual(got, want) {
			t.Errorf("%s (dropped %d) differs from %s (dropped %d)", row.spec, got.Dropped, row.name, want.Dropped)
		}
	}
}

// TestRequestResolve: the default request resolves to the documented
// trial, a single trial is one cell at the base seed, a sweep follows
// system.SweepCells, and a bad request is an error.
func TestRequestResolve(t *testing.T) {
	rq, err := DefaultRequest().Resolve()
	if err != nil {
		t.Fatal(err)
	}
	ts, err := workload.Generate(workload.Config{VMs: 4, TargetUtil: 0.7, Seed: 1})
	if err != nil {
		t.Fatal(err)
	}
	tr := rq.Trial
	if tr.VMs != 4 || tr.Seed != 1 || tr.Horizon != 3*ts.Hyperperiod() || len(tr.Tasks) != len(ts) ||
		tr.Metrics != system.MetricsExact || tr.Faults.Enabled() {
		t.Errorf("default trial: %d VMs, seed %d, horizon %d, %d tasks, %v, faults %+v",
			tr.VMs, tr.Seed, tr.Horizon, len(tr.Tasks), tr.Metrics, tr.Faults)
	}
	if cells := rq.Cells(); len(cells) != 1 || cells[0].Trial.Seed != 1 {
		t.Errorf("single trial laid out as %d cells", len(cells))
	}
	sweep := DefaultRequest()
	sweep.Trials = 3
	rq, err = sweep.Resolve()
	if err != nil {
		t.Fatal(err)
	}
	want := system.SweepCells(rq.Build, rq.Trial, 3)
	cells := rq.Cells()
	if len(cells) != len(want) {
		t.Fatalf("sweep laid out as %d cells, want %d", len(cells), len(want))
	}
	for i := range cells {
		if cells[i].Trial.Seed != want[i].Trial.Seed {
			t.Errorf("cell %d seed %d, want %d", i, cells[i].Trial.Seed, want[i].Trial.Seed)
		}
	}

	for name, edit := range map[string]func(*Request){
		"trials 0":        func(r *Request) { r.Trials = 0 },
		"vms 0":           func(r *Request) { r.VMs = 0 },
		"hyperperiods 0":  func(r *Request) { r.Hyperperiods = 0 },
		"unknown system":  func(r *Request) { r.System = "warp-drive" },
		"unknown metrics": func(r *Request) { r.Metrics = "fuzzy" },
		"unknown family":  func(r *Request) { r.Workload = "rail" },
		"bad fault plan":  func(r *Request) { r.Plan.DropProb = 2 },
	} {
		req := DefaultRequest()
		edit(&req)
		if _, err := req.Resolve(); err == nil {
			t.Errorf("%s resolved", name)
		}
	}
}
