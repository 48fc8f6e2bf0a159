package workload

import (
	"math"
	"math/rand"
	"reflect"
	"testing"
	"testing/quick"

	"ioguard/internal/slot"
	"ioguard/internal/task"
)

func TestCataloguesHaveTwentyEach(t *testing.T) {
	if n := len(SafetyEntries()); n != 20 {
		t.Errorf("safety entries = %d, want 20", n)
	}
	if n := len(FunctionEntries()); n != 20 {
		t.Errorf("function entries = %d, want 20", n)
	}
}

func TestCatalogueNamesUnique(t *testing.T) {
	seen := map[string]bool{}
	for _, e := range append(SafetyEntries(), FunctionEntries()...) {
		if seen[e.Name] {
			t.Errorf("duplicate benchmark name %q", e.Name)
		}
		seen[e.Name] = true
	}
}

func TestCatalogueBaseUtilizationIs40Percent(t *testing.T) {
	// Sec. V-C: "overall system utilization approximately 40%".
	util := map[string]float64{}
	for _, e := range append(SafetyEntries(), FunctionEntries()...) {
		util[e.Device] += e.Utilization()
	}
	for dev, u := range util {
		if u < 0.35 || u > 0.45 {
			t.Errorf("%s base utilization %.3f outside [0.35,0.45]", dev, u)
		}
	}
	if len(util) != 2 {
		t.Errorf("catalogue should span ethernet and flexray: %v", util)
	}
}

func TestCataloguePeriodsOnLadder(t *testing.T) {
	ladder := map[int64]bool{1000: true, 2000: true, 4000: true, 8000: true, 16000: true}
	for _, e := range append(SafetyEntries(), FunctionEntries()...) {
		if !ladder[int64(e.Period)] {
			t.Errorf("%s period %d not on the harmonic ladder", e.Name, e.Period)
		}
		if e.WCET <= 0 || e.WCET > e.Period {
			t.Errorf("%s wcet %d invalid for period %d", e.Name, e.WCET, e.Period)
		}
	}
}

func TestUUniFastSumsToTotal(t *testing.T) {
	f := func(seed int64, n8 uint8, t8 uint8) bool {
		n := int(n8%8) + 1
		total := float64(t8%90)/100 + 0.05
		rng := rand.New(rand.NewSource(seed))
		us := UUniFast(rng, n, total)
		if len(us) != n {
			return false
		}
		sum := 0.0
		for _, u := range us {
			if u < 0 {
				return false
			}
			sum += u
		}
		return math.Abs(sum-total) < 1e-9
	}
	if err := quick.Check(f, nil); err != nil {
		t.Error(err)
	}
}

func TestUUniFastPanicsOnZero(t *testing.T) {
	defer func() {
		if recover() == nil {
			t.Error("UUniFast(0) should panic")
		}
	}()
	UUniFast(rand.New(rand.NewSource(1)), 0, 0.5)
}

// generateCases are Generate's validation cases; FuzzWorkloadConfig
// is seeded from them.
var generateCases = []struct {
	name string
	cfg  Config
	ok   bool
}{
	{"zero VMs", Config{VMs: 0, TargetUtil: 0.5}, false},
	{"negative VMs", Config{VMs: -1, TargetUtil: 0.5}, false},
	{"utilization > 1", Config{VMs: 4, TargetUtil: 1.5}, false},
	{"NaN utilization", Config{VMs: 4, TargetUtil: math.NaN()}, false},
	{"+Inf utilization", Config{VMs: 4, TargetUtil: math.Inf(1)}, false},
	{"-Inf utilization", Config{VMs: 4, TargetUtil: math.Inf(-1)}, false},
	// The catalogue fixes a ≈0.40 per-device floor: targets below it
	// must fail loudly (sub-floor sets come from Stretch/StretchToUtil),
	// not silently produce the floor workload.
	{"sub-floor target utilization", Config{VMs: 4, TargetUtil: 0.3}, false},
	{"zero target utilization", Config{VMs: 4, TargetUtil: 0}, false},
	{"the floor itself", Config{VMs: 4, TargetUtil: 0.4, Seed: 1}, true},
	{"jittered case-study point", Config{VMs: 4, TargetUtil: 0.7, Seed: 1, SyntheticJitter: 80}, true},
}

func TestGenerateValidation(t *testing.T) {
	for _, c := range generateCases {
		if _, err := Generate(c.cfg); (err == nil) != c.ok {
			t.Errorf("%s: Generate(%+v) error %v, want ok=%v", c.name, c.cfg, err, c.ok)
		}
	}
}

// FuzzWorkloadConfig checks Generate's contract for an arbitrary
// config: it either returns an error or a set that passes Validate,
// holds the whole safety and function catalogue, keeps every VM index
// in [0, VMs), and equals the set a second call returns.
func FuzzWorkloadConfig(f *testing.F) {
	for _, c := range generateCases {
		f.Add(c.cfg.VMs, c.cfg.TargetUtil, c.cfg.Seed, int64(c.cfg.SyntheticJitter))
	}
	f.Fuzz(func(t *testing.T, vms int, util float64, seed, jitter int64) {
		cfg := Config{VMs: vms, TargetUtil: util, Seed: seed, SyntheticJitter: slot.Time(jitter)}
		ts, err := Generate(cfg)
		if err != nil {
			return
		}
		if err := ts.Validate(); err != nil {
			t.Fatalf("%+v: generated set fails Validate: %v", cfg, err)
		}
		byName := map[string]task.Sporadic{}
		for _, tk := range ts {
			if tk.VM < 0 || tk.VM >= vms {
				t.Fatalf("%+v: task %d on VM %d, outside [0, %d)", cfg, tk.ID, tk.VM, vms)
			}
			byName[tk.Name] = tk
		}
		for _, e := range append(SafetyEntries(), FunctionEntries()...) {
			tk, ok := byName[e.Name]
			if !ok || tk.Kind != e.Kind || tk.Device != e.Device || tk.Period != e.Period ||
				tk.WCET != e.WCET || tk.Deadline != e.Period || tk.OpBytes != e.OpBytes || tk.Jitter != 0 {
				t.Fatalf("%+v: catalogue entry %+v generated as %+v (present %v)", cfg, e, tk, ok)
			}
		}
		again, err := Generate(cfg)
		if err != nil || !reflect.DeepEqual(again, ts) {
			t.Fatalf("%+v: a second call gave a different set (%v)", cfg, err)
		}
	})
}

func TestStretchValidation(t *testing.T) {
	ts, err := Generate(Config{VMs: 4, TargetUtil: 0.4, Seed: 1})
	if err != nil {
		t.Fatal(err)
	}
	if _, err := Stretch(ts, 0); err == nil {
		t.Error("stretch factor 0 accepted")
	}
	same, err := Stretch(ts, 1)
	if err != nil || len(same) != len(ts) || same[0].Period != ts[0].Period {
		t.Errorf("k=1 must return the set unchanged: %v", err)
	}
	half, err := Stretch(ts, 2)
	if err != nil {
		t.Fatal(err)
	}
	for dev, u := range DeviceUtilization(half) {
		if want := DeviceUtilization(ts)[dev] / 2; math.Abs(u-want) > 1e-9 {
			t.Errorf("%s: stretched utilization %.4f, want %.4f", dev, u, want)
		}
	}
}

func TestStretchToUtil(t *testing.T) {
	ts, err := Generate(Config{VMs: 8, TargetUtil: 0.4, Seed: 1})
	if err != nil {
		t.Fatal(err)
	}
	sparse, err := StretchToUtil(ts, 0.05)
	if err != nil {
		t.Fatal(err)
	}
	for dev, u := range DeviceUtilization(sparse) {
		if u > 0.05+1e-9 {
			t.Errorf("%s: utilization %.4f exceeds the 0.05 target", dev, u)
		}
	}
	// A target at or above the current load is a no-op.
	same, err := StretchToUtil(ts, 0.9)
	if err != nil || same[0].Period != ts[0].Period {
		t.Errorf("above-load target must not stretch: %v", err)
	}
	if _, err := StretchToUtil(ts, 0); err == nil {
		t.Error("non-positive target accepted")
	}
}

func TestGenerateHitsTargetUtilization(t *testing.T) {
	for _, target := range []float64{0.4, 0.55, 0.7, 0.85, 1.0} {
		ts, err := Generate(Config{VMs: 4, TargetUtil: target, Seed: 42})
		if err != nil {
			t.Fatal(err)
		}
		for dev, u := range DeviceUtilization(ts) {
			if math.Abs(u-target) > 0.05 {
				t.Errorf("target %.2f: %s utilization %.3f off by more than 0.05", target, dev, u)
			}
		}
	}
}

func TestGenerateTaskProperties(t *testing.T) {
	ts, err := Generate(Config{VMs: 8, TargetUtil: 0.8, Seed: 7, SyntheticJitter: 100})
	if err != nil {
		t.Fatal(err)
	}
	if err := ts.Validate(); err != nil {
		t.Fatal(err)
	}
	if len(ts) < 40 {
		t.Fatalf("generated %d tasks, want ≥ 40", len(ts))
	}
	safety := ts.Filter(func(tk task.Sporadic) bool { return tk.Kind == task.Safety })
	function := ts.Filter(func(tk task.Sporadic) bool { return tk.Kind == task.Function })
	if len(safety) != 20 || len(function) != 20 {
		t.Errorf("catalogue tasks = %d safety / %d function", len(safety), len(function))
	}
	for _, tk := range ts {
		if tk.Deadline != tk.Period {
			t.Errorf("%s: case-study tasks have implicit deadlines", tk.Name)
		}
		if tk.VM < 0 || tk.VM >= 8 {
			t.Errorf("%s: vm %d out of range", tk.Name, tk.VM)
		}
		if tk.Kind != task.Synthetic && tk.Jitter != 0 {
			t.Errorf("%s: catalogue tasks must be jitter-free", tk.Name)
		}
		if tk.Kind == task.Synthetic && tk.Jitter != 100 {
			t.Errorf("%s: synthetic jitter not applied", tk.Name)
		}
	}
	// Hyperperiod stays on the harmonic ladder (a divisor of 16 ms).
	if h := ts.Hyperperiod(); h <= 0 || 16000%h != 0 {
		t.Errorf("hyperperiod = %d, want a divisor of 16000", h)
	}
}

func TestGenerateVMsRoundRobin(t *testing.T) {
	ts, _ := Generate(Config{VMs: 4, TargetUtil: 0.4, Seed: 1})
	counts := map[int]int{}
	for _, tk := range ts {
		counts[tk.VM]++
	}
	if len(counts) != 4 {
		t.Fatalf("VM spread = %v", counts)
	}
	for vmID, n := range counts {
		if n < 8 {
			t.Errorf("vm %d has only %d tasks", vmID, n)
		}
	}
}

func TestGenerateDeterministic(t *testing.T) {
	a, _ := Generate(Config{VMs: 4, TargetUtil: 0.9, Seed: 5})
	b, _ := Generate(Config{VMs: 4, TargetUtil: 0.9, Seed: 5})
	if len(a) != len(b) {
		t.Fatal("same seed different task counts")
	}
	for i := range a {
		if a[i] != b[i] {
			t.Fatal("same seed different tasks")
		}
	}
	c, _ := Generate(Config{VMs: 4, TargetUtil: 0.9, Seed: 6})
	diff := len(a) != len(c)
	if !diff {
		for i := range a {
			if a[i] != c[i] {
				diff = true
				break
			}
		}
	}
	if !diff {
		t.Error("different seeds produced identical synthetic load")
	}
}

func TestGenerateAt40PercentHasNoSynthetic(t *testing.T) {
	ts, _ := Generate(Config{VMs: 4, TargetUtil: 0.4, Seed: 1})
	for _, tk := range ts {
		if tk.Kind == task.Synthetic {
			// Allowed only if base utilization fell short of 0.40.
			u := DeviceUtilization(ts)[tk.Device]
			if u > 0.46 {
				t.Errorf("target 0.40 overshot on %s: %.3f", tk.Device, u)
			}
		}
	}
}

// TestGeneratedSetsExactCapacity: sweeps keep every generated task set
// alive for their whole run, so a generator must not hand back
// append's spare capacity with it.
func TestGeneratedSetsExactCapacity(t *testing.T) {
	gens := map[string]func() (task.Set, error){
		"case-study": func() (task.Set, error) { return Generate(Config{VMs: 4, TargetUtil: 0.8, Seed: 1}) },
		"telemetry": func() (task.Set, error) {
			return GenerateTelemetry(TelemetryConfig{VMs: 4, Sensors: 3, HotDevice: "can", HotUtil: 0.5, Seed: 1})
		},
		"avionics": func() (task.Set, error) { return GenerateAvionics(AvionicsConfig{VMs: 4, Partitions: 3, Seed: 1}) },
	}
	for name, gen := range gens {
		ts, err := gen()
		if err != nil {
			t.Fatalf("%s: %v", name, err)
		}
		if cap(ts) != len(ts) {
			t.Errorf("%s: %d tasks in a set of capacity %d", name, len(ts), cap(ts))
		}
	}
}
