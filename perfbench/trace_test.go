package main

import (
	"testing"

	"ioguard/internal/experiments"
	"ioguard/internal/metrics"
	"ioguard/internal/sim"
	"ioguard/internal/system"
)

// trialsUnderTest returns one trial of each workload shape: a fig7a
// cell at U=0.90, the golden avionics cell's trial, and a robust cell
// under the storm scenario (every fault kind at once).
func trialsUnderTest(t *testing.T) map[string]system.Trial {
	t.Helper()
	pick := func(spec *sweepSpec, key string) system.Trial {
		cells, err := spec.cells()
		if err != nil {
			t.Fatal(err)
		}
		for _, c := range cells {
			if c.key == key {
				return c.cell.Trial
			}
		}
		t.Fatalf("%s: no cell %s", spec.name, key)
		return system.Trial{}
	}
	av, err := avionicsSpec(1)
	if err != nil {
		t.Fatal(err)
	}
	return map[string]system.Trial{
		"fig7a":    pick(fig7aSpec(1), "u0.90/t0/I/O-GUARD-70"),
		"avionics": pick(av, avionicsGoldenCell),
		"robust":   pick(robustSpec(1), "storm/t0/I/O-GUARD-70"),
	}
}

func sameResult(a, b *metrics.TrialResult) bool {
	return digest("x", a) == digest("x", b) &&
		a.Released == b.Released && a.Completed == b.Completed &&
		a.Dropped == b.Dropped && a.Unfinished == b.Unfinished
}

// TestWrappersExposeTheSameInterfaces pins the optional interfaces
// system.Run selects its execution path by: a wrapped system must be a
// ShardedSystem, Quiescer and Skipper exactly when the wrapped one is,
// and each wrapped shard a Skipper and a parallel-executor shard
// (completion-sink redirection) exactly when its original is. It runs
// first because a wrapper that drops one can send the runner down a
// path that never ends.
func TestWrappersExposeTheSameInterfaces(t *testing.T) {
	tr := trialsUnderTest(t)["fig7a"]
	for name, build := range experiments.Builders() {
		sys, err := build(tr, system.NewCollector(0))
		if err != nil {
			t.Fatal(err)
		}
		tt := &trialTrace{system: name}
		w := wrapSystem(sys, tt)
		same := func(what string, a, b bool) {
			if a != b {
				t.Errorf("%s: %s: wrapped %v, original %v", name, what, b, a)
			}
		}
		ss, sharded := sys.(system.ShardedSystem)
		ws, wSharded := w.(system.ShardedSystem)
		same("ShardedSystem", sharded, wSharded)
		_, q := sys.(sim.Quiescer)
		_, wq := w.(sim.Quiescer)
		same("Quiescer", q, wq)
		_, sk := sys.(sim.Skipper)
		_, wsk := w.(sim.Skipper)
		same("Skipper", sk, wsk)
		if !sharded || !wSharded {
			continue
		}
		orig, wrapped := ss.Shards(), ws.Shards()
		if len(orig) != len(wrapped) {
			t.Fatalf("%s: %d shards wrapped as %d", name, len(orig), len(wrapped))
		}
		for i := range orig {
			_, sk := orig[i].(sim.Skipper)
			_, wsk := wrapped[i].(sim.Skipper)
			same("shard Skipper", sk, wsk)
			_, ps := orig[i].(completionSinker)
			_, wps := wrapped[i].(completionSinker)
			same("shard completion sink", ps, wps)
		}
	}
}

// TestTracedRunsMatchUntraced pins that tracing changes no simulated
// result: for every system on every workload shape, the traced trial
// equals the untraced one, and the trace saw the trial's work.
func TestTracedRunsMatchUntraced(t *testing.T) {
	if testing.Short() {
		t.Skip("runs 36 trials, some at H = 4,000,000 slots")
	}
	builders := experiments.Builders()
	for shape, tr := range trialsUnderTest(t) {
		for _, name := range experiments.AllSystemNames() {
			bc := benchCell{key: shape + "/" + name, system: name, cell: system.Cell{Build: builders[name], Trial: tr}}
			plain := runCell(bc, false)
			traced := runCell(bc, true)
			if plain.err != nil || traced.err != nil {
				t.Fatalf("%s: %v / %v", bc.key, plain.err, traced.err)
			}
			if !sameResult(plain.res, traced.res) {
				t.Errorf("%s: traced result differs from untraced", bc.key)
			}
			tt := traced.tt
			var steps int64
			for _, st := range tt.shards {
				steps += st.step.calls
			}
			if len(tt.shards) == 0 || steps == 0 || tt.build.calls != 1 {
				t.Errorf("%s: trace missed the run (shards %d, steps %d, builds %d)", bc.key, len(tt.shards), steps, tt.build.calls)
			}
			if tt.completions != plain.res.Completed {
				t.Errorf("%s: traced %d completions, result has %d", bc.key, tt.completions, plain.res.Completed)
			}
		}
	}
}
