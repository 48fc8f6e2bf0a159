// Package sim holds the clock protocol that stands in for the global
// timer of the VC709 FPGA platform of the paper's evaluation. All
// system elements synchronize to a single global timer (assumption
// (iii) of Sec. II); system.Run models that timer as one loop over a
// system's shards, each stepped only in the slots it has work or input
// in. The interfaces here are what a component offers that loop.
//
// Determinism matters: the paper re-runs each configuration 1000
// times with identical inputs across systems, so "the data input to
// the examined systems was identical in each execution". Callers seed
// every random source explicitly; this package draws none.
//
// # Determinism contract
//
// Independent of how time advances, the observable order of work is
// fixed:
//
//   - a component is stepped at most once per slot, and every slot it
//     is not stepped in is reported to its Skipper;
//   - (slot, component) pairs execute in lexicographic order, so
//     equal-slot components step in registration order, as a dense
//     loop steps them;
//   - fast-forwarding may never skip a slot that a component declared
//     busy or that could carry an external input to it, so it is
//     invisible to the simulated system: dense stepping and
//     fast-forward stepping produce identical results, bit for bit.
//
// # Quiescence protocol
//
// A component opts into fast-forward by implementing Quiescer:
// NextWork(now) returns the earliest slot ≥ now at which the component
// needs to be stepped (now itself if it is busy, slot.Never if it is
// fully drained), assuming every slot before now has been stepped.
// Components that account per-slot statistics over idle spans (e.g.
// table-idle counters) additionally implement Skipper; SkipTo observes
// the skipped span [from, to) in bulk.
package sim

import "ioguard/internal/slot"

// Stepper is a hardware component clocked by the global timer: Step
// is called exactly once per executed slot.
type Stepper interface {
	Step(now slot.Time)
}

// Quiescer is the optional fast-forward extension of Stepper.
// NextWork(now) returns the earliest slot ≥ now at which the
// component has work, under the assumption that every slot before now
// has been stepped: now itself when busy, slot.Never when fully
// drained. The scheduler may then skip the slots in between without
// stepping the component. Implementations must be conservative — a
// slot that would change any observable state counts as work.
type Quiescer interface {
	NextWork(now slot.Time) slot.Time
}

// Skipper is the optional bulk-accounting extension for components
// that maintain per-slot counters even while idle. When the scheduler
// fast-forwards, SkipTo(from, to) reports the skipped span [from, to)
// so the component can account it in O(1) instead of O(span).
type Skipper interface {
	SkipTo(from, to slot.Time)
}
