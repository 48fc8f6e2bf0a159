// Package sim holds the clock-protocol interfaces that stand in for
// the global timer of the VC709 FPGA platform of the paper's
// evaluation. All system elements synchronize to a single global timer
// (assumption (iii) of Sec. II); system.Run models that timer as one
// loop over a system's shards, each stepped only in the slots it has
// work or input in. The loop itself speaks system.Shard, whose
// NextWork is the Quiescer contract below.
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
//   - a component is stepped at most once per slot, and its state
//     changes only in the slots it is stepped in: a skipped slot is one
//     in which a step would have changed nothing;
//   - (slot, component) pairs execute in lexicographic order, so
//     equal-slot components step in registration order, as a dense
//     loop steps them;
//   - fast-forwarding may never skip a slot that a component declared
//     busy or that could carry an external input to it, so it is
//     invisible to the simulated system: dense stepping and
//     fast-forward stepping produce identical results, bit for bit.
//
// No component in this module implements Skipper, and the run loop
// calls no SkipTo. Both interfaces stay declared because the
// end-to-end benchmark's tracer (perfbench/trace.go) type-asserts them
// when it wraps a system.
package sim

import "ioguard/internal/slot"

// Quiescer is the fast-forward contract. NextWork(now) returns the
// earliest slot ≥ now at which the component has work, assuming it was
// stepped in every earlier slot it asked for: now itself when busy,
// slot.Never when fully drained. The scheduler may then
// skip the slots in between without stepping the component.
// Implementations must be conservative — a slot that would change any
// observable state counts as work.
type Quiescer interface {
	NextWork(now slot.Time) slot.Time
}

// Skipper reports a skipped span [from, to) to a component. Nothing in
// this module implements or calls it; see the package doc.
type Skipper interface {
	SkipTo(from, to slot.Time)
}
