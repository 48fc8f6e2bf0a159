package sim

import "ioguard/internal/slot"

// Clocked is a component that owns a local virtual clock inside a
// ShardSet: it is stepped like a Stepper and must answer NextWork
// against its own clock (the Quiescer contract, evaluated per
// component rather than globally).
type Clocked interface {
	Stepper
	Quiescer
}

// FeedFunc delivers a shard's external inputs for slot now. The
// scheduler calls it immediately before stepping the shard at now, so
// the shard sees exactly the inputs a dense run would have submitted
// at that slot.
type FeedFunc func(shard int, now slot.Time)

// HorizonFunc bounds how far a shard may run ahead: it returns the
// earliest slot ≥ the shard's current clock at which an upstream peer
// could still hand the shard work, or limit when nothing can arrive
// before limit. Returning a conservative (too early) slot is always
// safe — the shard just wakes, finds nothing, and asks again.
type HorizonFunc func(shard int, limit slot.Time) slot.Time

// ShardStats accounts one shard's progress through a ShardSet run.
type ShardStats struct {
	Stepped int64     // slots executed
	Skipped slot.Time // slots fast-forwarded
}

// shard is one registered component plus its virtual clock.
type shard struct {
	c     Clocked
	sk    Skipper // nil: nothing to account over skipped spans
	clock slot.Time
	stats ShardStats
}

// ShardSet runs a group of independently-clocked components. Instead
// of one global min over every component's NextWork (which lets a
// single busy component force dense stepping of all the others), each
// shard advances through its own busy and idle regions; the set keeps
// a small binary heap of (clock, shard) entries and always executes
// the laggard. Determinism is preserved by construction:
//
//   - the minimum-clock shard runs first, so when a shard executes
//     slot t every peer is already at ≥ t and all cross-shard inputs
//     for t exist (the FeedFunc hands them over before the step);
//   - a shard may only jump over [t, next) when its own NextWork and
//     the HorizonFunc prove no work and no input can appear in the
//     span — exactly the global fast-forward rule, applied per shard;
//   - skipped spans are reported to the shard's Skipper, so per-slot
//     accounting is identical to dense stepping.
//
// A dense run and a ShardSet run of the same components are therefore
// bit-identical per component; only the interleaving of *independent*
// components differs, which callers that merge cross-shard output
// must undo by ordering on (slot, shard) — see system.Collector.
type ShardSet struct {
	shards []shard
	heap   []int32 // shard indices ordered by (clock, index)
}

// NewShardSet returns an empty shard scheduler.
func NewShardSet() *ShardSet {
	return &ShardSet{}
}

// Add registers a component as one shard with its clock at 0 and
// returns its shard index. The component's Skipper implementation, if
// any, is captured here.
func (s *ShardSet) Add(c Clocked) int {
	sh := shard{c: c}
	if sk, ok := c.(Skipper); ok {
		sh.sk = sk
	}
	s.shards = append(s.shards, sh)
	return len(s.shards) - 1
}

// Len returns the number of registered shards.
func (s *ShardSet) Len() int { return len(s.shards) }

// Stats returns shard i's progress accounting.
func (s *ShardSet) Stats(i int) ShardStats { return s.shards[i].stats }

// Clock returns shard i's local virtual clock.
func (s *ShardSet) Clock(i int) slot.Time { return s.shards[i].clock }

// before orders the scheduler heap by (clock, shard index): the
// laggard shard first, ties in registration order so equal-clock
// shards step in the same order a dense loop would.
func (s *ShardSet) before(a, b int32) bool {
	ca, cb := s.shards[a].clock, s.shards[b].clock
	if ca != cb {
		return ca < cb
	}
	return a < b
}

// push and pop maintain the laggard heap.
func (s *ShardSet) push(i int32) {
	h := append(s.heap, i)
	k := len(h) - 1
	for k > 0 {
		p := (k - 1) / 2
		if !s.before(h[k], h[p]) {
			break
		}
		h[k], h[p] = h[p], h[k]
		k = p
	}
	s.heap = h
}

func (s *ShardSet) pop() int32 {
	h := s.heap
	n := len(h) - 1
	root := h[0]
	h[0] = h[n]
	h = h[:n]
	i := 0
	for {
		l, r := 2*i+1, 2*i+2
		m := i
		if l < n && s.before(h[l], h[m]) {
			m = l
		}
		if r < n && s.before(h[r], h[m]) {
			m = r
		}
		if m == i {
			break
		}
		h[i], h[m] = h[m], h[i]
		i = m
	}
	s.heap = h
	return root
}

// Run advances every shard's clock to until (exclusive of slot until
// itself), executing the laggard-first (clock, shard) lexicographic
// schedule: each pop executes exactly one slot of the minimum-clock
// shard — feed first, then Step — and then fast-forwards the shard as
// far as its NextWork and the horizon allow. feed and horizon may be
// nil for closed shards with no external inputs. Callers may run the
// set in successive windows (the sharded executor's epochs): a shard
// resumes at the clock the previous call left it at.
func (s *ShardSet) Run(until slot.Time, feed FeedFunc, horizon HorizonFunc) {
	s.heap = s.heap[:0]
	for i := range s.shards {
		if s.shards[i].clock < until {
			s.push(int32(i))
		}
	}
	for len(s.heap) > 0 {
		idx := s.pop()
		sh := &s.shards[idx]
		now := sh.clock
		if feed != nil {
			feed(int(idx), now)
		}
		sh.c.Step(now)
		sh.stats.Stepped++
		now++
		if now >= until {
			sh.clock = until
			continue
		}
		// Fast-forward: the shard itself proves no internal work, the
		// horizon proves no external input can arrive in the span.
		next := until
		if nw := sh.c.NextWork(now); nw < next {
			next = nw
		}
		if horizon != nil {
			if hz := horizon(int(idx), next); hz < next {
				next = hz
			}
		}
		if next > now {
			if sh.sk != nil {
				sh.sk.SkipTo(now, next)
			}
			sh.stats.Skipped += next - now
			sh.clock = next
		} else {
			sh.clock = now
		}
		if sh.clock < until {
			s.push(idx)
		}
	}
}
