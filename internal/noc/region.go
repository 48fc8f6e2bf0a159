// Region view of the mesh: the router grid partitioned into
// contiguous row bands, each advancing on its own virtual clock.
//
// The monolithic Mesh steps all Width×Height routers under one clock,
// so one busy row would pin every idle row to dense stepping; it stays
// as the dense reference. A Region owns one row band and exchanges cross-band
// traffic through boundary mailboxes; the conservative-lookahead
// discipline that makes decoupled clocks sound is the boundary-flit
// horizon each region publishes:
//
//	obHz(A→B) = the earliest slot at which a flit from A could still
//	            arrive across the A/B cut.
//
// B may fast-forward to obHz(A→B)+1 and no further (a region never
// skips past a flit that could still arrive from across the cut), and
// B's step of slot t first waits until obHz(A→B) ≥ t, at which point
// every crossing with arrival < t is already deposited in the mailbox
// (the publishing store is sequenced after the deposits, so the atomic
// read ordering carries them over). Horizons are published monotone
// non-decreasing, which is what makes stale reads safe: a stale value
// is merely more conservative.
//
// Determinism is exact, not statistical: a region applies the
// arrivals of slot t-1 — its own deferred hops plus both mailboxes —
// at the start of slot t in ascending (source router, source port)
// order, which is precisely the phase-2 order the monolithic
// Mesh.Step pushes them in, so queue contents (and therefore FIFO
// arbitration, delivery order and every statistic) are identical to a
// single-clock run slot for slot.
package noc

import (
	"fmt"
	"runtime"
	"sync"
	"sync/atomic"

	"ioguard/internal/packet"
	"ioguard/internal/slot"
)

// satAdd adds two non-negative slot times, saturating at slot.Never.
func satAdd(a, b slot.Time) slot.Time {
	if a >= slot.Never-b {
		return slot.Never
	}
	return a + b
}

// regionStats mirrors Stats with atomic fields so a snapshot may be
// taken while the owning region steps on another goroutine. Only the
// owner writes (plain read-modify-write on its own goroutine), so
// loads need no CAS loops.
type regionStats struct {
	injected   atomic.Int64
	delivered  atomic.Int64
	dropped    atomic.Int64
	forwarded  atomic.Int64
	maxQueued  atomic.Int64
	totalDelay atomic.Int64
	maxDelay   atomic.Int64
}

// snapshot returns the counters as a Stats value.
func (s *regionStats) snapshot() Stats {
	return Stats{
		Injected:   s.injected.Load(),
		Delivered:  s.delivered.Load(),
		Dropped:    s.dropped.Load(),
		Forwarded:  s.forwarded.Load(),
		MaxQueued:  int(s.maxQueued.Load()),
		TotalDelay: slot.Time(s.totalDelay.Load()),
		MaxDelay:   slot.Time(s.maxDelay.Load()),
	}
}

// crossing is one completed hop awaiting application at its
// destination router: the flit, where it lands, and when.
type crossing struct {
	fl      *flight
	dst     int  // destination router, global index
	port    Port // output port at dst (routed toward fl's destination)
	arrival slot.Time
}

// mailbox carries crossings over one boundary, in one direction. A
// single region deposits (in its phase-2 scan order, so entries are
// (arrival, source router, source port)-sorted by construction) and a
// single region drains; `earliest` mirrors the head arrival for
// lock-free horizon queries.
type mailbox struct {
	mu       sync.Mutex
	entries  []crossing
	head     int
	earliest atomic.Int64
}

func newMailbox() *mailbox {
	b := &mailbox{}
	b.earliest.Store(int64(slot.Never))
	return b
}

// deposit appends one crossing.
func (b *mailbox) deposit(c crossing) {
	b.mu.Lock()
	b.entries = append(b.entries, c)
	if b.head == len(b.entries)-1 {
		b.earliest.Store(int64(c.arrival))
	}
	b.mu.Unlock()
}

// drain applies every crossing with arrival < now, in deposit order.
func (b *mailbox) drain(now slot.Time, apply func(crossing)) {
	b.mu.Lock()
	for b.head < len(b.entries) && b.entries[b.head].arrival < now {
		c := b.entries[b.head]
		b.entries[b.head] = crossing{}
		b.head++
		apply(c)
	}
	if b.head == len(b.entries) {
		b.entries = b.entries[:0]
		b.head = 0
		b.earliest.Store(int64(slot.Never))
	} else {
		b.earliest.Store(int64(b.entries[b.head].arrival))
	}
	b.mu.Unlock()
}

// earliestArrival returns the head crossing's arrival slot, or
// slot.Never when the mailbox is empty.
func (b *mailbox) earliestArrival() slot.Time {
	return slot.Time(b.earliest.Load())
}

// Region is one row band of the mesh, independently clocked. Use
// Regions to build a partition; drive each region per executed slot as
//
//	Apply(now) → (local injections for now) → Advance(now) →
//	Publish(now+1, nextEmit)
//
// and on a fast-forward as SkipTo(from, to) followed by
// Publish(to, nextEmit). nextEmit is the caller's bound on its own
// earliest future injection (slot.Never when it can prove none);
// it feeds the outbound horizon so neighbors may skip idle spans.
type Region struct {
	cfg         Config
	first, last int // global router index range, inclusive
	routers     []*router
	// masks holds one active-port bitmask per router (bit p set iff
	// out[p] has a current flight or a waiting packet), so stepping
	// costs O(traffic in the band) instead of O(routers×ports).
	masks   []uint8
	minLink slot.Time // lower bound on any packet's link occupancy

	inflight int        // packets owned by this band (queued or on a link)
	deferred []crossing // own-band hops of the last executed slot
	scratch  []crossing // phase-1 completion buffer, reused

	stats regionStats

	prev, next         *Region  // adjacent bands (nil at the mesh edge)
	fromPrev, fromNext *mailbox // inbound boundary traffic
	obToPrev, obToNext atomic.Int64

	// OnDeliver receives packets ejected at this band's tiles. It may
	// be nil. It is invoked from the region owner's goroutine only.
	OnDeliver func(p *packet.Packet, injected, now slot.Time)

	// Loopback declares that packets delivered at this band's tiles can
	// cause a re-emission toward the side they arrived from (the device
	// row consumes requests and its stations emit responses back). It
	// voids the XY-monotonicity assumption that only opposite-side
	// traffic feeds a boundary, so the outbound horizon must also be
	// bounded by same-side inbound traffic. Set before the first step.
	Loopback bool
}

// Regions partitions a mesh configuration into contiguous row bands:
// rows[i] is band i's height. Band i is chained to bands i-1 and i+1
// through fresh mailboxes. The bands jointly simulate exactly the mesh
// New(cfg) would, slot for slot.
func Regions(cfg Config, rows []int) ([]*Region, error) {
	cfg, err := cfg.normalized()
	if err != nil {
		return nil, err
	}
	total := 0
	for _, h := range rows {
		if h <= 0 {
			return nil, fmt.Errorf("noc: region band of %d rows", h)
		}
		total += h
	}
	if total != cfg.Height {
		return nil, fmt.Errorf("noc: region bands cover %d rows, mesh has %d", total, cfg.Height)
	}
	minFlits := packet.New(packet.Header{}, nil).Flits(cfg.FlitBytes)
	minLink := slot.Time(minFlits) + cfg.HopLatency
	var out []*Region
	rowLo := 0
	for _, h := range rows {
		r := &Region{
			cfg:     cfg,
			first:   rowLo * cfg.Width,
			last:    (rowLo+h)*cfg.Width - 1,
			minLink: minLink,
		}
		for ri := r.first; ri <= r.last; ri++ {
			rt := &router{at: coordAt(cfg, ri)}
			for p := range rt.out {
				rt.out[p] = newOutPort(cfg)
			}
			r.routers = append(r.routers, rt)
		}
		r.masks = make([]uint8, len(r.routers))
		out = append(out, r)
		rowLo += h
	}
	for i, r := range out {
		if i > 0 {
			r.prev = out[i-1]
			r.fromPrev = newMailbox()
		}
		if i < len(out)-1 {
			r.next = out[i+1]
			r.fromNext = newMailbox()
		}
	}
	return out, nil
}

// Stats returns a snapshot of this band's delivery statistics. Safe to
// call from any goroutine while the region runs.
func (r *Region) Stats() Stats { return r.stats.snapshot() }

// Owns reports whether the band contains the given tile.
func (r *Region) Owns(id packet.NodeID) bool {
	return int(id) >= r.first && int(id) <= r.last
}

// noteDepth tracks the deepest per-port backlog seen.
func (r *Region) noteDepth(op *outPort) {
	if d := int64(op.waiting.Len()); d > r.stats.maxQueued.Load() {
		r.stats.maxQueued.Store(d)
	}
}

// Inject submits a packet at its source tile (which must lie in this
// band) at time now, exactly as Mesh.Inject would.
func (r *Region) Inject(now slot.Time, pkt *packet.Packet) bool {
	if int(pkt.Dst) < 0 || int(pkt.Dst) >= r.cfg.Width*r.cfg.Height || !r.Owns(pkt.Src) {
		r.stats.dropped.Add(1)
		return false
	}
	li := int(pkt.Src) - r.first
	rt := r.routers[li]
	port := routeXY(rt.at, coordAt(r.cfg, int(pkt.Dst)))
	fl := &flight{pkt: pkt, injected: now}
	if !rt.out[port].waiting.Push(fl) {
		r.stats.dropped.Add(1)
		return false
	}
	r.noteDepth(rt.out[port])
	r.masks[li] |= 1 << port
	r.stats.injected.Add(1)
	r.inflight++
	return true
}

// applyOne pushes a completed hop into its destination port — the
// phase-2 enqueue of the monolithic Step, replayed at the receiver.
func (r *Region) applyOne(c crossing) {
	li := c.dst - r.first
	op := r.routers[li].out[c.port]
	if !op.waiting.Push(c.fl) {
		r.stats.dropped.Add(1) // bounded buffer overflow mid-route
		return
	}
	r.noteDepth(op)
	r.masks[li] |= 1 << c.port
	r.inflight++
}

// Apply begins slot now: it blocks until both neighbors' published
// horizons reach now (so every crossing of slot now-1 is deposited),
// then pushes the arrivals of slot now-1 in the monolithic phase-2
// order — upper neighbor's crossings first (smaller source routers),
// then this band's own deferred hops, then the lower neighbor's.
func (r *Region) Apply(now slot.Time) {
	for {
		if r.prev != nil && slot.Time(r.prev.obToNext.Load()) < now {
			runtime.Gosched()
			continue
		}
		if r.next != nil && slot.Time(r.next.obToPrev.Load()) < now {
			runtime.Gosched()
			continue
		}
		break
	}
	if r.fromPrev != nil {
		r.fromPrev.drain(now, r.applyOne)
	}
	for _, c := range r.deferred {
		r.applyOne(c)
	}
	r.deferred = r.deferred[:0]
	if r.fromNext != nil {
		r.fromNext.drain(now, r.applyOne)
	}
}

// Advance runs the two-phase router step over this band's routers:
// links serialize, completed hops eject locally, defer within the
// band, or cross a boundary into the neighbor's mailbox.
func (r *Region) Advance(now slot.Time) {
	hops := r.scratch[:0]
	for li, rt := range r.routers {
		m := r.masks[li]
		if m == 0 {
			continue
		}
		for p := Port(0); p < numPorts; p++ {
			if m&(1<<p) == 0 {
				continue
			}
			op := rt.out[p]
			if op.current == nil {
				fl, ok := op.waiting.Pop()
				if !ok {
					r.masks[li] &^= 1 << p
					continue
				}
				fl.left = linkSlotsFor(r.cfg, fl.pkt)
				op.current = fl
			}
			op.current.left--
			if op.current.left > 0 {
				continue
			}
			fl := op.current
			op.current = nil
			if op.waiting.Len() == 0 {
				r.masks[li] &^= 1 << p
			}
			hops = append(hops, crossing{fl: fl, dst: r.first + li, port: p, arrival: now})
		}
	}
	r.scratch = hops[:0]
	for _, h := range hops {
		r.stats.forwarded.Add(1)
		if h.port == Local {
			r.deliver(h.fl, now)
			continue
		}
		ni := neighborIdx(r.cfg, h.dst, h.port)
		np := routeXY(coordAt(r.cfg, ni), coordAt(r.cfg, int(h.fl.pkt.Dst)))
		c := crossing{fl: h.fl, dst: ni, port: np, arrival: now}
		// The flit leaves the counted state until applyOne re-admits it
		// (possibly in the neighbor band); deferred/mailbox occupancy is
		// tracked separately by NextWork and outHorizon.
		r.inflight--
		switch {
		case ni >= r.first && ni <= r.last:
			r.deferred = append(r.deferred, c)
		case ni < r.first:
			r.prev.fromNext.deposit(c)
		default:
			r.next.fromPrev.deposit(c)
		}
	}
}

func (r *Region) deliver(fl *flight, now slot.Time) {
	r.inflight--
	r.stats.delivered.Add(1)
	d := now + 1 - fl.injected
	r.stats.totalDelay.Add(int64(d))
	if int64(d) > r.stats.maxDelay.Load() {
		r.stats.maxDelay.Store(int64(d))
	}
	if r.OnDeliver != nil {
		r.OnDeliver(fl.pkt, fl.injected, now)
	}
}

// outHorizon computes the earliest slot at which a flit from this band
// could still arrive across the boundary toward prev (toPrev) or next,
// assuming the band has finished every slot < pub and will inject
// nothing before nextEmit. Every candidate is a lower bound on a real
// crossing's completion slot, so the minimum is sound; each candidate
// is also non-decreasing in pub, which keeps published horizons
// monotone.
func (r *Region) outHorizon(toPrev bool, pub, nextEmit slot.Time) slot.Time {
	h := slot.Never
	min := func(at slot.Time) {
		if at < h {
			h = at
		}
	}
	// Boundary ports: a flit already serializing crosses exactly when
	// its countdown ends; a queued one needs at least a full link time.
	lo, bp := len(r.routers)-r.cfg.Width, South
	if toPrev {
		lo, bp = 0, North
	}
	for li := lo; li < lo+r.cfg.Width; li++ {
		op := r.routers[li].out[bp]
		if op.current != nil {
			min(pub + op.current.left - 1)
		} else if op.waiting.Len() > 0 {
			min(pub + r.minLink - 1)
		}
	}
	// Anything else inside the band — inner links, inner queues, or an
	// arrival awaiting application — needs at least one boundary-link
	// serialization from now.
	if r.inflight > 0 || len(r.deferred) > 0 {
		min(pub + r.minLink - 1)
	}
	// Inbound traffic can flow through: a crossing arriving at slot a
	// is applied at a+1 and needs a link time to cross onward. XY
	// routing is monotone per dimension, so only the opposite side
	// feeds this boundary.
	if toPrev {
		if r.fromNext != nil {
			if e := r.fromNext.earliestArrival(); e < slot.Never {
				min(satAdd(e, r.minLink))
			}
		}
		if r.next != nil {
			min(satAdd(slot.Time(r.next.obToPrev.Load()), r.minLink))
		}
	} else {
		if r.fromPrev != nil {
			if e := r.fromPrev.earliestArrival(); e < slot.Never {
				min(satAdd(e, r.minLink))
			}
		}
		if r.prev != nil {
			min(satAdd(slot.Time(r.prev.obToNext.Load()), r.minLink))
		}
	}
	// A loopback band can answer inbound traffic with a re-emission
	// toward the side it came from: an arrival at slot a ejects, is
	// consumed, and its reply still needs at least a full link back —
	// a+minLink is a generous lower bound on the reply's crossing.
	if r.Loopback {
		if toPrev {
			if r.fromPrev != nil {
				if e := r.fromPrev.earliestArrival(); e < slot.Never {
					min(satAdd(e, r.minLink))
				}
			}
			if r.prev != nil {
				min(satAdd(slot.Time(r.prev.obToNext.Load()), r.minLink))
			}
		} else {
			if r.fromNext != nil {
				if e := r.fromNext.earliestArrival(); e < slot.Never {
					min(satAdd(e, r.minLink))
				}
			}
			if r.next != nil {
				min(satAdd(slot.Time(r.next.obToPrev.Load()), r.minLink))
			}
		}
	}
	// Local injections: the caller promises none before nextEmit.
	if nextEmit < slot.Never {
		min(satAdd(nextEmit, r.minLink-1))
	}
	if h < pub {
		h = pub // a crossing in the past is impossible; keep the gate live
	}
	return h
}

// Publish recomputes and publishes the outbound boundary horizons,
// with pub the first unexecuted slot (now+1 after a step, the skip
// target after a SkipTo). Call after every step or skip; neighbors
// gate and bound their fast-forward on the published values.
func (r *Region) Publish(pub, nextEmit slot.Time) {
	if r.prev != nil {
		h := r.outHorizon(true, pub, nextEmit)
		if h > slot.Time(r.obToPrev.Load()) {
			r.obToPrev.Store(int64(h))
		}
	}
	if r.next != nil {
		h := r.outHorizon(false, pub, nextEmit)
		if h > slot.Time(r.obToNext.Load()) {
			r.obToNext.Store(int64(h))
		}
	}
}

// NextWork implements the sim.Quiescer protocol against the band's
// local clock: pending arrivals pin the next slot; active links report
// their exact completion; boundary horizons bound how far the band may
// run ahead of its neighbors (wake, re-query, leapfrog).
func (r *Region) NextWork(now slot.Time) slot.Time {
	if len(r.deferred) > 0 {
		return now
	}
	next := slot.Never
	for li, rt := range r.routers {
		m := r.masks[li]
		if m == 0 {
			continue
		}
		for p := Port(0); p < numPorts; p++ {
			if m&(1<<p) == 0 {
				continue
			}
			op := rt.out[p]
			if op.current == nil {
				return now // an idle link pulls a packet this slot
			}
			if op.current.left <= 1 {
				return now // hop completes during Advance(now)
			}
			if at := now + op.current.left - 1; at < next {
				next = at
			}
		}
	}
	bound := func(at slot.Time) slot.Time {
		if at <= now {
			return now
		}
		if at < next {
			next = at
		}
		return slot.Never
	}
	if r.fromPrev != nil {
		if e := r.fromPrev.earliestArrival(); e < slot.Never {
			if bound(satAdd(e, 1)) == now {
				return now
			}
		}
	}
	if r.fromNext != nil {
		if e := r.fromNext.earliestArrival(); e < slot.Never {
			if bound(satAdd(e, 1)) == now {
				return now
			}
		}
	}
	if r.prev != nil {
		if bound(satAdd(slot.Time(r.prev.obToNext.Load()), 1)) == now {
			return now
		}
	}
	if r.next != nil {
		if bound(satAdd(slot.Time(r.next.obToPrev.Load()), 1)) == now {
			return now
		}
	}
	return next
}

// SkipTo advances every in-transit link across a fast-forwarded span
// [from, to): each current flight's remaining serialization shrinks by
// the span, exactly as to-from calls to Advance would have left it.
// The caller must Publish(to, …) afterwards so neighbors observe the jump.
func (r *Region) SkipTo(from, to slot.Time) {
	span := to - from
	for li, rt := range r.routers {
		m := r.masks[li]
		if m == 0 {
			continue
		}
		for p := Port(0); p < numPorts; p++ {
			if m&(1<<p) != 0 {
				if fl := rt.out[p].current; fl != nil {
					fl.left -= span
				}
			}
		}
	}
}
