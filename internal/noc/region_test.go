package noc

import (
	"math/rand"
	"sort"
	"testing"

	"ioguard/internal/packet"
	"ioguard/internal/sim"
	"ioguard/internal/slot"
)

// regDelivery is one observed ejection, for trace comparison.
type regDelivery struct {
	at   slot.Time
	task uint16
	seq  uint32
	dst  packet.NodeID
}

// injection schedules one packet's entry into the NoC.
type regInjection struct {
	at  slot.Time
	pkt *packet.Packet
}

// genTraffic builds random bidirectional traffic between the
// processor rows (tiles 0..19) and the device row (tiles 20..24) of
// the default 5×5 mesh, plus some intra-band packets, sorted by slot.
func genTraffic(rng *rand.Rand, n int, lastAt slot.Time) []regInjection {
	cfg := DefaultConfig()
	devRow := cfg.Width * (cfg.Height - 1)
	var out []regInjection
	for i := 0; i < n; i++ {
		var src, dst int
		switch rng.Intn(4) {
		case 0: // request: processor → device
			src = rng.Intn(devRow)
			dst = devRow + rng.Intn(cfg.Width)
		case 1: // response: device → processor
			src = devRow + rng.Intn(cfg.Width)
			dst = rng.Intn(devRow)
		case 2: // intra processor band
			src = rng.Intn(devRow)
			dst = rng.Intn(devRow)
		default: // intra device row
			src = devRow + rng.Intn(cfg.Width)
			dst = devRow + rng.Intn(cfg.Width)
		}
		pkt := packet.New(packet.Header{
			Src:  packet.NodeID(src),
			Dst:  packet.NodeID(dst),
			Kind: packet.Request,
			Op:   packet.Write,
			Task: uint16(i),
			Seq:  uint32(i),
		}, make([]byte, rng.Intn(64)))
		out = append(out, regInjection{at: slot.Time(rng.Int63n(int64(lastAt))), pkt: pkt})
	}
	sort.SliceStable(out, func(i, j int) bool { return out[i].at < out[j].at })
	return out
}

// runMonolithic drives the reference Mesh densely and returns its
// delivery trace and statistics.
func runMonolithic(t *testing.T, injs []regInjection, horizon slot.Time) ([]regDelivery, Stats) {
	t.Helper()
	m, err := New(DefaultConfig())
	if err != nil {
		t.Fatal(err)
	}
	var got []regDelivery
	m.OnDeliver = func(p *packet.Packet, injected, now slot.Time) {
		got = append(got, regDelivery{at: now, task: p.Task, seq: p.Seq, dst: p.Dst})
	}
	i := 0
	for now := slot.Time(0); now < horizon; now++ {
		for i < len(injs) && injs[i].at == now {
			m.Inject(now, injs[i].pkt)
			i++
		}
		m.Step(now)
	}
	if n := m.Pending(); n != 0 {
		t.Fatalf("monolithic mesh still has %d packets in flight at the horizon", n)
	}
	return got, m.Stats()
}

// regionShard adapts one Region plus its injection script to the
// sim.Clocked protocol, the way a transport shard drives it.
type regionShard struct {
	t    *testing.T
	r    *Region
	injs []regInjection
	next int
	got  []regDelivery
}

func (s *regionShard) nextEmit() slot.Time {
	if s.next < len(s.injs) {
		return s.injs[s.next].at
	}
	return slot.Never
}

func (s *regionShard) Step(now slot.Time) {
	s.r.Apply(now)
	// The boundary-horizon invariant: once slot now is gated open,
	// nothing older than now-1 can still be undelivered, and Apply has
	// consumed everything below now.
	for _, b := range []*mailbox{s.r.fromPrev, s.r.fromNext} {
		if b == nil {
			continue
		}
		if e := b.earliestArrival(); e < now {
			s.t.Errorf("mailbox holds arrival %d while stepping %d", e, now)
		}
	}
	for s.next < len(s.injs) && s.injs[s.next].at == now {
		s.r.Inject(now, s.injs[s.next].pkt)
		s.next++
	}
	s.r.Advance(now)
	s.r.Publish(now+1, s.nextEmit())
}

func (s *regionShard) NextWork(now slot.Time) slot.Time {
	next := s.r.NextWork(now)
	if s.next < len(s.injs) {
		if at := s.injs[s.next].at; at <= now {
			return now
		} else if at < next {
			next = at
		}
	}
	return next
}

func (s *regionShard) SkipTo(from, to slot.Time) {
	s.r.SkipTo(from, to)
	s.r.Publish(to, s.nextEmit())
}

// buildRegionShards partitions the default mesh into processor rows
// vs device row and splits the injections by source band.
func buildRegionShards(t *testing.T, injs []regInjection) []*regionShard {
	t.Helper()
	cfg := DefaultConfig()
	regions, err := Regions(cfg, []int{cfg.Height - 1, 1})
	if err != nil {
		t.Fatal(err)
	}
	shards := make([]*regionShard, len(regions))
	for i, r := range regions {
		r := r
		sh := &regionShard{t: t, r: r}
		r.OnDeliver = func(p *packet.Packet, injected, now slot.Time) {
			sh.got = append(sh.got, regDelivery{at: now, task: p.Task, seq: p.Seq, dst: p.Dst})
		}
		for _, in := range injs {
			if r.Owns(in.pkt.Src) {
				sh.injs = append(sh.injs, in)
			}
		}
		shards[i] = sh
	}
	return shards
}

// mergedTrace interleaves per-shard delivery traces in (slot, shard)
// order — the monolithic phase-2 order, since band 0 holds the lower
// router indices.
func mergedTrace(shards []*regionShard) []regDelivery {
	heads := make([]int, len(shards))
	var out []regDelivery
	for {
		best := -1
		for i, sh := range shards {
			if heads[i] >= len(sh.got) {
				continue
			}
			if best < 0 || sh.got[heads[i]].at < shards[best].got[heads[best]].at {
				best = i
			}
		}
		if best < 0 {
			return out
		}
		out = append(out, shards[best].got[heads[best]])
		heads[best]++
	}
}

func mergedStats(shards []*regionShard) Stats {
	var s Stats
	for _, sh := range shards {
		s = s.Merge(sh.r.Stats())
	}
	return s
}

func compareTraces(t *testing.T, want, got []regDelivery) {
	t.Helper()
	if len(want) != len(got) {
		t.Fatalf("delivered %d packets, monolithic delivered %d", len(got), len(want))
	}
	for i := range want {
		if want[i] != got[i] {
			t.Fatalf("delivery %d: got %+v, want %+v", i, got[i], want[i])
		}
	}
}

// TestRegionEquivalenceSequential checks that the two-band partition
// driven by the sequential laggard-first scheduler reproduces the
// monolithic mesh's delivery trace and statistics exactly.
func TestRegionEquivalenceSequential(t *testing.T) {
	rng := rand.New(rand.NewSource(7))
	for trial := 0; trial < 20; trial++ {
		injs := genTraffic(rng, 60, 1500)
		horizon := slot.Time(2500)
		want, wantStats := runMonolithic(t, injs, horizon)
		shards := buildRegionShards(t, injs)
		set := sim.NewShardSet()
		for _, sh := range shards {
			set.Add(sh)
		}
		set.Run(horizon, nil, nil)
		compareTraces(t, want, mergedTrace(shards))
		if got := mergedStats(shards); got != wantStats {
			t.Fatalf("trial %d: region stats %+v ≠ monolithic %+v", trial, got, wantStats)
		}
	}
}

// TestRegionEquivalenceParallel drives the partition in successive
// ShardSet.Run windows — the sharded executor's epochs, which the
// former parallel runner's barriers also were — across a sweep of
// spans, including bounds that land exactly on a boundary flit's
// crossing slot, and demands the same trace for every span.
func TestRegionEquivalenceParallel(t *testing.T) {
	rng := rand.New(rand.NewSource(11))
	injs := genTraffic(rng, 40, 600)
	horizon := slot.Time(1400)
	want, wantStats := runMonolithic(t, injs, horizon)
	for _, span := range []slot.Time{1, 7, 64, 1400} {
		shards := buildRegionShards(t, injs)
		set := sim.NewShardSet()
		for _, sh := range shards {
			set.Add(sh)
		}
		for start := slot.Time(0); start < horizon; start += span {
			end := start + span
			if end > horizon {
				end = horizon
			}
			set.Run(end, nil, nil)
		}
		compareTraces(t, want, mergedTrace(shards))
		if got := mergedStats(shards); got != wantStats {
			t.Fatalf("span %d: region stats %+v ≠ monolithic %+v", span, got, wantStats)
		}
	}
}

// TestRegionBoundaryAtEpochBound pins the exact edge case: a single
// request whose boundary crossing completes precisely at an epoch
// bound must be applied in the first slot of the next epoch, for every
// possible bound placement.
func TestRegionBoundaryAtEpochBound(t *testing.T) {
	pkt := packet.New(packet.Header{
		Src: 2, Dst: 22, Kind: packet.Request, Op: packet.Write, Task: 1, Seq: 1,
	}, make([]byte, 8))
	injs := []regInjection{{at: 0, pkt: pkt}}
	horizon := slot.Time(64)
	want, _ := runMonolithic(t, injs, horizon)
	if len(want) != 1 {
		t.Fatalf("monolithic delivered %d packets, want 1", len(want))
	}
	for bound := slot.Time(1); bound < horizon; bound++ {
		shards := buildRegionShards(t, injs)
		set := sim.NewShardSet()
		for _, sh := range shards {
			set.Add(sh)
		}
		set.Run(bound, nil, nil)
		set.Run(horizon, nil, nil)
		compareTraces(t, want, mergedTrace(shards))
	}
}

// TestRegionIdleBandSkips asserts the fast-forward win the partition
// exists for: traffic confined to the processor band for a short
// prefix lets both bands — the loaded one after it drains, the empty
// device row throughout — skip nearly the whole horizon instead of
// stepping it densely.
func TestRegionIdleBandSkips(t *testing.T) {
	rng := rand.New(rand.NewSource(3))
	var injs []regInjection
	for i := 0; i < 10; i++ {
		pkt := packet.New(packet.Header{
			Src:  packet.NodeID(rng.Intn(20)),
			Dst:  packet.NodeID(rng.Intn(20)),
			Kind: packet.Request, Op: packet.Write,
			Task: uint16(i), Seq: uint32(i),
		}, make([]byte, 16))
		injs = append(injs, regInjection{at: slot.Time(rng.Int63n(100)), pkt: pkt})
	}
	sort.SliceStable(injs, func(i, j int) bool { return injs[i].at < injs[j].at })
	horizon := slot.Time(100_000)
	want, _ := runMonolithic(t, injs, horizon)
	shards := buildRegionShards(t, injs)
	set := sim.NewShardSet()
	for _, sh := range shards {
		set.Add(sh)
	}
	set.Run(horizon, nil, nil)
	compareTraces(t, want, mergedTrace(shards))
	for i := range shards {
		st := set.Stats(i)
		if st.Stepped > 400 {
			t.Errorf("band %d stepped %d slots of %d; the idle span should be skipped", i, st.Stepped, horizon)
		}
		if st.Stepped+int64(st.Skipped) != int64(horizon) {
			t.Errorf("band %d covered %d slots, want %d", i, st.Stepped+int64(st.Skipped), horizon)
		}
	}
}

// TestRegionStaleNextWork exercises the conservative-staleness
// contract: a NextWork answer taken before a neighbor deposits a
// crossing may be early but never late, and successive published
// horizons never decrease.
func TestRegionStaleNextWork(t *testing.T) {
	pkt := packet.New(packet.Header{
		Src: 7, Dst: 21, Kind: packet.Request, Op: packet.Write, Task: 9, Seq: 9,
	}, make([]byte, 4))
	shards := buildRegionShards(t, []regInjection{{at: 0, pkt: pkt}})
	p, d := shards[0], shards[1]
	// Before the processor band runs, the device row's view is stale:
	// it may only plan a bounded hop, never a jump past the horizon.
	stale := d.NextWork(0)
	if stale == slot.Never {
		t.Fatalf("device row planned an unbounded skip with a pending cross-boundary packet")
	}
	// The device row is empty and injects nothing: publish its (vacuous)
	// horizon up front so the processor band's gate stays open — the
	// role the sequential scheduler's laggard-first order plays.
	d.r.Publish(64, slot.Never)
	var lastOb slot.Time
	deposited := slot.Never
	for now := slot.Time(0); now < 64; now++ {
		p.Step(now)
		if ob := slot.Time(p.r.obToNext.Load()); ob < lastOb {
			t.Fatalf("published horizon regressed: %d after %d", ob, lastOb)
		} else {
			lastOb = ob
		}
		if deposited == slot.Never && d.r.fromPrev.earliestArrival() < slot.Never {
			deposited = d.r.fromPrev.earliestArrival()
		}
	}
	if deposited == slot.Never {
		t.Fatal("request never crossed into the device row")
	}
	// The stale answer must not overshoot the slot at which the
	// crossing needs applying.
	if apply := deposited + 1; stale > apply {
		t.Fatalf("stale NextWork %d overshoots the crossing's apply slot %d", stale, apply)
	}
	// Re-queried after the deposit, the device row wakes in time.
	if nw := d.NextWork(0); nw > deposited+1 {
		t.Fatalf("NextWork after deposit = %d, want ≤ %d", nw, deposited+1)
	}
	// Driving the device row past the apply slot plus one local-link
	// serialization delivers the packet.
	for now := slot.Time(0); now <= deposited+1+d.r.minLink; now++ {
		d.Step(now)
	}
	if len(d.got) != 1 || d.got[0].dst != 21 {
		t.Fatalf("device row delivered %+v, want the crossed request at tile 21", d.got)
	}
}
