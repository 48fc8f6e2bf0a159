package noc

import (
	"math/rand"
	"sort"
	"testing"

	"ioguard/internal/packet"
	"ioguard/internal/slot"
)

// delivery is one observed ejection, for trace comparison.
type delivery struct {
	pkt           *packet.Packet
	injected, now slot.Time
}

// injection schedules one packet's entry into the NoC.
type injection struct {
	at  slot.Time
	pkt *packet.Packet
}

// genTraffic builds n random packets over the whole default mesh,
// sorted by injection slot. A quarter go to one hot tile (shared-link
// contention), some are self-deliveries, and the rest travel between
// random tiles, so every port direction carries traffic.
func genTraffic(rng *rand.Rand, n int, lastAt slot.Time) []injection {
	cfg := DefaultConfig()
	tiles := cfg.Width * cfg.Height
	hot := rng.Intn(tiles)
	var out []injection
	for i := 0; i < n; i++ {
		src, dst := rng.Intn(tiles), rng.Intn(tiles)
		switch rng.Intn(8) {
		case 0, 1:
			dst = hot
		case 2:
			dst = src
		}
		pkt := packet.New(packet.Header{
			Src:  packet.NodeID(src),
			Dst:  packet.NodeID(dst),
			Kind: packet.Request,
			Op:   packet.Write,
			Task: uint16(i),
			Seq:  uint32(i),
		}, make([]byte, rng.Intn(64)))
		out = append(out, injection{at: slot.Time(rng.Int63n(int64(lastAt))), pkt: pkt})
	}
	sort.SliceStable(out, func(i, j int) bool { return out[i].at < out[j].at })
	return out
}

// runMesh drives a fresh default mesh over [0, horizon) with the
// injection script. skip fast-forwards with NextWork/SkipTo between
// injections; otherwise every slot is stepped. It returns the delivery
// trace, the statistics and the number of executed steps.
func runMesh(t *testing.T, injs []injection, horizon slot.Time, skip bool) ([]delivery, Stats, int) {
	t.Helper()
	m, err := New(DefaultConfig())
	if err != nil {
		t.Fatal(err)
	}
	var got []delivery
	m.OnDeliver = func(p *packet.Packet, injected, now slot.Time) {
		got = append(got, delivery{p, injected, now})
	}
	i, steps := 0, 0
	for now := slot.Time(0); now < horizon; {
		for i < len(injs) && injs[i].at == now {
			m.Inject(now, injs[i].pkt)
			i++
		}
		m.Step(now)
		steps++
		now++
		if !skip {
			continue
		}
		next := min(m.NextWork(now), horizon)
		if i < len(injs) {
			next = min(next, injs[i].at)
		}
		if next > now {
			m.SkipTo(now, next)
			now = next
		}
	}
	if n := m.Pending(); n != 0 {
		t.Fatalf("%d packets still in flight at the horizon", n)
	}
	return got, m.Stats(), steps
}

// TestMeshSkipMatchesStep pins the mesh's fast-forward to per-slot
// stepping: for seeded random traffic, a mesh that jumps with
// NextWork/SkipTo must deliver every packet at the same slot, in the
// same order, with the same statistics as one stepped every slot. It
// also pins NextWork's two ends on a lone packet.
func TestMeshSkipMatchesStep(t *testing.T) {
	requireExactNextWork(t)
	const horizon = 4000
	for seed := int64(1); seed <= 12; seed++ {
		rng := rand.New(rand.NewSource(seed))
		injs := genTraffic(rng, 20+rng.Intn(200), horizon/2)
		dense, denseStats, denseSteps := runMesh(t, injs, horizon, false)
		skip, skipStats, skipSteps := runMesh(t, injs, horizon, true)
		if len(dense) != len(injs) {
			t.Fatalf("seed %d: %d of %d packets delivered", seed, len(dense), len(injs))
		}
		if len(skip) != len(dense) {
			t.Fatalf("seed %d: deliveries dense=%d skip=%d", seed, len(dense), len(skip))
		}
		for k := range dense {
			if dense[k] != skip[k] {
				t.Fatalf("seed %d: delivery %d: dense %+v skip %+v", seed, k, dense[k], skip[k])
			}
		}
		if denseStats != skipStats {
			t.Fatalf("seed %d: stats dense %+v skip %+v", seed, denseStats, skipStats)
		}
		if skipSteps >= denseSteps/2 {
			t.Errorf("seed %d: skipping executed %d of %d slots", seed, skipSteps, denseSteps)
		}
	}
}

// requireExactNextWork checks that an empty mesh never needs a step
// and that a lone packet's next work is exactly the slot its current
// hop completes.
func requireExactNextWork(t *testing.T) {
	t.Helper()
	m, err := New(DefaultConfig())
	if err != nil {
		t.Fatal(err)
	}
	if got := m.NextWork(7); got != slot.Never {
		t.Fatalf("empty mesh: NextWork = %d, want Never", got)
	}
	pkt := mkPkt(m.NodeAt(Coord{0, 0}), m.NodeAt(Coord{3, 2}), 32)
	link := m.linkSlots(pkt)
	var delivered slot.Time = -1
	m.OnDeliver = func(_ *packet.Packet, _, now slot.Time) { delivered = now }
	m.Inject(0, pkt)
	if got := m.NextWork(0); got != 0 {
		t.Fatalf("queued packet: NextWork(0) = %d, want 0 (the link pulls it)", got)
	}
	// Each hop is pulled at slot s and completes at s+link-1; the next
	// router pulls it one slot later.
	for hop, at := 0, slot.Time(0); hop <= m.Hops(pkt.Src, pkt.Dst); hop++ {
		m.Step(at)
		if got, want := m.NextWork(at+1), at+link-1; got != want {
			t.Fatalf("hop %d: NextWork(%d) = %d, want %d", hop, at+1, got, want)
		}
		m.SkipTo(at+1, at+link-1)
		m.Step(at + link - 1)
		at += link
	}
	if want := m.MinLatency(pkt) - 1; delivered != want {
		t.Fatalf("delivered at %d, want %d", delivered, want)
	}
	if got := m.NextWork(m.MinLatency(pkt)); got != slot.Never {
		t.Fatalf("drained mesh: NextWork = %d, want Never", got)
	}
}
