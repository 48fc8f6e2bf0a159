package noc

import (
	"testing"

	"ioguard/internal/packet"
	"ioguard/internal/slot"
)

// The tests send packets through the mesh as its items: a packet's
// header names both tiles and its encoded size sets the flit count.
type pktMesh = Mesh[*packet.Packet]

func newPktMesh() *pktMesh { return New[*packet.Packet]() }

// inject sends p from its source to its destination tile.
func inject(m *pktMesh, now slot.Time, p *packet.Packet) bool {
	return m.Inject(now, p.Src, p.Dst, p.Size(), p)
}

// minLatency is p's zero-contention delivery latency.
func minLatency(p *packet.Packet) slot.Time { return MinLatency(p.Src, p.Dst, p.Size()) }

// pending counts the packets inside m, queued or on a link.
func pending(m *pktMesh) int {
	n := 0
	m.Each(func(*packet.Packet) { n++ })
	return n
}

func mkPkt(src, dst packet.NodeID, payload int) *packet.Packet {
	return packet.New(packet.Header{
		Src: src, Dst: dst, Kind: packet.Request, Op: packet.Write,
	}, make([]byte, payload))
}

func runUntilDelivered(t *testing.T, m *pktMesh, want int64, limit slot.Time) slot.Time {
	t.Helper()
	for now := slot.Time(0); now < limit; now++ {
		m.Step(now)
		if m.Stats().Delivered >= want {
			return now + 1
		}
	}
	t.Fatalf("only %d/%d packets delivered within %d slots", m.Stats().Delivered, want, limit)
	return 0
}

// TestNewValidation: a new mesh is empty and idle, and its last tile,
// the bottom-right corner of the 5×5 grid, is on the mesh.
func TestNewValidation(t *testing.T) {
	m := newPktMesh()
	if got := m.NextWork(0); got != slot.Never {
		t.Errorf("new mesh: NextWork = %d, want Never", got)
	}
	if n := pending(m); n != 0 {
		t.Errorf("new mesh holds %d packets", n)
	}
	if m.Stats() != (Stats{}) {
		t.Errorf("new mesh stats %+v, want zero", m.Stats())
	}
	corner := NodeAt(Coord{Width - 1, Height - 1})
	if corner != 24 || !inject(m, 0, mkPkt(0, corner, 0)) {
		t.Errorf("corner tile %d rejected; the mesh should be 5x5", corner)
	}
}

func TestCoordMapping(t *testing.T) {
	for y := 0; y < Height; y++ {
		for x := 0; x < Width; x++ {
			c := Coord{x, y}
			if got := CoordOf(NodeAt(c)); got != c {
				t.Fatalf("round trip %v → %v", c, got)
			}
		}
	}
	if (Coord{2, 3}).String() != "(2,3)" {
		t.Error("Coord.String wrong")
	}
}

func TestPortString(t *testing.T) {
	names := map[Port]string{Local: "local", North: "north", South: "south", East: "east", West: "west"}
	for p, want := range names {
		if p.String() != want {
			t.Errorf("%d.String() = %q, want %q", p, p.String(), want)
		}
	}
}

func TestHops(t *testing.T) {
	a := NodeAt(Coord{0, 0})
	b := NodeAt(Coord{4, 4})
	if got := Hops(a, b); got != 8 {
		t.Errorf("Hops corner-to-corner = %d, want 8", got)
	}
	if got := Hops(a, a); got != 0 {
		t.Errorf("Hops self = %d, want 0", got)
	}
}

func TestSingleDelivery(t *testing.T) {
	m := newPktMesh()
	var got *packet.Packet
	m.OnDeliver = func(p *packet.Packet, injected, now slot.Time) { got = p }
	p := mkPkt(NodeAt(Coord{0, 0}), NodeAt(Coord{2, 1}), 4)
	if !inject(m, 0, p) {
		t.Fatal("inject failed")
	}
	runUntilDelivered(t, m, 1, 1000)
	if got != p {
		t.Error("delivered packet mismatch")
	}
	if n := pending(m); n != 0 {
		t.Errorf("%d packets pending after delivery", n)
	}
}

func TestSelfDelivery(t *testing.T) {
	m := newPktMesh()
	n := NodeAt(Coord{3, 3})
	inject(m, 0, mkPkt(n, n, 0))
	end := runUntilDelivered(t, m, 1, 100)
	if end > 20 {
		t.Errorf("self delivery took %d slots", end)
	}
}

func TestDeliveryLatencyMatchesMinWhenUncontended(t *testing.T) {
	m := newPktMesh()
	p := mkPkt(NodeAt(Coord{0, 0}), NodeAt(Coord{4, 4}), 8)
	var lat slot.Time
	m.OnDeliver = func(pk *packet.Packet, injected, now slot.Time) { lat = now + 1 - injected }
	inject(m, 0, p)
	runUntilDelivered(t, m, 1, 10000)
	if lat != minLatency(p) {
		t.Errorf("uncontended latency %d ≠ MinLatency %d", lat, minLatency(p))
	}
}

func TestInvalidNodesDropped(t *testing.T) {
	m := newPktMesh()
	if inject(m, 0, mkPkt(99, 0, 0)) {
		t.Error("invalid src accepted")
	}
	if inject(m, 0, mkPkt(0, 99, 0)) {
		t.Error("invalid dst accepted")
	}
	if m.Stats().Dropped != 2 {
		t.Errorf("Dropped = %d, want 2", m.Stats().Dropped)
	}
}

func TestContentionSerializesSharedLink(t *testing.T) {
	// Two packets from the same source to the same destination must
	// serialize on the shared outgoing link: the second is delivered
	// roughly one link-serialization later than the first.
	m := newPktMesh()
	src := NodeAt(Coord{0, 0})
	dst := NodeAt(Coord{3, 0})
	var deliveries []slot.Time
	m.OnDeliver = func(p *packet.Packet, injected, now slot.Time) {
		deliveries = append(deliveries, now+1)
	}
	p1 := mkPkt(src, dst, 40)
	p2 := mkPkt(src, dst, 40)
	inject(m, 0, p1)
	inject(m, 0, p2)
	runUntilDelivered(t, m, 2, 10000)
	gap := deliveries[1] - deliveries[0]
	link := slot.Time(p1.Flits(flitBytes)) + hopLatency
	if gap != link {
		t.Errorf("delivery gap %d, want one link time %d", gap, link)
	}
}

func TestManyPacketsAllDelivered(t *testing.T) {
	m := newPktMesh()
	count := 0
	m.OnDeliver = func(p *packet.Packet, injected, now slot.Time) { count++ }
	injected := int64(0)
	for i := 0; i < 25; i++ {
		for j := 0; j < 25; j++ {
			if i == j {
				continue
			}
			if inject(m, 0, mkPkt(packet.NodeID(i), packet.NodeID(j), 16)) {
				injected++
			}
		}
	}
	runUntilDelivered(t, m, injected, 200000)
	if int64(count) != injected {
		t.Errorf("delivered %d, want %d", count, injected)
	}
	st := m.Stats()
	if st.AvgDelay() <= 0 || st.MaxDelay < slot.Time(st.AvgDelay()) {
		t.Errorf("stats inconsistent: %+v", st)
	}
}

func TestStatsAvgDelayEmpty(t *testing.T) {
	if (Stats{}).AvgDelay() != 0 {
		t.Error("AvgDelay on empty stats should be 0")
	}
}

func TestContentionIncreasesLatency(t *testing.T) {
	// With background traffic crossing the same column, a packet's
	// latency must be at least its uncontended latency.
	m := newPktMesh()
	probe := mkPkt(NodeAt(Coord{0, 2}), NodeAt(Coord{4, 2}), 32)
	var probeLat slot.Time
	m.OnDeliver = func(p *packet.Packet, injected, now slot.Time) {
		if p == probe {
			probeLat = now + 1 - injected
		}
	}
	// Background: flood the row 2 links.
	for i := 0; i < 10; i++ {
		inject(m, 0, mkPkt(NodeAt(Coord{0, 2}), NodeAt(Coord{4, 2}), 64))
	}
	inject(m, 0, probe)
	for now := slot.Time(0); probeLat == 0 && now < 100000; now++ {
		m.Step(now)
	}
	if probeLat <= minLatency(probe) {
		t.Errorf("contended latency %d should exceed MinLatency %d", probeLat, minLatency(probe))
	}
}

// TestMeshHopAllocs pins the hop path as allocation-free: once the
// ports on a route have buffered a packet, forwarding a caller-built
// packet corner to corner (8 hops plus the ejection) allocates
// nothing inside the mesh.
func TestMeshHopAllocs(t *testing.T) {
	m := newPktMesh()
	pkt := mkPkt(NodeAt(Coord{0, 0}), NodeAt(Coord{4, 4}), 32)
	if hops := Hops(pkt.Src, pkt.Dst); hops != 8 {
		t.Fatalf("route has %d hops, want 8", hops)
	}
	delivered := false
	m.OnDeliver = func(*packet.Packet, slot.Time, slot.Time) { delivered = true }
	var now slot.Time
	allocs := testing.AllocsPerRun(20, func() {
		delivered = false
		inject(m, now, pkt)
		for !delivered {
			now = m.NextWork(now)
			m.Step(now)
			now++
		}
	})
	if allocs != 0 {
		t.Errorf("forwarding across 8 hops allocated %.1f times, want 0", allocs)
	}
}
