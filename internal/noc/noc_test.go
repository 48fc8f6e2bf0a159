package noc

import (
	"testing"

	"ioguard/internal/packet"
	"ioguard/internal/slot"
)

func mkPkt(src, dst packet.NodeID, payload int) *packet.Packet {
	return packet.New(packet.Header{
		Src: src, Dst: dst, Kind: packet.Request, Op: packet.Write,
	}, make([]byte, payload))
}

func runUntilDelivered(t *testing.T, m *Mesh, want int64, limit slot.Time) slot.Time {
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

func TestNewValidation(t *testing.T) {
	if _, err := New(Config{Width: 0, Height: 5}); err == nil {
		t.Error("zero width accepted")
	}
	m, err := New(DefaultConfig())
	if err != nil {
		t.Fatal(err)
	}
	if m.Config().Width != 5 || m.Config().Height != 5 {
		t.Error("default config should be 5x5")
	}
}

func TestCoordMapping(t *testing.T) {
	m, _ := New(DefaultConfig())
	for y := 0; y < 5; y++ {
		for x := 0; x < 5; x++ {
			c := Coord{x, y}
			if got := m.CoordOf(m.NodeAt(c)); got != c {
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
	m, _ := New(DefaultConfig())
	a := m.NodeAt(Coord{0, 0})
	b := m.NodeAt(Coord{4, 4})
	if got := m.Hops(a, b); got != 8 {
		t.Errorf("Hops corner-to-corner = %d, want 8", got)
	}
	if got := m.Hops(a, a); got != 0 {
		t.Errorf("Hops self = %d, want 0", got)
	}
}

func TestSingleDelivery(t *testing.T) {
	m, _ := New(DefaultConfig())
	var got *packet.Packet
	m.OnDeliver = func(p *packet.Packet, injected, now slot.Time) { got = p }
	p := mkPkt(m.NodeAt(Coord{0, 0}), m.NodeAt(Coord{2, 1}), 4)
	if !m.Inject(0, p) {
		t.Fatal("inject failed")
	}
	runUntilDelivered(t, m, 1, 1000)
	if got != p {
		t.Error("delivered packet mismatch")
	}
	if m.Pending() != 0 {
		t.Errorf("Pending = %d after delivery", m.Pending())
	}
}

func TestSelfDelivery(t *testing.T) {
	m, _ := New(DefaultConfig())
	n := m.NodeAt(Coord{3, 3})
	m.Inject(0, mkPkt(n, n, 0))
	end := runUntilDelivered(t, m, 1, 100)
	if end > 20 {
		t.Errorf("self delivery took %d slots", end)
	}
}

func TestDeliveryLatencyMatchesMinWhenUncontended(t *testing.T) {
	m, _ := New(DefaultConfig())
	p := mkPkt(m.NodeAt(Coord{0, 0}), m.NodeAt(Coord{4, 4}), 8)
	var lat slot.Time
	m.OnDeliver = func(pk *packet.Packet, injected, now slot.Time) { lat = now + 1 - injected }
	m.Inject(0, p)
	runUntilDelivered(t, m, 1, 10000)
	if lat != m.MinLatency(p) {
		t.Errorf("uncontended latency %d ≠ MinLatency %d", lat, m.MinLatency(p))
	}
}

func TestInvalidNodesDropped(t *testing.T) {
	m, _ := New(DefaultConfig())
	if m.Inject(0, mkPkt(99, 0, 0)) {
		t.Error("invalid src accepted")
	}
	if m.Inject(0, mkPkt(0, 99, 0)) {
		t.Error("invalid dst accepted")
	}
	if m.Stats().Dropped != 2 {
		t.Errorf("Dropped = %d, want 2", m.Stats().Dropped)
	}
}

func TestBoundedQueueBackpressure(t *testing.T) {
	cfg := DefaultConfig()
	cfg.QueueDepth = 1
	m, _ := New(cfg)
	src := m.NodeAt(Coord{0, 0})
	dst := m.NodeAt(Coord{4, 0})
	if !m.Inject(0, mkPkt(src, dst, 64)) {
		t.Fatal("first inject failed")
	}
	if m.Inject(0, mkPkt(src, dst, 64)) {
		t.Error("second inject into depth-1 FIFO should fail")
	}
}

func TestContentionSerializesSharedLink(t *testing.T) {
	// Two packets from the same source to the same destination must
	// serialize on the shared outgoing link: the second is delivered
	// roughly one link-serialization later than the first.
	m, _ := New(DefaultConfig())
	src := m.NodeAt(Coord{0, 0})
	dst := m.NodeAt(Coord{3, 0})
	var deliveries []slot.Time
	m.OnDeliver = func(p *packet.Packet, injected, now slot.Time) {
		deliveries = append(deliveries, now+1)
	}
	p1 := mkPkt(src, dst, 40)
	p2 := mkPkt(src, dst, 40)
	m.Inject(0, p1)
	m.Inject(0, p2)
	runUntilDelivered(t, m, 2, 10000)
	gap := deliveries[1] - deliveries[0]
	link := slot.Time(p1.Flits(4)) + 1
	if gap != link {
		t.Errorf("delivery gap %d, want one link time %d", gap, link)
	}
}

func TestManyPacketsAllDelivered(t *testing.T) {
	m, _ := New(DefaultConfig())
	count := 0
	m.OnDeliver = func(p *packet.Packet, injected, now slot.Time) { count++ }
	injected := int64(0)
	for i := 0; i < 25; i++ {
		for j := 0; j < 25; j++ {
			if i == j {
				continue
			}
			if m.Inject(0, mkPkt(packet.NodeID(i), packet.NodeID(j), 16)) {
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
	m, _ := New(DefaultConfig())
	probe := mkPkt(m.NodeAt(Coord{0, 2}), m.NodeAt(Coord{4, 2}), 32)
	var probeLat slot.Time
	m.OnDeliver = func(p *packet.Packet, injected, now slot.Time) {
		if p == probe {
			probeLat = now + 1 - injected
		}
	}
	// Background: flood the row 2 links.
	for i := 0; i < 10; i++ {
		m.Inject(0, mkPkt(m.NodeAt(Coord{0, 2}), m.NodeAt(Coord{4, 2}), 64))
	}
	m.Inject(0, probe)
	for now := slot.Time(0); probeLat == 0 && now < 100000; now++ {
		m.Step(now)
	}
	if probeLat <= m.MinLatency(probe) {
		t.Errorf("contended latency %d should exceed MinLatency %d", probeLat, m.MinLatency(probe))
	}
}

// TestMeshHopAllocs pins the hop path as allocation-free: once the
// ports on a route have buffered a packet, forwarding a caller-built
// packet corner to corner (8 hops plus the ejection) allocates
// nothing inside the mesh.
func TestMeshHopAllocs(t *testing.T) {
	m, err := New(DefaultConfig())
	if err != nil {
		t.Fatal(err)
	}
	pkt := mkPkt(m.NodeAt(Coord{0, 0}), m.NodeAt(Coord{4, 4}), 32)
	if hops := m.Hops(pkt.Src, pkt.Dst); hops != 8 {
		t.Fatalf("route has %d hops, want 8", hops)
	}
	delivered := false
	m.OnDeliver = func(*packet.Packet, slot.Time, slot.Time) { delivered = true }
	var now slot.Time
	allocs := testing.AllocsPerRun(20, func() {
		delivered = false
		m.Inject(now, pkt)
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
