package noc

import (
	"testing"

	"ioguard/internal/packet"
	"ioguard/internal/slot"
)

func mkDeadlinePkt(src, dst packet.NodeID, payload int, deadline slot.Time) *packet.Packet {
	return packet.New(packet.Header{
		Src: src, Dst: dst, Kind: packet.Request, Op: packet.Write, Deadline: deadline,
	}, make([]byte, payload))
}

// TestFIFOArbitrationIgnoresDeadlines: with a congested output port,
// the FIFO router forwards in injection order, so an urgent packet
// injected last is delivered last — the router behaviour that makes
// BS|Legacy unpredictable.
func TestFIFOArbitrationIgnoresDeadlines(t *testing.T) {
	m := newPktMesh()
	src := NodeAt(Coord{0, 0})
	dst := NodeAt(Coord{4, 0})
	var deliveries []slot.Time // deadlines in delivery order
	m.OnDeliver = func(p *packet.Packet, injected, now slot.Time) {
		deliveries = append(deliveries, p.Deadline)
	}
	// Three loose-deadline packets first, one urgent last.
	for i := 0; i < 3; i++ {
		inject(m, 0, mkDeadlinePkt(src, dst, 64, 100_000))
	}
	inject(m, 0, mkDeadlinePkt(src, dst, 64, 10))
	runUntilDelivered(t, m, 4, 2000)
	if deliveries[3] != 10 {
		t.Errorf("FIFO should deliver the urgent packet last: %v", deliveries)
	}
}

func TestStatsForwardedAndDepth(t *testing.T) {
	m := newPktMesh()
	src := NodeAt(Coord{0, 0})
	dst := NodeAt(Coord{2, 0})
	for i := 0; i < 3; i++ {
		inject(m, 0, mkDeadlinePkt(src, dst, 16, 1000))
	}
	for now := slot.Time(0); now < 1000 && m.Stats().Delivered < 3; now++ {
		m.Step(now)
	}
	st := m.Stats()
	// Each packet crosses 2 hops + local ejection = 3 forwards.
	if st.Forwarded != 9 {
		t.Errorf("Forwarded = %d, want 9", st.Forwarded)
	}
	if st.MaxQueued < 2 {
		t.Errorf("MaxQueued = %d, want ≥ 2 (three packets share one port)", st.MaxQueued)
	}
}
