// Package noc simulates the predictability-focused mesh
// Network-on-Chip of the evaluation platform (a 5×5 mesh in Sec. V,
// following BlueShell [8]): XY dimension-ordered routing,
// store-and-forward switching, and FIFO arbitration at every router
// output port.
//
// The NoC is what makes the baselines unpredictable: in BS|Legacy
// "the scheduling related to resource management [is left] to the
// routers", i.e. to these FIFO arbiters, so I/O packets suffer
// contention at every hop. I/O-GUARD routes I/O requests to the
// hypervisor over dedicated point-to-point links instead (Sec. II-A),
// bypassing the routers entirely.
package noc

import (
	"fmt"

	"ioguard/internal/packet"
	"ioguard/internal/queue"
	"ioguard/internal/slot"
)

// Coord addresses a mesh tile.
type Coord struct{ X, Y int }

// String renders the coordinate as (x,y).
func (c Coord) String() string { return fmt.Sprintf("(%d,%d)", c.X, c.Y) }

// Port is a router output direction.
type Port uint8

// Router ports.
const (
	Local Port = iota // deliver to the attached tile
	North
	South
	East
	West
	numPorts
)

// String returns the port name.
func (p Port) String() string {
	switch p {
	case Local:
		return "local"
	case North:
		return "north"
	case South:
		return "south"
	case East:
		return "east"
	case West:
		return "west"
	default:
		return fmt.Sprintf("port(%d)", uint8(p))
	}
}

// flight is a packet in transit through one router output port.
type flight struct {
	pkt      *packet.Packet
	injected slot.Time // when the packet entered the NoC
}

// outPort is one router output: a FIFO arbiter plus the link
// currently serializing a packet (current.pkt is nil while the link
// is idle).
type outPort struct {
	waiting *queue.FIFO[flight]
	current flight
	done    slot.Time // slot in which the current hop completes
}

// Config parameterizes the mesh.
type Config struct {
	Width, Height int
	FlitBytes     int       // link width; default 4
	HopLatency    slot.Time // router pipeline latency per hop; default 1
	QueueDepth    int       // per-port buffer depth; 0 = unbounded
}

// DefaultConfig returns the 5×5 mesh of the evaluation platform.
func DefaultConfig() Config {
	return Config{Width: 5, Height: 5, FlitBytes: 4, HopLatency: 1, QueueDepth: 0}
}

// normalized applies the documented defaults to the zero-value fields.
func (c Config) normalized() (Config, error) {
	if c.Width <= 0 || c.Height <= 0 {
		return c, fmt.Errorf("noc: invalid mesh %dx%d", c.Width, c.Height)
	}
	if c.FlitBytes <= 0 {
		c.FlitBytes = 4
	}
	if c.HopLatency <= 0 {
		c.HopLatency = 1
	}
	return c, nil
}

// Stats aggregates delivery statistics.
type Stats struct {
	Injected   int64
	Delivered  int64
	Dropped    int64 // rejected at injection (full input queue)
	Forwarded  int64 // hop completions (including the final ejection)
	MaxQueued  int   // deepest per-port backlog observed
	TotalDelay slot.Time
	MaxDelay   slot.Time
}

// AvgDelay returns the mean injection-to-delivery latency in slots.
func (s Stats) AvgDelay() float64 {
	if s.Delivered == 0 {
		return 0
	}
	return float64(s.TotalDelay) / float64(s.Delivered)
}

// Mesh is the simulated NoC. It is event-driven: each link holds the
// absolute slot its current hop completes in, so Step touches only
// the links it pulls for or whose hop is due, and NextWork reads the
// next such slot in O(1). Delivered packets are handed to the
// OnDeliver callback.
type Mesh struct {
	cfg Config
	// ports holds every router output port, indexed
	// router*numPorts+port: the order in which simultaneous hop
	// completions are applied.
	ports []outPort
	// pulls lists the ports whose link is idle while their FIFO holds
	// a packet; the next Step starts a hop on each.
	pulls []int
	// due orders the in-flight hops by (done, port index).
	due   hopHeap
	stats Stats

	// OnDeliver is invoked when a packet reaches its destination's
	// local port. It may be nil.
	OnDeliver func(p *packet.Packet, injected, now slot.Time)
}

// hop is one scheduled hop completion: port's current packet leaves
// its link at slot done.
type hop struct {
	done slot.Time
	port int
}

// hopHeap is a binary min-heap of hops keyed by (done, port). Each
// port has at most one hop in flight, so the key is unique and equal
// slots pop in port index order. It is not a queue.PQ, which would
// pop equal slots in insertion order instead.
type hopHeap []hop

func (a hop) before(b hop) bool {
	return a.done < b.done || a.done == b.done && a.port < b.port
}

func (h *hopHeap) push(e hop) {
	*h = append(*h, e)
	s := *h
	for i := len(s) - 1; i > 0; {
		parent := (i - 1) / 2
		if !s[i].before(s[parent]) {
			break
		}
		s[i], s[parent] = s[parent], s[i]
		i = parent
	}
}

func (h *hopHeap) pop() hop {
	s := *h
	top := s[0]
	n := len(s) - 1
	s[0] = s[n]
	s = s[:n]
	for i := 0; ; {
		c := 2*i + 1
		if c >= n {
			break
		}
		if r := c + 1; r < n && s[r].before(s[c]) {
			c = r
		}
		if !s[c].before(s[i]) {
			break
		}
		s[i], s[c] = s[c], s[i]
		i = c
	}
	*h = s
	return top
}

// New builds a mesh with the given configuration.
func New(cfg Config) (*Mesh, error) {
	cfg, err := cfg.normalized()
	if err != nil {
		return nil, err
	}
	m := &Mesh{cfg: cfg, ports: make([]outPort, cfg.Width*cfg.Height*int(numPorts))}
	for i := range m.ports {
		m.ports[i].waiting = queue.NewFIFO[flight](cfg.QueueDepth)
	}
	return m, nil
}

// Config returns the mesh configuration.
func (m *Mesh) Config() Config { return m.cfg }

// Stats returns a snapshot of the delivery statistics.
func (m *Mesh) Stats() Stats { return m.stats }

// NodeAt returns the NodeID of the tile at c.
func (m *Mesh) NodeAt(c Coord) packet.NodeID {
	return packet.NodeID(c.Y*m.cfg.Width + c.X)
}

// CoordOf returns the tile coordinate of id.
func (m *Mesh) CoordOf(id packet.NodeID) Coord {
	return Coord{X: int(id) % m.cfg.Width, Y: int(id) / m.cfg.Width}
}

// valid reports whether id addresses a tile of this mesh.
func (m *Mesh) valid(id packet.NodeID) bool {
	return int(id) < m.cfg.Width*m.cfg.Height
}

// route returns the XY dimension-ordered next port from cur toward dst.
func (m *Mesh) route(cur Coord, dst Coord) Port {
	switch {
	case dst.X > cur.X:
		return East
	case dst.X < cur.X:
		return West
	case dst.Y > cur.Y:
		return South
	case dst.Y < cur.Y:
		return North
	default:
		return Local
	}
}

// linkSlots returns how long one hop occupies a link for pkt:
// serialization of all flits plus the router pipeline latency.
func (m *Mesh) linkSlots(pkt *packet.Packet) slot.Time {
	return slot.Time(pkt.Flits(m.cfg.FlitBytes)) + m.cfg.HopLatency
}

// Hops returns the XY route length between two nodes.
func (m *Mesh) Hops(src, dst packet.NodeID) int {
	a, b := m.CoordOf(src), m.CoordOf(dst)
	dx, dy := a.X-b.X, a.Y-b.Y
	if dx < 0 {
		dx = -dx
	}
	if dy < 0 {
		dy = -dy
	}
	return dx + dy
}

// MinLatency returns the zero-contention delivery latency of pkt.
func (m *Mesh) MinLatency(pkt *packet.Packet) slot.Time {
	hops := m.Hops(pkt.Src, pkt.Dst)
	return slot.Time(hops+1) * m.linkSlots(pkt) // +1 for local ejection
}

// Inject submits a packet at its source tile at time now. It reports
// false (and counts a drop) when the first output port's FIFO is full.
func (m *Mesh) Inject(now slot.Time, pkt *packet.Packet) bool {
	if !m.valid(pkt.Src) || !m.valid(pkt.Dst) {
		m.stats.Dropped++
		return false
	}
	if !m.push(int(pkt.Src), flight{pkt: pkt, injected: now}) {
		return false
	}
	m.stats.Injected++
	return true
}

// push enqueues fl at router ri's output port toward its destination.
// A packet landing on an idle link with an empty FIFO schedules a
// pull; a full FIFO counts a drop.
func (m *Mesh) push(ri int, fl flight) bool {
	id := ri*int(numPorts) + int(m.route(m.CoordOf(packet.NodeID(ri)), m.CoordOf(fl.pkt.Dst)))
	op := &m.ports[id]
	idle := op.current.pkt == nil && op.waiting.Len() == 0
	if !op.waiting.Push(fl) {
		m.stats.Dropped++
		return false
	}
	if d := op.waiting.Len(); d > m.stats.MaxQueued {
		m.stats.MaxQueued = d
	}
	if idle {
		m.pulls = append(m.pulls, id)
	}
	return true
}

// Step advances the mesh by one slot. Idle links with a packet waiting
// start its hop, which completes linkSlots-1 slots later; the hops
// completing now move their packet to the next router (or deliver it),
// in port index order. Applying each completion as it pops is the same
// as collecting them all first: a push only schedules a pull, which
// the next Step serves.
func (m *Mesh) Step(now slot.Time) {
	for _, id := range m.pulls {
		op := &m.ports[id]
		op.current, _ = op.waiting.Pop()
		op.done = now + m.linkSlots(op.current.pkt) - 1
		m.due.push(hop{done: op.done, port: id})
	}
	m.pulls = m.pulls[:0]
	for len(m.due) > 0 && m.due[0].done <= now {
		id := m.due.pop().port
		op := &m.ports[id]
		fl := op.current
		op.current = flight{}
		if op.waiting.Len() > 0 {
			m.pulls = append(m.pulls, id)
		}
		m.stats.Forwarded++
		ri, port := id/int(numPorts), Port(id%int(numPorts))
		if port == Local {
			m.deliver(fl, now)
			continue
		}
		m.push(m.neighbor(ri, port), fl)
	}
}

// NextWork returns the first slot ≥ now at which Step has work: now
// when an idle link has a packet waiting, otherwise the earliest hop
// completion, and slot.Never when the mesh is empty.
func (m *Mesh) NextWork(now slot.Time) slot.Time {
	switch {
	case len(m.pulls) > 0:
		return now
	case len(m.due) > 0:
		return m.due[0].done
	default:
		return slot.Never
	}
}

func (m *Mesh) deliver(fl flight, now slot.Time) {
	m.stats.Delivered++
	d := now + 1 - fl.injected
	m.stats.TotalDelay += d
	if d > m.stats.MaxDelay {
		m.stats.MaxDelay = d
	}
	if m.OnDeliver != nil {
		m.OnDeliver(fl.pkt, fl.injected, now)
	}
}

// neighbor returns the router index one hop from ri through port.
func (m *Mesh) neighbor(ri int, port Port) int {
	switch port {
	case East:
		return ri + 1
	case West:
		return ri - 1
	case South:
		return ri + m.cfg.Width
	case North:
		return ri - m.cfg.Width
	default:
		return ri
	}
}

// Pending returns the number of packets currently inside the NoC
// (queued or on a link).
func (m *Mesh) Pending() int {
	n := 0
	for i := range m.ports {
		n += m.ports[i].waiting.Len()
		if m.ports[i].current.pkt != nil {
			n++
		}
	}
	return n
}
