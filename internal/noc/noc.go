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
	left     slot.Time // remaining slots on the current link
}

// outPort is one router output: a FIFO arbiter plus the link
// currently serializing a packet.
type outPort struct {
	waiting *queue.FIFO[*flight]
	current *flight
}

// router is one mesh tile's 5-port router.
type router struct {
	at  Coord
	out [numPorts]*outPort
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

// newOutPort builds one router output with an empty FIFO of the
// configured depth.
func newOutPort(c Config) *outPort {
	return &outPort{waiting: queue.NewFIFO[*flight](c.QueueDepth)}
}

// coordAt returns the tile coordinate of router index ri under c.
func coordAt(c Config, ri int) Coord {
	return Coord{X: ri % c.Width, Y: ri / c.Width}
}

// routeXY returns the XY dimension-ordered next port from cur toward
// dst.
func routeXY(cur, dst Coord) Port {
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

// linkSlotsFor returns how long one hop occupies a link for pkt under
// c: serialization of all flits plus the router pipeline latency.
func linkSlotsFor(c Config, pkt *packet.Packet) slot.Time {
	return slot.Time(pkt.Flits(c.FlitBytes)) + c.HopLatency
}

// neighborIdx returns the router index one hop from ri through port.
func neighborIdx(c Config, ri int, port Port) int {
	switch port {
	case East:
		return ri + 1
	case West:
		return ri - 1
	case South:
		return ri + c.Width
	case North:
		return ri - c.Width
	default:
		return ri
	}
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

// Merge folds another snapshot into s: counters add, maxima take the
// larger observation. It combines per-region statistics into one
// mesh-wide view.
func (s Stats) Merge(o Stats) Stats {
	s.Injected += o.Injected
	s.Delivered += o.Delivered
	s.Dropped += o.Dropped
	s.Forwarded += o.Forwarded
	s.TotalDelay += o.TotalDelay
	if o.MaxQueued > s.MaxQueued {
		s.MaxQueued = o.MaxQueued
	}
	if o.MaxDelay > s.MaxDelay {
		s.MaxDelay = o.MaxDelay
	}
	return s
}

// AvgDelay returns the mean injection-to-delivery latency in slots.
func (s Stats) AvgDelay() float64 {
	if s.Delivered == 0 {
		return 0
	}
	return float64(s.TotalDelay) / float64(s.Delivered)
}

// Mesh is the simulated NoC as one unit, stepped once per slot: the
// dense reference that the region shards (Regions) reproduce.
// Delivered packets are handed to the OnDeliver callback.
type Mesh struct {
	cfg     Config
	routers []*router
	stats   Stats

	// OnDeliver is invoked when a packet reaches its destination's
	// local port. It may be nil.
	OnDeliver func(p *packet.Packet, injected, now slot.Time)
}

// New builds a mesh with the given configuration.
func New(cfg Config) (*Mesh, error) {
	cfg, err := cfg.normalized()
	if err != nil {
		return nil, err
	}
	m := &Mesh{cfg: cfg}
	for y := 0; y < cfg.Height; y++ {
		for x := 0; x < cfg.Width; x++ {
			r := &router{at: Coord{x, y}}
			for p := range r.out {
				r.out[p] = newOutPort(cfg)
			}
			m.routers = append(m.routers, r)
		}
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
func (m *Mesh) route(cur Coord, dst Coord) Port { return routeXY(cur, dst) }

// linkSlots returns how long one hop occupies a link for pkt:
// serialization of all flits plus the router pipeline latency.
func (m *Mesh) linkSlots(pkt *packet.Packet) slot.Time {
	return linkSlotsFor(m.cfg, pkt)
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
	r := m.routers[pkt.Src]
	port := m.route(r.at, m.CoordOf(pkt.Dst))
	fl := &flight{pkt: pkt, injected: now}
	if !r.out[port].waiting.Push(fl) {
		m.stats.Dropped++
		return false
	}
	m.noteDepth(r.out[port])
	m.stats.Injected++
	return true
}

// noteDepth tracks the deepest per-port backlog seen.
func (m *Mesh) noteDepth(op *outPort) {
	if d := op.waiting.Len(); d > m.stats.MaxQueued {
		m.stats.MaxQueued = d
	}
}

// Step advances every router by one slot: links serialize their
// current packet; completed hops move the packet to the next router
// (or deliver it); idle links pull the next packet from their FIFO.
func (m *Mesh) Step(now slot.Time) {
	// Phase 1: progress links and collect hop completions.
	type arrival struct {
		fl   *flight
		at   int // router index
		port Port
	}
	var arrivals []arrival
	for ri, r := range m.routers {
		for p := Port(0); p < numPorts; p++ {
			op := r.out[p]
			if op.current == nil {
				if fl, ok := op.waiting.Pop(); ok {
					fl.left = m.linkSlots(fl.pkt)
					op.current = fl
				}
			}
			if op.current == nil {
				continue
			}
			op.current.left--
			if op.current.left > 0 {
				continue
			}
			fl := op.current
			op.current = nil
			arrivals = append(arrivals, arrival{fl: fl, at: ri, port: p})
		}
	}
	// Phase 2: apply completions — deliver or enqueue at the next hop.
	for _, a := range arrivals {
		m.stats.Forwarded++
		if a.port == Local {
			m.deliver(a.fl, now)
			continue
		}
		next := m.neighbor(a.at, a.port)
		nr := m.routers[next]
		port := m.route(nr.at, m.CoordOf(a.fl.pkt.Dst))
		if !nr.out[port].waiting.Push(a.fl) {
			m.stats.Dropped++ // bounded buffer overflow mid-route
		} else {
			m.noteDepth(nr.out[port])
		}
	}
}

func (m *Mesh) deliver(fl *flight, now slot.Time) {
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
	return neighborIdx(m.cfg, ri, port)
}

// Pending returns the number of packets currently inside the NoC
// (queued or on a link).
func (m *Mesh) Pending() int {
	n := 0
	for _, r := range m.routers {
		for p := Port(0); p < numPorts; p++ {
			n += r.out[p].waiting.Len()
			if r.out[p].current != nil {
				n++
			}
		}
	}
	return n
}
