// Package noc simulates the predictability-focused mesh
// Network-on-Chip of the evaluation platform (a 5×5 mesh in Sec. V,
// following BlueShell [8]): XY dimension-ordered routing,
// store-and-forward switching, and FIFO arbitration at every router
// output port.
//
// The platform is fixed: 5×5 tiles, 4-byte flits, a one-slot router
// pipeline and unbounded per-port FIFOs, so the mesh delivers every
// item it accepts. A Mesh[T] carries the caller's item by value (the
// baselines send the job itself); the byte size given at injection
// sets how many flits each hop serializes.
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

// The evaluation platform's mesh (Sec. V): a 5×5 grid of tiles, 4-byte
// links and a one-slot router pipeline.
const (
	Width, Height = 5, 5

	flitBytes  = 4
	hopLatency = slot.Time(1)
)

// flight is one item in transit through a router output port.
type flight[T any] struct {
	item T
	dst  packet.NodeID
	// link is how long one hop occupies a link: serialization of all
	// flits plus the router pipeline latency. It is at least 2, so 0
	// marks an idle link's empty flight.
	link     slot.Time
	injected slot.Time // when the item entered the NoC
}

// outPort is one router output: an unbounded FIFO arbiter plus the
// link currently serializing an item.
type outPort[T any] struct {
	waiting queue.FIFO[flight[T]]
	current flight[T]
	done    slot.Time // slot in which the current hop completes
}

// Stats aggregates delivery statistics.
type Stats struct {
	Injected   int64
	Delivered  int64
	Dropped    int64 // rejected at injection (a tile outside the mesh)
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

// Mesh is the simulated NoC carrying items of type T. It is
// event-driven: each link holds the absolute slot its current hop
// completes in, so Step touches only the links it pulls for or whose
// hop is due, and NextWork reads the next such slot in O(1). Delivered
// items are handed to the OnDeliver callback.
type Mesh[T any] struct {
	// ports holds every router output port, indexed
	// router*numPorts+port: the order in which simultaneous hop
	// completions are applied.
	ports []outPort[T]
	// pulls lists the ports whose link is idle while their FIFO holds
	// an item; the next Step starts a hop on each.
	pulls []int
	// due orders the in-flight hops by (done, port index).
	due   hopHeap
	stats Stats

	// OnDeliver is invoked when an item reaches its destination's
	// local port. It may be nil.
	OnDeliver func(item T, injected, now slot.Time)
}

// hop is one scheduled hop completion: port's current item leaves
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

// New builds an empty mesh.
func New[T any]() *Mesh[T] {
	return &Mesh[T]{ports: make([]outPort[T], Width*Height*int(numPorts))}
}

// Stats returns a snapshot of the delivery statistics.
func (m *Mesh[T]) Stats() Stats { return m.stats }

// NodeAt returns the NodeID of the tile at c.
func NodeAt(c Coord) packet.NodeID { return packet.NodeID(c.Y*Width + c.X) }

// CoordOf returns the tile coordinate of id.
func CoordOf(id packet.NodeID) Coord {
	return Coord{X: int(id) % Width, Y: int(id) / Width}
}

// valid reports whether id addresses a tile of the mesh.
func valid(id packet.NodeID) bool { return int(id) < Width*Height }

// route returns the XY dimension-ordered next port from cur toward dst.
func route(cur Coord, dst Coord) Port {
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

// linkSlots returns how long one hop of a bytes-long item occupies a
// link: its flits (at least one) plus the router pipeline latency.
func linkSlots(bytes int) slot.Time {
	return slot.Time(max(1, (bytes+flitBytes-1)/flitBytes)) + hopLatency
}

// Hops returns the XY route length between two nodes.
func Hops(src, dst packet.NodeID) int {
	a, b := CoordOf(src), CoordOf(dst)
	dx, dy := a.X-b.X, a.Y-b.Y
	if dx < 0 {
		dx = -dx
	}
	if dy < 0 {
		dy = -dy
	}
	return dx + dy
}

// MinLatency returns the zero-contention delivery latency of a
// bytes-long item from src to dst.
func MinLatency(src, dst packet.NodeID, bytes int) slot.Time {
	return slot.Time(Hops(src, dst)+1) * linkSlots(bytes) // +1 for local ejection
}

// Inject submits a bytes-long item at tile src toward tile dst at time
// now. It reports false, and counts a drop, when either tile lies
// outside the mesh; otherwise the mesh delivers the item.
func (m *Mesh[T]) Inject(now slot.Time, src, dst packet.NodeID, bytes int, item T) bool {
	if !valid(src) || !valid(dst) {
		m.stats.Dropped++
		return false
	}
	m.push(int(src), flight[T]{item: item, dst: dst, link: linkSlots(bytes), injected: now})
	m.stats.Injected++
	return true
}

// push enqueues fl at router ri's output port toward its destination.
// An item landing on an idle link with an empty FIFO schedules a pull.
func (m *Mesh[T]) push(ri int, fl flight[T]) {
	id := ri*int(numPorts) + int(route(CoordOf(packet.NodeID(ri)), CoordOf(fl.dst)))
	op := &m.ports[id]
	if op.current.link == 0 && op.waiting.Len() == 0 {
		m.pulls = append(m.pulls, id)
	}
	op.waiting.Push(fl)
	if d := op.waiting.Len(); d > m.stats.MaxQueued {
		m.stats.MaxQueued = d
	}
}

// Step advances the mesh by one slot. Idle links with an item waiting
// start its hop, which completes link-1 slots later; the hops
// completing now move their item to the next router (or deliver it),
// in port index order. Applying each completion as it pops is the same
// as collecting them all first: a push only schedules a pull, which
// the next Step serves.
func (m *Mesh[T]) Step(now slot.Time) {
	for _, id := range m.pulls {
		op := &m.ports[id]
		op.current, _ = op.waiting.Pop()
		op.done = now + op.current.link - 1
		m.due.push(hop{done: op.done, port: id})
	}
	m.pulls = m.pulls[:0]
	for len(m.due) > 0 && m.due[0].done <= now {
		id := m.due.pop().port
		op := &m.ports[id]
		fl := op.current
		op.current = flight[T]{}
		if op.waiting.Len() > 0 {
			m.pulls = append(m.pulls, id)
		}
		m.stats.Forwarded++
		ri, port := id/int(numPorts), Port(id%int(numPorts))
		if port == Local {
			m.deliver(fl, now)
			continue
		}
		m.push(neighbor(ri, port), fl)
	}
}

// NextWork returns the first slot ≥ now at which Step has work: now
// when an idle link has an item waiting, otherwise the earliest hop
// completion, and slot.Never when the mesh is empty.
func (m *Mesh[T]) NextWork(now slot.Time) slot.Time {
	switch {
	case len(m.pulls) > 0:
		return now
	case len(m.due) > 0:
		return m.due[0].done
	default:
		return slot.Never
	}
}

func (m *Mesh[T]) deliver(fl flight[T], now slot.Time) {
	m.stats.Delivered++
	d := now + 1 - fl.injected
	m.stats.TotalDelay += d
	if d > m.stats.MaxDelay {
		m.stats.MaxDelay = d
	}
	if m.OnDeliver != nil {
		m.OnDeliver(fl.item, fl.injected, now)
	}
}

// neighbor returns the router index one hop from ri through port.
func neighbor(ri int, port Port) int {
	switch port {
	case East:
		return ri + 1
	case West:
		return ri - 1
	case South:
		return ri + Width
	case North:
		return ri - Width
	default:
		return ri
	}
}

// Each visits every item inside the NoC, queued or on a link.
func (m *Mesh[T]) Each(visit func(item T)) {
	for i := range m.ports {
		op := &m.ports[i]
		if op.current.link != 0 {
			visit(op.current.item)
		}
		op.waiting.Each(func(fl flight[T]) { visit(fl.item) })
	}
}
