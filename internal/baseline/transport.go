// meshTransport: shared NoC plumbing for the baselines that move I/O
// over the on-chip network (BS|Legacy, BS|RT-XEN). Processors occupy
// the upper mesh rows, I/O controllers the bottom row; requests and
// responses cross the mesh as packet-sized messages (assumption (ii)
// of Sec. II) and contend in the routers' FIFO arbiters.
package baseline

import (
	"fmt"

	"ioguard/internal/noc"
	"ioguard/internal/packet"
	"ioguard/internal/slot"
	"ioguard/internal/system"
	"ioguard/internal/task"
)

// maxPacketPayload caps the command/descriptor payload carried across
// the NoC per operation; bulk data moves by DMA outside the request
// path, so only the descriptor contends in the routers.
const maxPacketPayload = 64

// packetBytes is the size of j's request and response packets: a
// header plus its operation size capped at maxPacketPayload.
func packetBytes(j *task.Job) int {
	return packet.HeaderBytes + min(j.Task.OpBytes, maxPacketPayload)
}

// message is what crosses the mesh: a job's request toward its
// device's station st, or, with st nil, its response back to the VM.
type message struct {
	job *task.Job
	st  *station
}

// meshTransport carries jobs to per-device stations over a mesh NoC.
type meshTransport struct {
	mesh *noc.Mesh[message]
	col  *system.Collector
	// stations holds one controller per device in tile order: station
	// i sits on the i-th tile of the bottom row.
	stations []*station
	devIndex map[string]int
	respCost slot.Time // software response-path cost at the processor
	// dropped counts jobs submitted for a device without a station.
	dropped int64
}

// newMeshTransport wires a transport over a fresh mesh for the given
// devices, creating one global-FIFO station per device.
func newMeshTransport(devices []string, col *system.Collector, respCost slot.Time) (*meshTransport, error) {
	if len(devices) > noc.Width {
		return nil, fmt.Errorf("baseline: %d devices exceed the mesh's device row (%d)", len(devices), noc.Width)
	}
	t := &meshTransport{
		mesh:     noc.New[message](),
		col:      col,
		devIndex: make(map[string]int),
		respCost: respCost,
	}
	for i, dev := range devices {
		tile := devTile(i)
		t.devIndex[dev] = i
		st, err := newStation(dev, false, 0, controllerSetupSlots, func(j *task.Job, finished slot.Time) {
			t.mesh.Inject(finished, tile, vmTile(j.Task.VM), packetBytes(j), message{job: j})
		})
		if err != nil {
			return nil, err
		}
		t.stations = append(t.stations, st)
	}
	t.mesh.OnDeliver = t.onDeliver
	return t, nil
}

// devTile is the tile of the i-th device: the i-th tile of the bottom
// row.
func devTile(i int) packet.NodeID { return noc.NodeAt(noc.Coord{X: i, Y: noc.Height - 1}) }

// vmTile maps a VM to its processor tile (top rows of the mesh; VMs
// beyond the processor count share cores, as in the prototype's up to
// three guests per MicroBlaze).
func vmTile(vmID int) packet.NodeID {
	return packet.NodeID(vmID % (noc.Width * (noc.Height - 1)))
}

// sendRequest injects a job's request at its VM's tile toward its
// device's station.
func (t *meshTransport) sendRequest(now slot.Time, j *task.Job) {
	i, ok := t.devIndex[j.Task.Device]
	if !ok {
		t.dropped++
		return
	}
	t.mesh.Inject(now, vmTile(j.Task.VM), devTile(i), packetBytes(j), message{job: j, st: t.stations[i]})
}

// debugDeliver, when set, observes every mesh delivery (test hook).
var debugDeliver func(response bool, j *task.Job, injected, now slot.Time)

// onDeliver routes delivered messages: requests into their device's
// station, responses to the collector.
func (t *meshTransport) onDeliver(m message, injected, now slot.Time) {
	if debugDeliver != nil {
		debugDeliver(m.st == nil, m.job, injected, now)
	}
	switch {
	case m.st != nil:
		m.st.enqueue(m.job) // a global FIFO admits every job
	case t.col != nil:
		t.col.Complete(m.job, now+1+t.respCost)
	}
}

// step advances the mesh, then every station in tile order, one slot.
func (t *meshTransport) step(now slot.Time) {
	t.mesh.Step(now)
	for _, st := range t.stations {
		st.step(now)
	}
}

// nextWork is the earliest slot ≥ now at which step changes any state:
// the mesh's next pull or hop completion, or a station's next service
// start or end; slot.Never when both are drained.
func (t *meshTransport) nextWork(now slot.Time) slot.Time {
	next := t.mesh.NextWork(now)
	for _, st := range t.stations {
		next = min(next, st.nextWork(now))
	}
	return next
}

// pendingJobs visits all in-flight jobs: those crossing the mesh, then
// those at the stations in tile order.
func (t *meshTransport) pendingJobs(visit func(j *task.Job)) {
	t.mesh.Each(func(m message) { visit(m.job) })
	for _, st := range t.stations {
		st.pendingJobs(visit)
	}
}
