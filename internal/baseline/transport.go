// meshTransport: shared NoC plumbing for the baselines that move I/O
// over the on-chip network (BS|Legacy, BS|RT-XEN). Processors occupy
// the upper mesh rows, I/O controllers the bottom row; requests and
// responses are encapsulated as packets (assumption (ii) of Sec. II)
// and contend in the routers' FIFO arbiters.
package baseline

import (
	"fmt"

	"ioguard/internal/noc"
	"ioguard/internal/packet"
	"ioguard/internal/slot"
	"ioguard/internal/system"
	"ioguard/internal/task"
)

// jobKey identifies an in-flight job across the packet boundary.
type jobKey struct {
	task uint16
	seq  uint32
}

// maxPacketPayload caps the command/descriptor payload carried across
// the NoC per operation; bulk data moves by DMA outside the request
// path, so only the descriptor contends in the routers.
const maxPacketPayload = 64

// zeroPayload backs every packet's payload. Only its length matters
// (it sets the flit count); nothing reads the bytes, so all packets
// share this one array through capacity-capped slices.
var zeroPayload [maxPacketPayload]byte

// payloadFor returns j's packet payload: its operation size capped at
// maxPacketPayload.
func payloadFor(j *task.Job) []byte {
	n := min(j.Task.OpBytes, maxPacketPayload)
	return zeroPayload[:n:n]
}

// meshTransport carries jobs to per-device stations over a mesh NoC.
type meshTransport struct {
	mesh *noc.Mesh
	col  *system.Collector
	// stations holds one controller per device in tile order: station
	// i sits on tile devRow+i, the i-th tile of the bottom row.
	stations []*station
	devRow   packet.NodeID
	devTile  map[string]packet.NodeID
	inflight map[jobKey]*task.Job
	respCost slot.Time // software response-path cost at the processor
	// dropped counts jobs lost in transport (unknown device, full
	// injection queue, unmatched delivery).
	dropped int64
}

// newMeshTransport wires a transport over a fresh default mesh for
// the given devices, creating one globalFIFO station per device.
func newMeshTransport(vms int, devices []string, col *system.Collector, respCost slot.Time) (*meshTransport, error) {
	mesh, err := noc.New(noc.DefaultConfig())
	if err != nil {
		return nil, err
	}
	cfg := mesh.Config()
	if len(devices) > cfg.Width {
		return nil, fmt.Errorf("baseline: %d devices exceed the mesh's device row (%d)", len(devices), cfg.Width)
	}
	t := &meshTransport{
		mesh:     mesh,
		col:      col,
		devRow:   mesh.NodeAt(noc.Coord{X: 0, Y: cfg.Height - 1}),
		devTile:  make(map[string]packet.NodeID),
		inflight: make(map[jobKey]*task.Job),
		respCost: respCost,
	}
	for i, dev := range devices {
		tile := mesh.NodeAt(noc.Coord{X: i, Y: cfg.Height - 1})
		t.devTile[dev] = tile
		st, err := newStation(dev, globalFIFO, vms, controllerSetupSlots, func(j *task.Job, finished slot.Time) {
			t.sendResponse(tile, j, finished)
		})
		if err != nil {
			return nil, err
		}
		t.stations = append(t.stations, st)
	}
	mesh.OnDeliver = t.onDeliver
	return t, nil
}

// vmTile maps a VM to its processor tile (top rows of the mesh; VMs
// beyond the processor count share cores, as in the prototype's up to
// three guests per MicroBlaze).
func (t *meshTransport) vmTile(vmID int) packet.NodeID {
	cfg := t.mesh.Config()
	cores := cfg.Width * (cfg.Height - 1)
	return packet.NodeID(vmID % cores)
}

func key(j *task.Job) jobKey {
	return jobKey{task: uint16(j.Task.ID), seq: uint32(j.Seq)}
}

// sendRequest injects a job's request packet at its VM's tile.
func (t *meshTransport) sendRequest(now slot.Time, j *task.Job) {
	tile, ok := t.devTile[j.Task.Device]
	if !ok {
		t.dropped++
		return
	}
	p := packet.New(packet.Header{
		Src:      t.vmTile(j.Task.VM),
		Dst:      tile,
		VM:       uint8(j.Task.VM),
		Kind:     packet.Request,
		Op:       packet.Write,
		Task:     uint16(j.Task.ID),
		Seq:      uint32(j.Seq),
		Deadline: j.Deadline,
	}, payloadFor(j))
	t.inflight[key(j)] = j
	if !t.mesh.Inject(now, p) {
		delete(t.inflight, key(j))
		t.dropped++
	}
}

// sendResponse injects the completion notification from a device tile
// back to the VM.
func (t *meshTransport) sendResponse(tile packet.NodeID, j *task.Job, finished slot.Time) {
	p := packet.New(packet.Header{
		Src:      tile,
		Dst:      t.vmTile(j.Task.VM),
		VM:       uint8(j.Task.VM),
		Kind:     packet.Response,
		Op:       packet.Write,
		Task:     uint16(j.Task.ID),
		Seq:      uint32(j.Seq),
		Deadline: j.Deadline,
	}, payloadFor(j))
	if !t.mesh.Inject(finished, p) {
		t.dropped++
	}
}

// debugDeliver, when set, observes every packet delivery (test hook).
var debugDeliver func(kind packet.Kind, task uint16, seq uint32, injected, now slot.Time)

// onDeliver routes delivered packets: requests into the device
// station, responses to the collector.
func (t *meshTransport) onDeliver(p *packet.Packet, injected, now slot.Time) {
	if debugDeliver != nil {
		debugDeliver(p.Kind, p.Task, p.Seq, injected, now)
	}
	k := jobKey{task: p.Task, seq: p.Seq}
	j, ok := t.inflight[k]
	if !ok {
		t.dropped++
		return
	}
	switch p.Kind {
	case packet.Request:
		i := int(p.Dst) - int(t.devRow)
		if i < 0 || i >= len(t.stations) {
			t.dropped++
			return
		}
		if err := t.stations[i].enqueue(j); err != nil {
			t.dropped++
		}
	case packet.Response:
		delete(t.inflight, k)
		if t.col != nil {
			t.col.Complete(j, now+1+t.respCost)
		}
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

// pendingJobs visits all in-flight jobs (in the mesh or at stations).
func (t *meshTransport) pendingJobs(visit func(j *task.Job)) {
	for _, j := range t.inflight {
		visit(j)
	}
}
