// meshTransport: shared NoC plumbing for the baselines that move I/O
// over the on-chip network (BS|Legacy, BS|RT-XEN). Processors occupy
// the upper mesh rows, I/O controllers the bottom row; requests and
// responses are encapsulated as packets (assumption (ii) of Sec. II)
// and contend in the routers' FIFO arbiters.
package baseline

import (
	"fmt"
	"sync"
	"sync/atomic"

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

// meshTransport carries jobs to per-device stations over a mesh NoC.
type meshTransport struct {
	mesh     *noc.Mesh
	vms      int
	col      *system.Collector
	stations map[string]*station
	devTile  map[string]packet.NodeID
	tileDev  map[packet.NodeID]string
	// inflight is touched from both region shards (the processor band
	// inserts on request injection, the device row looks jobs up on
	// request delivery); the mutex is uncontended in monolithic runs.
	inflightMu sync.Mutex
	inflight   map[jobKey]*task.Job
	respCost   slot.Time // software response-path cost at the processor

	// regions partition the mesh into the processor band (rows
	// 0..H-2) and the device row (row H-1), each advancing on its own
	// virtual clock with boundary-flit horizons; regionShards engages
	// them. The injector indirection lets sendRequest/sendResponse
	// target whichever view of the mesh is live; dense runs keep
	// mesh.Inject.
	regions    []*noc.Region
	shards     []system.Shard
	reqInject  func(now slot.Time, p *packet.Packet) bool
	respInject func(now slot.Time, p *packet.Packet) bool
	// respond routes a station's completion toward the NoC. Monolithic
	// runs inject immediately (the mesh step for this slot already
	// ran); the device shard instead stages the response and injects
	// it after the next slot's boundary arrivals are applied, keeping
	// the FIFO order of same-queue pushes identical to a dense run.
	respond func(dev string, j *task.Job, finished slot.Time)
	// dropped counts jobs lost in transport (unknown device, full
	// injection queue, unmatched delivery). Atomic: it may be
	// snapshotted from another goroutine while a trial runs.
	dropped atomic.Int64
	// observe optionally post-processes the observed completion time
	// (RT-Xen delays it to the VM's next VCPU window).
	observe func(vmID int, at slot.Time) slot.Time
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
		vms:      vms,
		col:      col,
		stations: make(map[string]*station),
		devTile:  make(map[string]packet.NodeID),
		tileDev:  make(map[packet.NodeID]string),
		inflight: make(map[jobKey]*task.Job),
		respCost: respCost,
	}
	for i, dev := range devices {
		tile := mesh.NodeAt(noc.Coord{X: i, Y: cfg.Height - 1})
		t.devTile[dev] = tile
		t.tileDev[tile] = dev
		devName := dev
		st, err := newStation(dev, globalFIFO, vms, controllerSetupSlots, func(j *task.Job, finished slot.Time) {
			t.respond(devName, j, finished)
		})
		if err != nil {
			return nil, err
		}
		t.stations[dev] = st
	}
	regions, err := noc.Regions(cfg, []int{cfg.Height - 1, 1})
	if err != nil {
		return nil, err
	}
	for _, r := range regions {
		r.OnDeliver = t.onDeliver
	}
	// The device row consumes delivered requests and its stations emit
	// responses back toward the processor band: same-side feedback the
	// region's horizon accounting must know about.
	regions[1].Loopback = true
	t.regions = regions
	mesh.OnDeliver = t.onDeliver
	t.reqInject = mesh.Inject
	t.respInject = mesh.Inject
	t.respond = t.sendResponse
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
		t.dropped.Add(1)
		return
	}
	payload := j.Task.OpBytes
	if payload > maxPacketPayload {
		payload = maxPacketPayload
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
	}, make([]byte, payload))
	t.inflightMu.Lock()
	t.inflight[key(j)] = j
	t.inflightMu.Unlock()
	if !t.reqInject(now, p) {
		t.inflightMu.Lock()
		delete(t.inflight, key(j))
		t.inflightMu.Unlock()
		t.dropped.Add(1)
	}
}

// sendResponse injects the completion notification back to the VM.
func (t *meshTransport) sendResponse(dev string, j *task.Job, finished slot.Time) {
	payload := j.Task.OpBytes
	if payload > maxPacketPayload {
		payload = maxPacketPayload
	}
	p := packet.New(packet.Header{
		Src:      t.devTile[dev],
		Dst:      t.vmTile(j.Task.VM),
		VM:       uint8(j.Task.VM),
		Kind:     packet.Response,
		Op:       packet.Write,
		Task:     uint16(j.Task.ID),
		Seq:      uint32(j.Seq),
		Deadline: j.Deadline,
	}, make([]byte, payload))
	if !t.respInject(finished, p) {
		t.dropped.Add(1)
	}
}

// onDeliver routes delivered packets: requests into the device
// station, responses to the collector.
// debugDeliver, when set, observes every packet delivery (test hook).
var debugDeliver func(kind packet.Kind, task uint16, seq uint32, injected, now slot.Time)

func (t *meshTransport) onDeliver(p *packet.Packet, injected, now slot.Time) {
	if debugDeliver != nil {
		debugDeliver(p.Kind, p.Task, p.Seq, injected, now)
	}
	k := jobKey{task: p.Task, seq: p.Seq}
	t.inflightMu.Lock()
	j, ok := t.inflight[k]
	if ok && p.Kind == packet.Response {
		delete(t.inflight, k)
	}
	t.inflightMu.Unlock()
	if !ok {
		t.dropped.Add(1)
		return
	}
	switch p.Kind {
	case packet.Request:
		dev, ok := t.tileDev[p.Dst]
		if !ok {
			t.dropped.Add(1)
			return
		}
		if err := t.stations[dev].enqueue(j); err != nil {
			t.dropped.Add(1)
		}
	case packet.Response:
		at := now + 1 + t.respCost
		if t.observe != nil {
			at = t.observe(j.Task.VM, at)
		}
		if t.col != nil {
			t.col.Complete(j, at)
		}
	}
}

// step advances the mesh and every station one slot.
func (t *meshTransport) step(now slot.Time) {
	t.mesh.Step(now)
	for _, dev := range t.deviceNames() {
		t.stations[dev].step(now)
	}
}

// deviceNames returns the devices in deterministic (tile) order.
func (t *meshTransport) deviceNames() []string {
	cfg := t.mesh.Config()
	out := make([]string, 0, len(t.devTile))
	for i := 0; i < cfg.Width; i++ {
		tile := t.mesh.NodeAt(noc.Coord{X: i, Y: cfg.Height - 1})
		if dev, ok := t.tileDev[tile]; ok {
			out = append(out, dev)
		}
	}
	return out
}

// pendingJobs visits all in-flight jobs (in the mesh or at stations).
func (t *meshTransport) pendingJobs(visit func(j *task.Job)) {
	t.inflightMu.Lock()
	defer t.inflightMu.Unlock()
	for _, j := range t.inflight {
		visit(j)
	}
}

// meshStats merges the monolithic mesh counters with the per-region
// ones. Exactly one view carries traffic per trial (dense runs use
// the mesh, sharded runs the regions), so the merge is a plain sum.
func (t *meshTransport) meshStats() noc.Stats {
	s := t.mesh.Stats()
	for _, r := range t.regions {
		s = s.Merge(r.Stats())
	}
	return s
}

// regionShards partitions the transport for multi-shard execution:
// the processor band (where requests originate and responses eject)
// and the device row (stations included) each become one shard over
// their noc.Region. Injectors are rebound to the regions — safe
// because system.Run only calls Shards() on the non-dense path, and a
// system instance drives exactly one trial.
func (t *meshTransport) regionShards(pipe guestPipe, devices []string, submit func(now slot.Time, j *task.Job)) []system.Shard {
	if t.shards != nil {
		return t.shards
	}
	proc, dev := t.regions[0], t.regions[1]
	t.reqInject = proc.Inject
	t.respInject = dev.Inject
	stations := make([]*station, 0, len(t.stations))
	for _, name := range t.deviceNames() {
		stations = append(stations, t.stations[name])
	}
	ds := &devShard{t: t, r: dev, stations: stations}
	t.respond = ds.stageResponse
	t.shards = []system.Shard{
		&procShard{t: t, r: proc, pipe: pipe, devices: devices, submit: submit},
		ds,
	}
	return t.shards
}
