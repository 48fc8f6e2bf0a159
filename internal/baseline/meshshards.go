// Region shards for the mesh-transport baselines: the 5×5 mesh is
// split into the processor band (rows 0..H-2) and the device row
// (row H-1), each a noc.Region advancing on its own virtual clock.
// Cross-region packets move through the regions' boundary mailboxes,
// and each region's published horizon bounds how far the neighbor may
// fast-forward — a region never skips past a flit that could still
// arrive from across the cut. This is what lets Legacy and RT-Xen
// fast-forward per region: the guest-side pipeline rides on the
// processor shard, the stations on the device shard.
package baseline

import (
	"ioguard/internal/noc"
	"ioguard/internal/slot"
	"ioguard/internal/system"
	"ioguard/internal/task"
)

// guestPipe is the system-specific guest-side request pipeline that
// lives on the processor shard: Legacy's kernel-path delay queue or
// RT-Xen's serialized VMM backend.
type guestPipe interface {
	// injectDue advances the pipeline at slot now, injecting every
	// request whose software path has completed.
	injectDue(now slot.Time)
	// pipeNextWork returns the earliest slot at which the pipeline
	// needs an executed step (may be ≤ now), or slot.Never.
	pipeNextWork(now slot.Time) slot.Time
	// nextEmit lower-bounds the injection slot of the next request the
	// pipeline could place on the mesh, given its clock reaches pub.
	// It must account for jobs not yet submitted (which arrive at
	// slots ≥ pub and then traverse the software path).
	nextEmit(pub slot.Time) slot.Time
}

// procShard is the processor-band shard: guest pipeline + upper mesh
// rows. It owns every device name, so all fleet releases route here,
// and it is the only shard that completes jobs.
type procShard struct {
	t       *meshTransport
	r       *noc.Region
	pipe    guestPipe
	devices []string
	submit  func(now slot.Time, j *task.Job)
}

var _ system.Shard = (*procShard)(nil)

func (s *procShard) Devices() []string { return s.devices }

func (s *procShard) Submit(now slot.Time, j *task.Job) { s.submit(now, j) }

// Step runs one slot of the processor band: apply the neighbor's
// slot-(now-1) crossings, run the guest pipeline (injections land
// before the router phase, as in the dense Step), advance the
// routers, and publish the slot-(now+1) horizon.
func (s *procShard) Step(now slot.Time) {
	s.r.Apply(now)
	s.pipe.injectDue(now)
	s.r.Advance(now)
	s.r.Publish(now+1, s.pipe.nextEmit(now+1))
}

func (s *procShard) NextWork(now slot.Time) slot.Time {
	next := s.r.NextWork(now)
	if next <= now {
		return now
	}
	if at := s.pipe.pipeNextWork(now); at <= now {
		return now
	} else if at < next {
		next = at
	}
	return next
}

// SkipTo bulk-advances the band's link countdowns and republishes the
// horizon at the new clock (the skip proves no emission before to).
func (s *procShard) SkipTo(from, to slot.Time) {
	s.r.SkipTo(from, to)
	s.r.Publish(to, s.pipe.nextEmit(to))
}

// devShard is the device-row shard: bottom mesh row plus every I/O
// station, stepped in tile order exactly as the monolithic transport
// does after the mesh.
type devShard struct {
	t        *meshTransport
	r        *noc.Region
	stations []*station
	// staged holds completed operations whose response packets are due
	// for injection at slot at (= completion slot + 1). Injection is
	// delayed until the next Step's Apply has run, so a response never
	// overtakes a same-slot router hop in a shared FIFO — the push
	// order a dense run would produce.
	staged []stagedResp
}

type stagedResp struct {
	at  slot.Time
	dev string
	j   *task.Job
}

// stageResponse is the station respond hook in region mode.
func (s *devShard) stageResponse(dev string, j *task.Job, finished slot.Time) {
	s.staged = append(s.staged, stagedResp{at: finished, dev: dev, j: j})
}

var _ system.Shard = (*devShard)(nil)

// Devices returns nil: the processor shard owns every device name, so
// no releases route here — jobs reach this shard only as request
// packets across the mesh boundary.
func (s *devShard) Devices() []string { return nil }

// Submit should never be called (no devices are owned); a stray job
// is counted as lost in transport.
func (s *devShard) Submit(now slot.Time, j *task.Job) { s.t.dropped.Add(1) }

func (s *devShard) Step(now slot.Time) {
	s.r.Apply(now)
	for len(s.staged) > 0 && s.staged[0].at <= now {
		sr := s.staged[0]
		s.staged = s.staged[1:]
		s.t.sendResponse(sr.dev, sr.j, now)
	}
	s.r.Advance(now)
	for _, st := range s.stations {
		st.step(now)
	}
	s.r.Publish(now+1, s.nextEmit(now+1))
}

func (s *devShard) NextWork(now slot.Time) slot.Time {
	if len(s.staged) > 0 {
		return now // a response is due for injection next step
	}
	for _, st := range s.stations {
		if st.busy() {
			return now
		}
	}
	return s.r.NextWork(now)
}

func (s *devShard) SkipTo(from, to slot.Time) {
	s.r.SkipTo(from, to)
	s.r.Publish(to, s.nextEmit(to))
}

// nextEmit lower-bounds the next response injection: an in-service
// operation with r slots remaining responds at pub+r; a mere backlog
// responds no earlier than pub+1 (pull, setup, service all take
// slots); an idle station emits nothing.
func (s *devShard) nextEmit(pub slot.Time) slot.Time {
	if len(s.staged) > 0 {
		return pub // a staged response injects at the very next step
	}
	e := slot.Never
	for _, st := range s.stations {
		if st.current != nil {
			rem := st.current.Remaining
			if rem < 1 {
				rem = 1
			}
			if c := pub + rem; c < e {
				e = c
			}
		} else if st.backlog() > 0 {
			if c := pub + 1; c < e {
				e = c
			}
		}
	}
	return e
}
