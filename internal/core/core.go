// Package core assembles the complete I/O-GUARD system of Sec. II:
// guest RTOSs whose para-virtual drivers forward I/O requests straight
// to the hardware hypervisor, one (virtualization manager,
// virtualization driver) pair per connected I/O device, pre-defined
// tasks compiled into each manager's Time Slot Table at initialization
// and run-time tasks scheduled by the two-layer R-channel scheduler.
//
// The I/O-GUARD-x configurations of the case study (Sec. V-C) map to
// Config.PreloadFrac: x% of the I/O tasks are loaded into the
// P-channel before run time and the rest arrive through the R-channel.
package core

import (
	"fmt"
	"sort"
	"strings"

	"ioguard/internal/analysis"
	"ioguard/internal/hypervisor"
	"ioguard/internal/iodev"
	"ioguard/internal/rtos"
	"ioguard/internal/slot"
	"ioguard/internal/system"
	"ioguard/internal/task"
)

// Config parameterizes an I/O-GUARD instance.
type Config struct {
	VMs int
	// PreloadFrac is the fraction of tasks pre-loaded into the
	// P-channel (0 ≤ f ≤ 1). Only zero-jitter tasks are eligible:
	// the Time Slot Table fixes their release times before run time.
	PreloadFrac float64
	// Mode selects the R-channel global scheduler. DirectEDF matches
	// the hardware description of Sec. III-A (G-Sched compares the
	// deadlines buffered in the shadow registers); ServerEDF is the
	// analyzable periodic-server configuration of Sec. IV.
	Mode hypervisor.Mode
	// Servers configures the per-VM periodic servers in ServerEDF
	// mode. The same servers are applied to every device's manager.
	Servers []task.Server
	// AutoServers (ServerEDF mode) ignores Servers and instead
	// dimensions minimal per-VM servers per device from that device's
	// R-channel tasks using the Theorem 3/4 synthesis, then verifies
	// them against the device's Time Slot Table with Theorem 1/2.
	// Construction fails if some device's R-channel load is
	// unschedulable — the analysis rejecting a configuration before
	// run time is the intended workflow of Sec. IV.
	AutoServers bool
	// ServerPeriod is Π for AutoServers; ≤0 picks a quarter of the
	// smallest R-channel deadline on the device (min 2 slots).
	ServerPeriod slot.Time
	// PoolCapacity bounds each I/O pool; ≤ 0 means unbounded.
	PoolCapacity int
	// WorkConserving lets the R-channel reclaim idle P-channel slots
	// (an extension; the paper's design is strict).
	WorkConserving bool
}

// System is a runnable I/O-GUARD instance implementing
// system.ShardedSystem: the hardware hypervisor is its set of
// per-device (manager, driver) shards.
type System struct {
	system.PerDevice[*deviceShard]
	name      string
	cfg       Config
	residual  task.Set
	preloaded task.Set
}

var _ system.ShardedSystem = (*System)(nil)

// New builds an I/O-GUARD system for the workload ts, wiring observed
// completions into col. Tasks are partitioned per device; for each
// device the pre-loaded tasks are compiled into a Time Slot Table
// with offline EDF (slot.Build) and the remainder become R-channel
// residual work.
func New(cfg Config, ts task.Set, col *system.Collector) (*System, error) {
	if cfg.VMs <= 0 {
		return nil, fmt.Errorf("core: need at least one VM")
	}
	if cfg.PreloadFrac < 0 || cfg.PreloadFrac > 1 {
		return nil, fmt.Errorf("core: preload fraction %.2f outside [0,1]", cfg.PreloadFrac)
	}
	if err := ts.Validate(); err != nil {
		return nil, err
	}
	s := &System{
		name: fmt.Sprintf("I/O-GUARD-%d", int(cfg.PreloadFrac*100+0.5)),
		cfg:  cfg,
	}
	preload := selectPreload(ts, cfg.PreloadFrac)
	byDevice := map[string]task.Set{}
	for _, t := range ts {
		byDevice[t.Device] = append(byDevice[t.Device], t)
	}
	devices := make([]string, 0, len(byDevice))
	for d := range byDevice {
		devices = append(devices, d)
	}
	sort.Strings(devices)

	path := rtos.Costs(rtos.IOGuard)
	shards := make([]*deviceShard, 0, len(devices))
	for _, dev := range devices {
		model, err := iodev.Lookup(dev)
		if err != nil {
			return nil, err
		}
		drv := hypervisor.NewDriver(model)
		if err := drv.Validate(); err != nil {
			return nil, err
		}
		// Compile this device's pre-loaded tasks into σ*, with the
		// translation overhead folded into each WCET (the table's
		// "worst-case computation time" covers the full device
		// occupancy). If the offline EDF cannot place them all
		// (transient overload at extreme target utilizations), demote
		// tasks to the R-channel until the table builds.
		pre := byDevice[dev].Filter(func(t task.Sporadic) bool { return preload[t.ID] })
		tab, specs, err := buildTable(pre, drv.OpOverhead())
		for err != nil && len(pre) > 0 {
			demoted := pre[len(pre)-1]
			delete(preload, demoted.ID)
			pre = pre[:len(pre)-1]
			tab, specs, err = buildTable(pre, drv.OpOverhead())
		}
		if err != nil {
			return nil, err
		}
		servers := cfg.Servers
		if cfg.Mode == hypervisor.ServerEDF && cfg.AutoServers {
			residual := byDevice[dev].Filter(func(t task.Sporadic) bool { return !preload[t.ID] })
			pathLatency := path.Request + drv.RequestLatency() + path.Response + drv.ResponseLatency()
			servers, err = synthesizeServers(tab, residual, cfg.ServerPeriod, drv.OpOverhead(), pathLatency)
			if err != nil {
				return nil, fmt.Errorf("core: device %s: %w", dev, err)
			}
		}
		mgr, err := hypervisor.New(hypervisor.Config{
			VMs:            cfg.VMs,
			PoolCapacity:   cfg.PoolCapacity,
			Table:          tab,
			Servers:        servers,
			Mode:           cfg.Mode,
			WorkConserving: cfg.WorkConserving,
			ReqLatency:     path.Request + drv.RequestLatency(),
			RespLatency:    path.Response + drv.ResponseLatency(),
		})
		if err != nil {
			return nil, err
		}
		if col != nil {
			mgr.OnComplete = col.Complete
		}
		for id, ps := range specs {
			if err := mgr.Preload(ps.spec, id, ps.offset); err != nil {
				return nil, err
			}
		}
		shards = append(shards, &deviceShard{dev: dev, mgr: mgr, overhead: drv.OpOverhead()})
	}
	s.PerDevice = system.NewPerDevice(shards)
	for _, t := range ts {
		if preload[t.ID] {
			s.preloaded = append(s.preloaded, t)
		} else {
			s.residual = append(s.residual, t)
		}
	}
	return s, nil
}

// selectPreload picks the pre-defined task set: zero-jitter tasks in
// ID order until the requested fraction of the whole workload is
// reached.
func selectPreload(ts task.Set, frac float64) map[int]bool {
	want := int(frac*float64(len(ts)) + 0.5)
	eligible := ts.Filter(func(t task.Sporadic) bool { return t.Jitter == 0 })
	sort.Slice(eligible, func(i, j int) bool { return eligible[i].ID < eligible[j].ID })
	out := make(map[int]bool, want)
	for i := 0; i < len(eligible) && i < want; i++ {
		out[eligible[i].ID] = true
	}
	return out
}

// synthesizeServers dimensions minimal per-VM servers for a device's
// R-channel tasks and verifies the two-layer analysis against its
// table. overhead is the per-op device occupancy the submission path
// charges, and pathLatency the request+response slots outside the
// device; the analysis sees inflated WCETs and deflated deadlines so
// its guarantees cover the full observed response time.
func synthesizeServers(tab *slot.Table, residual task.Set, pi, overhead, pathLatency slot.Time) ([]task.Server, error) {
	if len(residual) == 0 {
		return nil, nil
	}
	inflated := make(task.Set, len(residual))
	for i, t := range residual {
		t.WCET += overhead
		t.Deadline -= pathLatency
		if t.WCET > t.Deadline {
			return nil, fmt.Errorf("task %d: wcet %d + overhead exceeds effective deadline %d", t.ID, t.WCET, t.Deadline)
		}
		inflated[i] = t
	}
	residual = inflated
	if pi <= 0 {
		minD := residual[0].Deadline
		for _, t := range residual {
			if t.Deadline < minD {
				minD = t.Deadline
			}
		}
		pi = minD / 4
		if pi < 2 {
			pi = 2
		}
	}
	servers, res, err := analysis.SynthesizeServers(tab, residual, pi)
	if err != nil {
		return nil, err
	}
	if !res.Schedulable {
		return nil, fmt.Errorf("R-channel load unschedulable with Π=%d servers", pi)
	}
	return servers, nil
}

// preSpec is one pre-loaded task with its table start-time offset.
type preSpec struct {
	spec   *task.Sporadic
	offset slot.Time
}

// buildTable compiles pre-loaded tasks into a Time Slot Table and the
// spec map the manager's P-channel executes. overhead is added to
// every WCET: the table reserves the translation slots too.
func buildTable(pre task.Set, overhead slot.Time) (*slot.Table, map[slot.TaskID]preSpec, error) {
	if len(pre) == 0 {
		return slot.NewTable(1), nil, nil
	}
	reqs := make([]slot.Requirement, len(pre))
	specs := make(map[slot.TaskID]preSpec, len(pre))
	for i := range pre {
		id := slot.TaskID(i)
		// Stagger the start times across each task's period: loading
		// every pre-defined task at offset 0 would pack the table
		// into one solid busy burst per hyper-period and starve
		// tight R-channel deadlines of free slots.
		offset := (slot.Time(i) * 613) % pre[i].Period
		reqs[i] = slot.Requirement{
			ID:       id,
			Period:   pre[i].Period,
			WCET:     pre[i].WCET + overhead,
			Deadline: pre[i].Deadline,
			Offset:   offset,
		}
		spec := pre[i]
		spec.WCET += overhead
		specs[id] = preSpec{spec: &spec, offset: offset}
	}
	tab, _, err := slot.Build(reqs)
	if err != nil {
		return nil, nil, err
	}
	return tab, specs, nil
}

// Name returns e.g. "I/O-GUARD-70".
func (s *System) Name() string { return s.name }

// Arch returns rtos.IOGuard.
func (s *System) Arch() rtos.Arch { return rtos.IOGuard }

// Residual returns the R-channel tasks the external release engine
// must drive (pre-loaded tasks are generated by the P-channel).
func (s *System) Residual() task.Set { return s.residual }

// Preloaded returns the tasks compiled into the P-channel.
func (s *System) Preloaded() task.Set { return s.preloaded }

// Managers returns each device's virtualization manager, keyed by
// device name (for inspection, tracing and the ablation benchmarks).
func (s *System) Managers() map[string]*hypervisor.Manager {
	out := make(map[string]*hypervisor.Manager)
	s.Each(func(d *deviceShard) { out[d.dev] = d.mgr })
	return out
}

// deviceShard is one device's (virtualization manager, virtualization
// driver) pair on its own clock. Managers are fully independent — the
// R-channel, P-channel and response path of one device never touch
// another's state — so each may advance on its own virtual clock.
type deviceShard struct {
	dev string
	mgr *hypervisor.Manager
	// overhead is the request-translation cost charged as device
	// occupancy on every operation (the translator sits in front of
	// the I/O controller, so the controller cannot start the next
	// operation before translation completes).
	overhead slot.Time
}

// Devices returns the single device this shard owns.
func (d *deviceShard) Devices() []string { return []string{d.dev} }

// Submit forwards a released job through the para-virtual driver to
// the manager, charging the request-translation slots as device
// occupancy.
func (d *deviceShard) Submit(now slot.Time, j *task.Job) {
	j.Remaining += d.overhead
	d.mgr.Submit(now, j)
}

// Step advances the manager one slot of its local clock.
func (d *deviceShard) Step(now slot.Time) { d.mgr.Step(now) }

// NextWork is the manager's quiescence bound on its local clock.
func (d *deviceShard) NextWork(now slot.Time) slot.Time { return d.mgr.NextWork(now) }

// SkipTo bulk-accounts a fast-forwarded idle span.
func (d *deviceShard) SkipTo(from, to slot.Time) { d.mgr.SkipTo(from, to) }

// Pending visits jobs buffered inside the manager.
func (d *deviceShard) Pending(visit func(j *task.Job)) { d.mgr.PendingJobs(visit) }

// Dropped returns the jobs the manager lost (Stats.Dropped).
func (d *deviceShard) Dropped() int64 { return d.mgr.Stats().Dropped }

// Describe summarizes the built system: per-device table occupancy,
// channel split and scheduler configuration.
func (s *System) Describe() string {
	var b strings.Builder
	fmt.Fprintf(&b, "%s: %d VMs, %s G-Sched, %d pre-loaded / %d run-time tasks\n",
		s.name, s.cfg.VMs, s.cfg.Mode, len(s.preloaded), len(s.residual))
	s.Each(func(d *deviceShard) {
		tab := d.mgr.Config().Table
		fmt.Fprintf(&b, "  %-10s σ*: H=%d F=%d (P-channel %.1f%%), banks %d B, op overhead %d slots\n",
			d.dev, tab.Len(), tab.FreeCount(), 100*tab.Utilization(), d.mgr.BankBytes(), d.overhead)
	})
	return b.String()
}
