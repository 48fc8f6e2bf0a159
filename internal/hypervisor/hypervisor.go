// Hypervisor: the top-level composition of Sec. III — one
// (virtualization manager, virtualization driver) pair per connected
// I/O device, stepped in lockstep by the global timer.
package hypervisor

import (
	"fmt"
	"sort"
	"sync/atomic"

	"ioguard/internal/slot"
	"ioguard/internal/task"
)

// Hypervisor aggregates per-device managers and routes submissions by
// the task's Device name. It implements sim.Stepper.
type Hypervisor struct {
	managers map[string]*Manager
	drivers  map[string]Driver
	names    []string // deterministic step order
	// dropped counts jobs for unknown devices. Atomic: Submit is the
	// fallback path of the sharded executor and may interleave with
	// concurrent Dropped snapshots (the server's stats endpoint).
	dropped atomic.Int64
}

// NewHypervisor returns an empty hypervisor.
func NewHypervisor() *Hypervisor {
	return &Hypervisor{
		managers: make(map[string]*Manager),
		drivers:  make(map[string]Driver),
	}
}

// Add attaches a manager/driver pair for the named device. The
// manager's path latencies must already reflect the driver's bounded
// translation costs (see Driver.RequestLatency/ResponseLatency).
func (h *Hypervisor) Add(device string, m *Manager, d Driver) error {
	if device == "" {
		return fmt.Errorf("hypervisor: empty device name")
	}
	if _, dup := h.managers[device]; dup {
		return fmt.Errorf("hypervisor: device %q already attached", device)
	}
	if err := d.Validate(); err != nil {
		return err
	}
	h.managers[device] = m
	h.drivers[device] = d
	h.names = append(h.names, device)
	sort.Strings(h.names)
	return nil
}

// Manager returns the manager attached for device.
func (h *Hypervisor) Manager(device string) (*Manager, error) {
	m, ok := h.managers[device]
	if !ok {
		return nil, fmt.Errorf("hypervisor: no manager for device %q", device)
	}
	return m, nil
}

// Driver returns the driver attached for device.
func (h *Hypervisor) Driver(device string) (Driver, error) {
	d, ok := h.drivers[device]
	if !ok {
		return Driver{}, fmt.Errorf("hypervisor: no driver for device %q", device)
	}
	return d, nil
}

// Devices returns the attached device names in step order.
func (h *Hypervisor) Devices() []string {
	return append([]string(nil), h.names...)
}

// Submit routes a run-time job to the manager of its task's device.
// Jobs for unknown devices are dropped and counted.
func (h *Hypervisor) Submit(now slot.Time, j *task.Job) {
	m, ok := h.managers[j.Task.Device]
	if !ok {
		h.dropped.Add(1)
		return
	}
	m.Submit(now, j)
}

// Dropped returns the number of jobs rejected for unknown devices.
func (h *Hypervisor) Dropped() int64 { return h.dropped.Load() }

// Step advances every manager one slot, in device-name order.
func (h *Hypervisor) Step(now slot.Time) {
	for _, n := range h.names {
		h.managers[n].Step(now)
	}
}

// Stats returns a per-device snapshot of the managers' counters.
func (h *Hypervisor) Stats() map[string]Stats {
	out := make(map[string]Stats, len(h.managers))
	for n, m := range h.managers {
		out[n] = m.Stats()
	}
	return out
}

// PendingJobs visits every buffered job across all managers.
func (h *Hypervisor) PendingJobs(visit func(j *task.Job)) {
	for _, n := range h.names {
		h.managers[n].PendingJobs(visit)
	}
}
