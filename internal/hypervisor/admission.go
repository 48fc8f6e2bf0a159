// Online admission control for run-time I/O tasks — an extension of
// the paper's design: since the hypervisor already holds every VM's
// server parameters (ServerEDF mode), it can run the L-Sched test of
// Theorem 3/4 in the control plane whenever a VM registers a new
// run-time task, and refuse tasks that would break the VM's existing
// guarantees. Jobs of unregistered tasks are then rejected at submit
// time, so a faulty or malicious guest cannot sneak load past the
// analysis.
package hypervisor

import (
	"fmt"
	"sync/atomic"

	"ioguard/internal/analysis"
	"ioguard/internal/task"
)

// Admission is the per-manager admission-control state. It is created
// by EnableAdmission and consulted by Submit.
type admission struct {
	registered map[int]task.Set // vm → admitted task specs
	// rejected counts jobs refused at submit time. Atomic: counter
	// snapshots (RejectedAtAdmission, the server's stats endpoint) may
	// read it from another goroutine while a trial runs.
	rejected atomic.Int64
}

// EnableAdmission switches the manager to admission-controlled
// operation. Only valid in ServerEDF mode (the test needs the per-VM
// servers). After enabling, jobs are accepted only for registered
// tasks.
func (m *Manager) EnableAdmission() error {
	if m.cfg.Mode != ServerEDF {
		return fmt.Errorf("hypervisor: admission control requires ServerEDF mode")
	}
	if len(m.servers) == 0 {
		return fmt.Errorf("hypervisor: admission control requires configured servers")
	}
	// The per-task L-Sched tests are only meaningful if the servers
	// themselves hold on this manager's Time Slot Table (Theorem 1/2).
	servers := make([]task.Server, len(m.servers))
	for i, s := range m.servers {
		servers[i] = s.cfg
	}
	sb := analysis.NewSupplyBound(m.cfg.Table)
	res, err := analysis.TestGSched(sb, servers)
	if err != nil {
		return fmt.Errorf("hypervisor: admission control: %w", err)
	}
	if !res.Schedulable {
		return fmt.Errorf("hypervisor: admission control: servers not schedulable on the table (fails at window %d)", res.FailsAt)
	}
	m.adm = &admission{registered: make(map[int]task.Set)}
	return nil
}

// AdmissionEnabled reports whether admission control is active.
func (m *Manager) AdmissionEnabled() bool { return m.adm != nil }

// RejectedAtAdmission returns the count of jobs refused because their
// task was not registered.
func (m *Manager) RejectedAtAdmission() int64 {
	if m.adm == nil {
		return 0
	}
	return m.adm.rejected.Load()
}

// RegisterTask runs the Theorem 3/4 test for the task's VM with the
// task added to the VM's current set; on success the task is admitted
// and its jobs will be accepted.
func (m *Manager) RegisterTask(spec task.Sporadic) error {
	if m.adm == nil {
		return fmt.Errorf("hypervisor: admission control not enabled")
	}
	if err := spec.Validate(); err != nil {
		return err
	}
	if spec.VM < 0 || spec.VM >= m.cfg.VMs {
		return fmt.Errorf("hypervisor: vm %d out of range", spec.VM)
	}
	var server *task.Server
	for _, s := range m.servers {
		if s.cfg.VM == spec.VM {
			g := s.cfg
			server = &g
			break
		}
	}
	if server == nil {
		return fmt.Errorf("hypervisor: vm %d has no server", spec.VM)
	}
	for _, t := range m.adm.registered[spec.VM] {
		if t.ID == spec.ID {
			return fmt.Errorf("hypervisor: task %d already registered on vm %d", spec.ID, spec.VM)
		}
	}
	candidate := append(append(task.Set{}, m.adm.registered[spec.VM]...), spec)
	res, err := analysis.TestLSched(*server, candidate, spec.VM)
	if err != nil {
		return fmt.Errorf("hypervisor: admission of task %d: %w", spec.ID, err)
	}
	if !res.Schedulable {
		return fmt.Errorf("hypervisor: task %d rejected: vm %d would miss deadlines (fails at window %d)",
			spec.ID, spec.VM, res.FailsAt)
	}
	m.adm.registered[spec.VM] = candidate
	return nil
}

// UnregisterTask releases a task's reservation.
func (m *Manager) UnregisterTask(vm, id int) error {
	if m.adm == nil {
		return fmt.Errorf("hypervisor: admission control not enabled")
	}
	ts := m.adm.registered[vm]
	for i, t := range ts {
		if t.ID == id {
			m.adm.registered[vm] = append(ts[:i:i], ts[i+1:]...)
			return nil
		}
	}
	return fmt.Errorf("hypervisor: task %d not registered on vm %d", id, vm)
}

// admitted reports whether a job belongs to a registered task (always
// true when admission control is off).
func (m *Manager) admitted(j *task.Job) bool {
	if m.adm == nil {
		return true
	}
	for _, t := range m.adm.registered[j.Task.VM] {
		if t.ID == j.Task.ID {
			return true
		}
	}
	m.adm.rejected.Add(1)
	return false
}
