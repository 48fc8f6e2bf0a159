// Mode changes: hot-adding and retiring pre-defined tasks on a live
// manager. The paper loads the Time Slot Table once at system
// initialization (Sec. II-B); deployed systems switch operating modes,
// so the manager also supports allocating table slots for a new
// pre-defined task at run time (using only free slots — existing
// reservations are never disturbed) and releasing a retired one.
package hypervisor

import (
	"fmt"
	"slices"

	"ioguard/internal/slot"
	"ioguard/internal/task"
)

// LoadPre allocates table slots for spec at run time and registers it
// with the P-channel. The task's period must divide the table length.
// Existing reservations and R-channel state are untouched; on any
// failure the table is left unchanged.
func (m *Manager) LoadPre(spec *task.Sporadic, id slot.TaskID, offset slot.Time) error {
	if err := spec.Validate(); err != nil {
		return err
	}
	if _, dup := m.preIndex(id); dup {
		return fmt.Errorf("hypervisor: pre-defined task %d already loaded", id)
	}
	_, err := m.cfg.Table.AllocatePeriodic(slot.Requirement{
		ID:       id,
		Period:   spec.Period,
		WCET:     spec.WCET,
		Deadline: spec.Deadline,
		Offset:   offset,
	})
	if err != nil {
		return err
	}
	if err := m.Preload(spec, id, offset); err != nil {
		m.cfg.Table.Release(id)
		return err
	}
	return nil
}

// UnloadPre retires a pre-defined task: its pending jobs are dropped
// (and counted — a discarded job is a lost I/O operation, visible in
// Stats.Dropped and the owning VM's audit counters like any other
// loss), its registration removed, and its table slots freed for the
// R-channel.
func (m *Manager) UnloadPre(id slot.TaskID) error {
	i, ok := m.preIndex(id)
	if !ok {
		return fmt.Errorf("hypervisor: pre-defined task %d not loaded", id)
	}
	pt := m.pre[i]
	for {
		j, ok := pt.pending.Pop()
		if !ok {
			break
		}
		m.stats.Dropped++
		if vm := j.Task.VM; vm >= 0 && vm < len(m.vmStats) {
			m.vmStats[vm].Dropped++
		}
	}
	m.setBusy(pt)
	m.pre = slices.Delete(m.pre, i, i+1)
	if pt.relIdx >= 0 {
		m.rel.remove(pt)
	} else {
		k := slices.Index(m.unstarted, pt)
		m.unstarted = slices.Delete(m.unstarted, k, k+1)
	}
	m.cfg.Table.Release(id)
	return nil
}
