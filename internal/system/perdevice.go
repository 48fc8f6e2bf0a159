// The per-device shard set: the hypervisor of Sec. III is one
// (virtualization manager, virtualization driver) pair per connected
// I/O device, and BlueVisor and static partitioning keep one controller
// pipeline per device the same way. PerDevice is that container,
// written once for every such system.

package system

import (
	"fmt"
	"sort"

	"ioguard/internal/slot"
	"ioguard/internal/task"
)

// DeviceShard is a Shard that owns exactly one device and can report
// what it still buffers and what it dropped.
type DeviceShard interface {
	Shard
	// Pending visits jobs still buffered inside the shard.
	Pending(visit func(j *task.Job))
	// Dropped returns the count of jobs the shard rejected.
	Dropped() int64
}

// PerDevice is a system's set of single-device shards in sorted device
// order. Embedding it supplies System.Submit, System.Step,
// System.Pending, System.Dropped and ShardedSystem.Shards, so the
// monolithic path a hand-driven test calls is the shard path Run
// drives. It defines neither NextWork nor Devices: the system itself
// is never a shard.
type PerDevice[S DeviceShard] struct {
	devs   []string // devs[i] is the device shards[i] owns
	shards []S
}

// NewPerDevice returns the set of shards, which must each own one
// device and come in strictly increasing device order; it panics
// otherwise.
func NewPerDevice[S DeviceShard](shards []S) PerDevice[S] {
	devs := make([]string, len(shards))
	for i, sh := range shards {
		d := sh.Devices()
		if len(d) != 1 || (i > 0 && d[0] <= devs[i-1]) {
			panic(fmt.Sprintf("system: shard %d owns devices %q: want one device, in increasing order", i, d))
		}
		devs[i] = d[0]
	}
	return PerDevice[S]{devs: devs, shards: shards}
}

// Each visits the shards in device order.
func (p *PerDevice[S]) Each(visit func(sh S)) {
	for _, sh := range p.shards {
		visit(sh)
	}
}

// Submit routes the job to the shard that owns its task's device. It
// panics for a device no shard owns: Run rejects such a system before
// its first slot.
func (p *PerDevice[S]) Submit(now slot.Time, j *task.Job) {
	dev := j.Task.Device
	i := sort.SearchStrings(p.devs, dev)
	if i == len(p.devs) || p.devs[i] != dev {
		panic(fmt.Sprintf("system: no shard owns device %q", dev))
	}
	p.shards[i].Submit(now, j)
}

// Step advances every shard one slot, in device order: the order Run
// steps them in within a slot.
func (p *PerDevice[S]) Step(now slot.Time) {
	for _, sh := range p.shards {
		sh.Step(now)
	}
}

// Shards implements ShardedSystem: the shards in device order.
func (p *PerDevice[S]) Shards() []Shard {
	out := make([]Shard, len(p.shards))
	for i, sh := range p.shards {
		out[i] = sh
	}
	return out
}

// Pending visits every shard's buffered jobs, in device order.
func (p *PerDevice[S]) Pending(visit func(j *task.Job)) {
	for _, sh := range p.shards {
		sh.Pending(visit)
	}
}

// Dropped returns the jobs rejected across all shards.
func (p *PerDevice[S]) Dropped() int64 {
	var n int64
	for _, sh := range p.shards {
		n += sh.Dropped()
	}
	return n
}
