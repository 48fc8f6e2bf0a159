// Package systemtest holds the dense-stepping reference that tests and
// benchmarks check system.Run's fast-forward against. Production code
// does not import it.
package systemtest

import (
	"ioguard/internal/slot"
	"ioguard/internal/system"
)

// Dense returns a builder whose systems the run loop steps in every
// slot. Each shard of the built system answers NextWork(now) = now, so
// the loop wakes it at now+1 after every step, never skips a slot and
// never queries the inner shard's NextWork. A shard's state changes
// only in slots it is stepped in, and a skipped slot is one in which a
// step would have changed nothing, so a dense run produces results
// byte-identical to the plain builder's.
//
// Apply it outermost: the wrapped system exposes only the
// system.ShardedSystem methods, so a builder wrapper that type-asserts
// other methods on the system it builds must sit inside Dense.
func Dense(build system.Builder) system.Builder {
	return func(tr system.Trial, col *system.Collector) (system.System, error) {
		sys, err := build(tr, col)
		if err != nil {
			return nil, err
		}
		ss, ok := sys.(system.ShardedSystem)
		if !ok {
			return sys, nil // system.Run rejects it
		}
		return denseSystem{ss}, nil
	}
}

// denseSystem hands the run loop dense shards.
type denseSystem struct{ system.ShardedSystem }

func (d denseSystem) Shards() []system.Shard {
	shards := d.ShardedSystem.Shards()
	out := make([]system.Shard, len(shards))
	for i, sh := range shards {
		out[i] = denseShard{sh}
	}
	return out
}

// denseShard is busy in every slot. Embedding the Shard interface
// forwards only its methods.
type denseShard struct{ system.Shard }

func (denseShard) NextWork(now slot.Time) slot.Time { return now }
