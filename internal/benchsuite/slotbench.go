// Slot-table benchmarks: the σ* representation change (dense array →
// run-length intervals) measured at the ARINC-653 stress cell, where
// the hyper-period reaches 4,000,000 slots but the partitions occupy
// only ~3% of them. The dense/interval pairs share one requirement
// set, so their ratio isolates the representation:
//
//   - SlotBuild compiles the partition set into a query-ready table
//     (the EDF sweep plus the first supply query, which forces the
//     free-prefix index — dense pays O(H) for both, interval O(R)).
//   - SlotNextFree and SlotFreeIn model a mode change followed by a
//     burst of supply queries: one slot toggles (invalidating the
//     index) and then slotQueriesPerCycle queries amortize the
//     rebuild. Dense rebuilds O(H) per cycle; interval O(R).
//
// RunAvionics is the end-to-end long-hyper-period trial: the full
// avionics workload through system.Run, dense stepping vs the
// fast-forward stack riding the interval table's skip spans.
package benchsuite

import (
	"testing"

	"ioguard/internal/slot"
	"ioguard/internal/system"
	"ioguard/internal/workload"
)

// AvionicsTableRequirements compiles the stress cell's table-eligible
// partitions into per-device σ* requirement sets, using the same
// offset stagger core applies to pre-loaded tasks. Both the slot
// benchmarks and the BENCH_sim.json footprint pairings build from
// these, so the numbers describe the same tables.
func AvionicsTableRequirements() map[string][]slot.Requirement {
	byDev := map[string][]slot.Requirement{}
	for _, e := range workload.AvionicsEntries() {
		i := len(byDev[e.Device])
		byDev[e.Device] = append(byDev[e.Device], slot.Requirement{
			ID:       slot.TaskID(i),
			Period:   e.Period,
			WCET:     e.WCET,
			Deadline: e.Period,
			Offset:   (slot.Time(i) * 613) % e.Period,
		})
	}
	return byDev
}

// slotBenchDevice is the device whose table the micro-benchmarks
// build: the AFDX backbone, the stress cell's busier channel.
const slotBenchDevice = "ethernet"

func slotBenchReqs(b *testing.B) []slot.Requirement {
	reqs := AvionicsTableRequirements()[slotBenchDevice]
	if len(reqs) == 0 {
		b.Fatalf("no avionics requirements for device %q", slotBenchDevice)
	}
	return reqs
}

// queryTable is the query surface the two encodings share.
type queryTable interface {
	Len() int
	Assign(at slot.Time, id slot.TaskID) error
	Clear(at slot.Time)
	NextFree(from slot.Time) slot.Time
	FreeIn(from, length slot.Time) slot.Time
}

func slotBenchTable(b *testing.B, dense bool) queryTable {
	reqs := slotBenchReqs(b)
	if dense {
		tab, _, err := slot.BuildDense(reqs)
		if err != nil {
			b.Fatal(err)
		}
		return tab
	}
	tab, _, err := slot.Build(reqs)
	if err != nil {
		b.Fatal(err)
	}
	return tab
}

func slotBuild(b *testing.B, dense bool) {
	reqs := slotBenchReqs(b)
	b.ReportAllocs()
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		var free slot.Time
		if dense {
			tab, _, err := slot.BuildDense(reqs)
			if err != nil {
				b.Fatal(err)
			}
			free = tab.NextFree(0) // force the query index the manager needs
		} else {
			tab, _, err := slot.Build(reqs)
			if err != nil {
				b.Fatal(err)
			}
			free = tab.NextFree(0)
		}
		if free == slot.Never {
			b.Fatal("stress-cell table has no free slots")
		}
	}
}

// slotQueriesPerCycle is how many supply queries follow each
// index-invalidating mutation in the query benchmarks — roughly the
// number of NextWork probes the manager issues per device
// between R-channel admissions.
const slotQueriesPerCycle = 64

// lcgNext advances the benchmark's deterministic position generator.
func lcgNext(x uint64) uint64 { return x*6364136223846793005 + 1442695040888963407 }

func slotNextFree(b *testing.B, dense bool) {
	tab := slotBenchTable(b, dense)
	h := uint64(tab.Len())
	at := tab.NextFree(0)
	x := uint64(1)
	var sink slot.Time
	b.ReportAllocs()
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		// A mode change touches one slot, dropping the query index…
		if err := tab.Assign(at, 9999); err != nil {
			b.Fatal(err)
		}
		tab.Clear(at)
		// …and the following query burst pays for its rebuild.
		for q := 0; q < slotQueriesPerCycle; q++ {
			x = lcgNext(x)
			sink += tab.NextFree(slot.Time(x % h))
		}
	}
	if sink == slot.Never {
		b.Fatal("unreachable sink check")
	}
}

func slotFreeIn(b *testing.B, dense bool) {
	tab := slotBenchTable(b, dense)
	h := uint64(tab.Len())
	at := tab.NextFree(0)
	x := uint64(1)
	var sink slot.Time
	b.ReportAllocs()
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		if err := tab.Assign(at, 9999); err != nil {
			b.Fatal(err)
		}
		tab.Clear(at)
		for q := 0; q < slotQueriesPerCycle; q++ {
			x = lcgNext(x)
			from := slot.Time(x % h)
			x = lcgNext(x)
			// Window lengths up to 2H exercise the whole-period
			// shortcut and the wrap-around tail.
			length := slot.Time(x%(2*h) + 1)
			sink += tab.FreeIn(from, length)
		}
	}
	if sink < 0 {
		b.Fatal("unreachable sink check")
	}
}

// avionicsHyperperiods sizes the RunAvionics horizon: one full
// repetition of the 4M-slot table.
const avionicsHyperperiods slot.Time = 1

// avionicsWorkload builds the stress-cell trial.
func avionicsWorkload() (system.Trial, error) {
	ts, err := workload.GenerateAvionics(workload.AvionicsConfig{VMs: 4, Seed: 1})
	if err != nil {
		return system.Trial{}, err
	}
	return system.Trial{
		VMs:     4,
		Tasks:   ts,
		Horizon: ts.Hyperperiod() * avionicsHyperperiods,
		Seed:    1,
	}, nil
}

// avionicsSlotsPerOp reports the RunAvionics horizon for slots/sec
// derivation.
func avionicsSlotsPerOp() int64 {
	tr, err := avionicsWorkload()
	if err != nil {
		return 0
	}
	return int64(tr.Horizon)
}
