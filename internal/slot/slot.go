// Package slot provides the discrete time base of the I/O-GUARD
// reproduction: time-slot indices, greatest-common-divisor/least-common-
// multiple arithmetic on slots, and the Time Slot Table σ* that the
// P-channel of the virtualization manager consults every slot.
//
// All scheduling in the paper (Sec. III and IV of Jiang et al., DAC'21)
// happens at time-slot granularity: pre-defined I/O tasks own fixed
// slots of σ*, and the remaining free slots form the supply available
// to the R-channel's two-layer scheduler. The Table type models σ*
// exactly: a repeating schedule of length H in which every slot is
// either owned by one pre-defined task or free.
//
// The table is stored run-length encoded: a sorted list of maximal
// {start, owner} runs rather than one TaskID per slot. Memory and
// mutation cost scale with the number of ownership changes R, not with
// H, and point queries (Owner, IsFree, NextFree, FreeIn) are O(log R)
// binary searches. This is what makes ARINC-653-style workloads with
// hyper-periods in the millions of slots tractable: their tables are
// sparse (long partition periods, short windows), so R ≪ H. The
// fast-forward stack consumes the runs directly: NextFree and the
// owned runs turn idle spans into NextWork jumps without per-slot
// scans.
package slot

import (
	"errors"
	"fmt"
	"math"
	"sort"
	"strings"
	"unsafe"
)

// Time is a time-slot index (or a count of slots). One slot is the
// atomic unit of I/O execution and preemption in the hypervisor; the
// FPGA prototype derives it from the 100 MHz global timer.
type Time int64

// Never is a sentinel representing an unreachable point in time.
const Never Time = math.MaxInt64

// TaskID identifies a pre-defined I/O task loaded into the P-channel
// memory banks. IDs are small non-negative integers assigned at load
// time.
type TaskID int32

// Free marks a slot of the time slot table that is not owned by any
// pre-defined task and is therefore available to the R-channel.
const Free TaskID = -1

// GCD returns the greatest common divisor of a and b. GCD(0, b) = b.
func GCD(a, b Time) Time {
	if a < 0 {
		a = -a
	}
	if b < 0 {
		b = -b
	}
	for b != 0 {
		a, b = b, a%b
	}
	return a
}

// LCM returns the least common multiple of a and b, or 0 when either
// is 0. It saturates at Never on overflow.
func LCM(a, b Time) Time {
	if a == 0 || b == 0 {
		return 0
	}
	if a < 0 {
		a = -a
	}
	if b < 0 {
		b = -b
	}
	g := GCD(a, b)
	q := a / g
	if q > Never/b {
		return Never
	}
	return q * b
}

// LCMAll returns the least common multiple of all values, or 0 when
// the list is empty.
func LCMAll(vs ...Time) Time {
	var l Time
	for i, v := range vs {
		if i == 0 {
			l = v
			continue
		}
		l = LCM(l, v)
		if l == Never {
			return Never
		}
	}
	return l
}

// run is one maximal ownership interval of σ*: slots [start, next
// run's start) all belong to owner. The run length is implicit in the
// successor's start (the last run extends to H).
type run struct {
	start Time
	owner TaskID
}

// Table is the Time Slot Table σ*: a repeating schedule of length H
// whose entries record, for every slot of one hyper-period, which
// pre-defined task (if any) owns the slot. The infinite table σ used
// by the analysis in Sec. IV is the infinite repetition of σ*.
//
// Invariants (maintained by every mutator): for H > 0 the run list is
// non-empty, runs[0].start == 0, starts strictly increase, and
// adjacent runs have different owners (runs are maximal).
//
// The zero value is an empty table of length 0; use NewTable.
type Table struct {
	h    Time
	runs []run
	free int

	// Lazily built index, dropped on any mutation: freePrefix[i] is
	// the number of free slots covered by runs[0..i). It serves the
	// O(log R) window counting (FreeIn) and next-free-run search
	// (NextFree) the fast-forwarding simulation loop issues per
	// skipped span.
	freePrefix []Time
}

// Run is one maximal ownership interval of σ* as exposed by the
// iteration API: Length slots starting at Start all belong to Owner
// (Free for an idle run). Runs partition [0, H).
type Run struct {
	Start  Time
	Length Time
	Owner  TaskID
}

// NewTable returns an all-free table with hyper-period h.
func NewTable(h int) *Table {
	if h < 0 {
		h = 0
	}
	t := &Table{h: Time(h), free: h}
	if h > 0 {
		t.runs = []run{{0, Free}}
	}
	return t
}

// runEnd returns the first slot after run i.
func (t *Table) runEnd(i int) Time {
	if i+1 < len(t.runs) {
		return t.runs[i+1].start
	}
	return t.h
}

// findRun returns the index of the run containing slot idx ∈ [0, H).
func (t *Table) findRun(idx Time) int {
	return sort.Search(len(t.runs), func(k int) bool { return t.runs[k].start > idx }) - 1
}

// ensureIndex (re)builds the free-prefix index if a mutation dropped it.
func (t *Table) ensureIndex() {
	if t.freePrefix != nil || len(t.runs) == 0 {
		return
	}
	t.freePrefix = make([]Time, len(t.runs)+1)
	for i, rn := range t.runs {
		t.freePrefix[i+1] = t.freePrefix[i]
		if rn.owner == Free {
			t.freePrefix[i+1] += t.runEnd(i) - rn.start
		}
	}
}

// freeBefore returns the number of free slots in [0, x), 0 ≤ x ≤ H.
func (t *Table) freeBefore(x Time) Time {
	if x <= 0 {
		return 0
	}
	if x >= t.h {
		return Time(t.free)
	}
	t.ensureIndex()
	i := t.findRun(x)
	n := t.freePrefix[i]
	if t.runs[i].owner == Free {
		n += x - t.runs[i].start
	}
	return n
}

// Len returns H, the hyper-period (total number of slots in σ*).
func (t *Table) Len() int { return int(t.h) }

// FreeCount returns F, the number of free slots in σ*.
func (t *Table) FreeCount() int { return t.free }

// RunCount returns R, the number of maximal ownership runs in σ*. The
// table's memory and mutation costs scale with R, not H.
func (t *Table) RunCount() int { return len(t.runs) }

// CheckInvariants audits the table's structural invariants: runs tile
// [0, H) starting at 0 with strictly increasing starts, adjacent runs
// have distinct owners (maximality), the cached free count matches the
// free runs, and any built free-prefix index agrees with them. A
// healthy table always returns nil; harnesses that mutate the table at
// run time (LoadPre/UnloadPre mode changes) call this between
// operations to catch corruption at the operation that caused it.
func (t *Table) CheckInvariants() error {
	if t.h == 0 {
		if len(t.runs) != 0 {
			return fmt.Errorf("slot: empty table holds %d runs", len(t.runs))
		}
		if t.free != 0 {
			return fmt.Errorf("slot: empty table reports %d free slots", t.free)
		}
		return nil
	}
	if len(t.runs) == 0 {
		return fmt.Errorf("slot: table of length %d has no runs", t.h)
	}
	if t.runs[0].start != 0 {
		return fmt.Errorf("slot: first run starts at %d, want 0", t.runs[0].start)
	}
	var free Time
	for i, rn := range t.runs {
		end := t.runEnd(i)
		if end <= rn.start || rn.start < 0 || end > t.h {
			return fmt.Errorf("slot: run %d spans [%d, %d) outside [0, %d)", i, rn.start, end, t.h)
		}
		if i > 0 && rn.owner == t.runs[i-1].owner {
			return fmt.Errorf("slot: runs %d and %d share owner %d (not maximal)", i-1, i, rn.owner)
		}
		if rn.owner == Free {
			free += end - rn.start
		}
	}
	if int(free) != t.free {
		return fmt.Errorf("slot: cached free count %d, free runs sum %d", t.free, free)
	}
	if t.freePrefix != nil {
		if len(t.freePrefix) != len(t.runs)+1 {
			return fmt.Errorf("slot: free-prefix index has %d entries for %d runs", len(t.freePrefix), len(t.runs))
		}
		if t.freePrefix[len(t.runs)] != free {
			return fmt.Errorf("slot: free-prefix total %d, free runs sum %d", t.freePrefix[len(t.runs)], free)
		}
	}
	return nil
}

// Utilization returns the fraction of σ* consumed by pre-defined
// tasks, i.e. (H-F)/H. It is 0 for an empty table.
func (t *Table) Utilization() float64 {
	if t.h == 0 {
		return 0
	}
	return float64(int(t.h)-t.free) / float64(t.h)
}

// index maps an arbitrary (possibly ≥H) slot time onto σ*.
func (t *Table) index(at Time) int {
	i := at % t.h
	if i < 0 {
		i += t.h
	}
	return int(i)
}

// Owner returns the pre-defined task owning slot at (mod H), or Free.
func (t *Table) Owner(at Time) TaskID {
	if t.h == 0 {
		return Free
	}
	return t.runs[t.findRun(Time(t.index(at)))].owner
}

// IsFree reports whether slot at (mod H) is available to the R-channel.
func (t *Table) IsFree(at Time) bool { return t.Owner(at) == Free }

// splice replaces runs [lo, hi) with the given pieces in place.
func (t *Table) splice(lo, hi int, pieces []run) {
	old := len(t.runs)
	delta := len(pieces) - (hi - lo)
	if delta > 0 {
		t.runs = append(t.runs, make([]run, delta)...)
	}
	copy(t.runs[lo+len(pieces):old+delta], t.runs[hi:old])
	copy(t.runs[lo:], pieces)
	if delta < 0 {
		t.runs = t.runs[:old+delta]
	}
}

// setSpan hands slots [lo, hi) — which must lie inside a single run
// whose owner differs from the new one — to owner, splitting the run
// and re-merging with equal-owner neighbours to keep runs maximal.
func (t *Table) setSpan(lo, hi Time, owner TaskID) {
	r := t.findRun(lo)
	s, e := t.runs[r].start, t.runEnd(r)
	cur := t.runs[r].owner
	var buf [3]run
	pieces := buf[:0]
	if lo > s {
		pieces = append(pieces, run{s, cur})
	}
	pieces = append(pieces, run{lo, owner})
	if hi < e {
		pieces = append(pieces, run{hi, cur})
	}
	rlo, rhi := r, r+1
	if lo == s && r > 0 && t.runs[r-1].owner == owner {
		rlo = r - 1
		pieces[0].start = t.runs[rlo].start
	}
	if hi == e && r+1 < len(t.runs) && t.runs[r+1].owner == owner {
		rhi = r + 2
	}
	t.splice(rlo, rhi, pieces)
	t.freePrefix = nil
}

// Assign gives slot at (mod H) to task id. It fails if the slot is
// already owned or id is invalid.
func (t *Table) Assign(at Time, id TaskID) error {
	if id < 0 {
		return fmt.Errorf("slot: invalid task id %d", id)
	}
	if t.h == 0 {
		return errors.New("slot: assign on empty table")
	}
	i := Time(t.index(at))
	if o := t.runs[t.findRun(i)].owner; o != Free {
		return fmt.Errorf("slot: slot %d already owned by task %d", i, o)
	}
	t.setSpan(i, i+1, id)
	t.free--
	return nil
}

// Clear releases slot at (mod H) back to the free pool.
func (t *Table) Clear(at Time) {
	if t.h == 0 {
		return
	}
	i := Time(t.index(at))
	if t.runs[t.findRun(i)].owner != Free {
		t.setSpan(i, i+1, Free)
		t.free++
	}
}

// Clone returns a deep copy of the table.
func (t *Table) Clone() *Table {
	return &Table{h: t.h, runs: append([]run(nil), t.runs...), free: t.free}
}

// Runs visits every maximal ownership run of σ* in slot order,
// stopping early when visit returns false. The runs partition [0, H).
func (t *Table) Runs(visit func(Run) bool) {
	for i, rn := range t.runs {
		if !visit(Run{Start: rn.start, Length: t.runEnd(i) - rn.start, Owner: rn.owner}) {
			return
		}
	}
}

// FreeRuns visits every maximal free run of σ* in slot order, stopping
// early when visit returns false. Each run is a span the R-channel may
// consume whole — the fast-forward engine jumps these directly.
func (t *Table) FreeRuns(visit func(Run) bool) {
	for i, rn := range t.runs {
		if rn.owner != Free {
			continue
		}
		if !visit(Run{Start: rn.start, Length: t.runEnd(i) - rn.start, Owner: Free}) {
			return
		}
	}
}

// OwnedRuns returns the maximal runs owned by id, in slot order. The
// hypervisor's P-channel walks these instead of per-slot owned lists.
func (t *Table) OwnedRuns(id TaskID) []Run {
	var out []Run
	for i, rn := range t.runs {
		if rn.owner == id {
			out = append(out, Run{Start: rn.start, Length: t.runEnd(i) - rn.start, Owner: id})
		}
	}
	return out
}

// OwnedBy returns the indices (0 ≤ i < H) of every slot owned by id,
// in increasing order. Prefer OwnedRuns: this expands the runs to one
// entry per slot.
func (t *Table) OwnedBy(id TaskID) []Time {
	var out []Time
	for i, rn := range t.runs {
		if rn.owner == id {
			for s, e := rn.start, t.runEnd(i); s < e; s++ {
				out = append(out, s)
			}
		}
	}
	return out
}

// FreeSlots returns the indices (0 ≤ i < H) of all free slots, in
// increasing order. Prefer FreeRuns: this expands the runs to one
// entry per slot.
func (t *Table) FreeSlots() []Time {
	out := make([]Time, 0, t.free)
	for i, rn := range t.runs {
		if rn.owner == Free {
			for s, e := rn.start, t.runEnd(i); s < e; s++ {
				out = append(out, s)
			}
		}
	}
	return out
}

// MemoryFootprint returns the heap bytes backing the table (run list
// plus query index), the quantity internal/footprint compares against
// the dense per-slot encoding. The index is built first so the figure
// reflects a query-ready table.
func (t *Table) MemoryFootprint() int {
	t.ensureIndex()
	return cap(t.runs)*int(unsafe.Sizeof(run{})) + cap(t.freePrefix)*int(unsafe.Sizeof(Time(0)))
}

// NextFree returns the first slot ≥ from that is free in σ, or Never
// if the table has no free slots at all.
func (t *Table) NextFree(from Time) Time {
	if t.free == 0 || t.h == 0 {
		return Never
	}
	idx := Time(t.index(from))
	r := t.findRun(idx)
	if t.runs[r].owner == Free {
		return from
	}
	t.ensureIndex()
	// First free run after r: the first boundary where the free-slot
	// prefix grows past its value at the end of run r.
	base := t.freePrefix[r+1]
	n := len(t.runs)
	j := r + 1 + sort.Search(n-r-1, func(k int) bool { return t.freePrefix[r+2+k] > base })
	if j < n {
		return from + (t.runs[j].start - idx)
	}
	// Wrap onto the next repetition: the first free run from slot 0.
	j0 := sort.Search(n, func(k int) bool { return t.freePrefix[k+1] > 0 })
	return from + (t.h - idx) + t.runs[j0].start
}

// FreeIn returns the number of free slots in the half-open window
// [from, from+length) of the infinite table σ.
func (t *Table) FreeIn(from, length Time) Time {
	if length <= 0 || t.h == 0 {
		return 0
	}
	full := length / t.h
	n := full * Time(t.free)
	lo := Time(t.index(from))
	rem := length % t.h
	if hi := lo + rem; hi <= t.h {
		n += t.freeBefore(hi) - t.freeBefore(lo)
	} else {
		n += Time(t.free) - t.freeBefore(lo)
		n += t.freeBefore(hi - t.h)
	}
	return n
}

// String renders σ* as a compact single-line schedule, e.g.
// "|0|0|.|1|.|" where digits are task IDs and '.' is a free slot.
func (t *Table) String() string {
	var b strings.Builder
	b.WriteByte('|')
	for i, rn := range t.runs {
		for s, e := rn.start, t.runEnd(i); s < e; s++ {
			if rn.owner == Free {
				b.WriteByte('.')
			} else {
				fmt.Fprintf(&b, "%d", rn.owner)
			}
			b.WriteByte('|')
		}
	}
	return b.String()
}

// Requirement describes one pre-defined (periodic) I/O task to be
// compiled into σ*: it releases a job every Period slots starting at
// Offset, each job needs WCET slots and must finish within Deadline
// slots of its release. Deadline ≤ Period (constrained deadlines).
type Requirement struct {
	ID       TaskID
	Period   Time
	WCET     Time
	Deadline Time
	Offset   Time
}

// Validate reports whether the requirement is internally consistent.
func (r Requirement) Validate() error {
	switch {
	case r.ID < 0:
		return fmt.Errorf("slot: requirement %d: negative id", r.ID)
	case r.Period <= 0:
		return fmt.Errorf("slot: requirement %d: period %d ≤ 0", r.ID, r.Period)
	case r.WCET <= 0:
		return fmt.Errorf("slot: requirement %d: wcet %d ≤ 0", r.ID, r.WCET)
	case r.Deadline <= 0:
		return fmt.Errorf("slot: requirement %d: deadline %d ≤ 0", r.ID, r.Deadline)
	case r.Deadline > r.Period:
		return fmt.Errorf("slot: requirement %d: deadline %d > period %d (constrained deadlines required)", r.ID, r.Deadline, r.Period)
	case r.WCET > r.Deadline:
		return fmt.Errorf("slot: requirement %d: wcet %d > deadline %d", r.ID, r.WCET, r.Deadline)
	case r.Offset < 0 || r.Offset >= r.Period:
		return fmt.Errorf("slot: requirement %d: offset %d outside [0,%d)", r.ID, r.Offset, r.Period)
	}
	return nil
}

// Placement records the slots granted to one job of a pre-defined
// task during table construction.
type Placement struct {
	Task     TaskID
	Release  Time
	Deadline Time
	Slots    []Time
}

// ErrOverload is returned by Build when the pre-defined tasks cannot
// all meet their deadlines within one hyper-period.
var ErrOverload = errors.New("slot: pre-defined task set is unschedulable")

// buildCap bounds the hyper-period Build accepts. The run-length table
// no longer ties memory to H, but the EDF sweep still walks every
// occupied slot, so an upper bound keeps pathological inputs from
// running unbounded.
const buildCap = 1 << 26

// buildJob is one job of the hyper-period during table construction.
type buildJob struct {
	req       Requirement
	release   Time
	deadline  Time
	remaining Time
	placed    []Time
	idx       int // position in deadline-sorted order: EDF tie-break
}

// expandJobs validates the requirements, computes H = lcm(periods) and
// expands every job of one hyper-period, returned both deadline-sorted
// (jobs) and release-sorted (byRelease).
func expandJobs(reqs []Requirement) (Time, []*buildJob, []*buildJob, error) {
	ids := map[TaskID]bool{}
	periods := make([]Time, 0, len(reqs))
	for _, r := range reqs {
		if err := r.Validate(); err != nil {
			return 0, nil, nil, err
		}
		if ids[r.ID] {
			return 0, nil, nil, fmt.Errorf("slot: duplicate task id %d", r.ID)
		}
		ids[r.ID] = true
		periods = append(periods, r.Period)
	}
	h := LCMAll(periods...)
	if h == Never || h > buildCap {
		return 0, nil, nil, fmt.Errorf("slot: hyper-period %d too large", h)
	}
	var jobs []*buildJob
	for _, r := range reqs {
		for rel := r.Offset; rel < h; rel += r.Period {
			jobs = append(jobs, &buildJob{
				req:       r,
				release:   rel,
				deadline:  rel + r.Deadline,
				remaining: r.WCET,
			})
		}
	}
	sort.Slice(jobs, func(i, j int) bool {
		if jobs[i].deadline != jobs[j].deadline {
			return jobs[i].deadline < jobs[j].deadline
		}
		return jobs[i].release < jobs[j].release
	})
	for i, j := range jobs {
		j.idx = i
	}
	byRelease := append([]*buildJob(nil), jobs...)
	sort.Slice(byRelease, func(a, b int) bool { return byRelease[a].release < byRelease[b].release })
	return h, jobs, byRelease, nil
}

// edfSweep runs the offline preemptive EDF sweep over 2H slots,
// keeping the released unfinished jobs in a min-heap on (deadline,
// sorted position) — the same pick order as a linear scan of the
// deadline-sorted slice. Jobs whose deadline crosses the hyper-period
// boundary wrap onto the (identical) next repetition, so the sweep
// covers 2H slots but only places within [release, deadline);
// stretches with no released work are jumped. Placement goes through
// the isFree/assign callbacks so both table representations share the
// sweep.
func edfSweep(h Time, byRelease []*buildJob, isFree func(Time) bool, assign func(Time, TaskID) error) error {
	less := func(a, b *buildJob) bool {
		if a.deadline != b.deadline {
			return a.deadline < b.deadline
		}
		return a.idx < b.idx
	}
	var ready []*buildJob
	push := func(j *buildJob) {
		ready = append(ready, j)
		for i := len(ready) - 1; i > 0; {
			p := (i - 1) / 2
			if !less(ready[i], ready[p]) {
				break
			}
			ready[i], ready[p] = ready[p], ready[i]
			i = p
		}
	}
	pop := func() {
		n := len(ready) - 1
		ready[0] = ready[n]
		ready[n] = nil
		ready = ready[:n]
		for i := 0; ; {
			l, r := 2*i+1, 2*i+2
			m := i
			if l < n && less(ready[l], ready[m]) {
				m = l
			}
			if r < n && less(ready[r], ready[m]) {
				m = r
			}
			if m == i {
				break
			}
			ready[i], ready[m] = ready[m], ready[i]
			i = m
		}
	}
	ri := 0
	for now := Time(0); now < 2*h; {
		for ri < len(byRelease) && byRelease[ri].release <= now {
			push(byRelease[ri])
			ri++
		}
		// An expired head can never be placed again; it surfaces as
		// ErrOverload in collectPlacements, exactly as under the
		// per-slot scan.
		for len(ready) > 0 && ready[0].deadline <= now {
			pop()
		}
		if len(ready) == 0 {
			if ri >= len(byRelease) {
				break
			}
			now = byRelease[ri].release
			continue
		}
		if isFree(now) { // else: taken by a wrapped earlier placement
			pick := ready[0]
			if err := assign(now, pick.req.ID); err != nil {
				return err
			}
			pick.placed = append(pick.placed, now%h)
			pick.remaining--
			if pick.remaining == 0 {
				pop()
			}
		}
		now++
	}
	return nil
}

// collectPlacements turns the swept jobs into the Placement report,
// failing with ErrOverload if any job was left short.
func collectPlacements(jobs []*buildJob) ([]Placement, error) {
	placements := make([]Placement, 0, len(jobs))
	for _, j := range jobs {
		if j.remaining > 0 {
			return nil, fmt.Errorf("%w: task %d job released at %d misses deadline %d",
				ErrOverload, j.req.ID, j.release, j.deadline)
		}
		placements = append(placements, Placement{
			Task:     j.req.ID,
			Release:  j.release,
			Deadline: j.deadline,
			Slots:    j.placed,
		})
	}
	sort.Slice(placements, func(i, j int) bool {
		if placements[i].Release != placements[j].Release {
			return placements[i].Release < placements[j].Release
		}
		return placements[i].Task < placements[j].Task
	})
	return placements, nil
}

// Build compiles a set of pre-defined task requirements into a Time
// Slot Table σ* of length H = lcm(periods), using offline preemptive
// EDF to place every job of the hyper-period. This mirrors the
// "loaded during system initialization" step of Sec. II-B: the
// resulting table fixes, before run time, exactly which slots each
// pre-defined task executes in.
//
// The first pass of the sweep (now < H) advances strictly forward, so
// Build emits the run list append-only and never allocates H-sized
// state; only the rare wrapped placements (now ≥ H) go through the
// general split/merge path on the finalized table.
//
// Build fails with ErrOverload if some job cannot meet its deadline.
func Build(reqs []Requirement) (*Table, []Placement, error) {
	if len(reqs) == 0 {
		return NewTable(0), nil, nil
	}
	h, jobs, byRelease, err := expandJobs(reqs)
	if err != nil {
		return nil, nil, err
	}
	tab := &Table{h: h}
	var acc []run
	var filled, placed Time
	finalized := false
	appendRun := func(start Time, owner TaskID) {
		if len(acc) > 0 && acc[len(acc)-1].owner == owner {
			return
		}
		acc = append(acc, run{start, owner})
	}
	finalize := func() {
		if finalized {
			return
		}
		finalized = true
		if filled < h {
			appendRun(filled, Free)
		}
		tab.runs = acc
		tab.free = int(h - placed)
	}
	isFree := func(now Time) bool {
		if now < h {
			return true // ahead of the append frontier: untouched
		}
		finalize()
		return tab.IsFree(now)
	}
	assign := func(now Time, id TaskID) error {
		if now < h {
			if now > filled {
				appendRun(filled, Free)
			}
			appendRun(now, id)
			filled = now + 1
			placed++
			return nil
		}
		finalize()
		return tab.Assign(now, id)
	}
	if err := edfSweep(h, byRelease, isFree, assign); err != nil {
		return nil, nil, err
	}
	finalize()
	placements, err := collectPlacements(jobs)
	if err != nil {
		return nil, nil, err
	}
	return tab, placements, nil
}
