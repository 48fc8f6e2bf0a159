// Package task models the I/O workload of I/O-GUARD (Sec. IV of
// Jiang et al., DAC'21): sporadic I/O tasks τk = (Tk, Ck, Dk) that
// release jobs with minimum separation Tk, per-job execution budget Ck
// and constrained relative deadline Dk ≤ Tk; and the periodic server
// tasks Γi = (Πi, Θi) that the global scheduler uses to guarantee each
// VM i at least Θi free time slots in every Πi slots.
package task

import (
	"fmt"
	"sort"

	"ioguard/internal/slot"
)

// Kind classifies a task for the evaluation metrics of Sec. V: the
// success ratio counts deadline misses of safety and function tasks,
// while synthetic tasks exist only to raise the target utilization.
type Kind uint8

// Task kinds, mirroring the three task-set categories of Sec. V-C.
const (
	Safety    Kind = iota // automotive safety task (Renesas use-case set)
	Function              // automotive function task (EEMBC set)
	Synthetic             // synthetic background load
)

// String returns the lowercase name of the kind.
func (k Kind) String() string {
	switch k {
	case Safety:
		return "safety"
	case Function:
		return "function"
	case Synthetic:
		return "synthetic"
	default:
		return fmt.Sprintf("kind(%d)", uint8(k))
	}
}

// Sporadic is one I/O task τk = (Tk, Ck, Dk). The zero value is not a
// valid task; populate at least Period, WCET and Deadline.
type Sporadic struct {
	ID       int       // unique within a task set
	Name     string    // human-readable, e.g. "crc32" or "fft"
	VM       int       // owning virtual machine (index ≥ 0)
	Kind     Kind      // safety / function / synthetic
	Period   slot.Time // Tk: minimum inter-release separation, in slots
	WCET     slot.Time // Ck: per-job execution budget, in slots
	Deadline slot.Time // Dk: relative deadline, Ck ≤ Dk ≤ Tk
	Device   string    // name of the target I/O device
	OpBytes  int       // payload bytes moved per job (throughput accounting)
	Jitter   slot.Time // maximum extra release delay beyond the minimum separation
}

// Utilization returns Ck/Tk.
func (t Sporadic) Utilization() float64 {
	if t.Period == 0 {
		return 0
	}
	return float64(t.WCET) / float64(t.Period)
}

// Validate reports whether the task parameters satisfy the model of
// Sec. IV (positive parameters, constrained deadline).
func (t Sporadic) Validate() error {
	switch {
	case t.Period <= 0:
		return fmt.Errorf("task %d (%s): period %d ≤ 0", t.ID, t.Name, t.Period)
	case t.WCET <= 0:
		return fmt.Errorf("task %d (%s): wcet %d ≤ 0", t.ID, t.Name, t.WCET)
	case t.Deadline < t.WCET:
		return fmt.Errorf("task %d (%s): deadline %d < wcet %d", t.ID, t.Name, t.Deadline, t.WCET)
	case t.Deadline > t.Period:
		return fmt.Errorf("task %d (%s): deadline %d > period %d (constrained deadlines required)", t.ID, t.Name, t.Deadline, t.Period)
	case t.VM < 0:
		return fmt.Errorf("task %d (%s): negative VM %d", t.ID, t.Name, t.VM)
	case t.Jitter < 0:
		return fmt.Errorf("task %d (%s): negative jitter %d", t.ID, t.Name, t.Jitter)
	}
	return nil
}

// String renders the task in (T,C,D) notation.
func (t Sporadic) String() string {
	return fmt.Sprintf("τ%d[%s vm%d (T=%d,C=%d,D=%d)]", t.ID, t.Name, t.VM, t.Period, t.WCET, t.Deadline)
}

// Server is one periodic server task Γi = (Πi, Θi): VM i receives at
// least Θi free time slots in every Πi slots (periodic resource model,
// Shin & Lee 2003, as adopted in Sec. IV-B).
type Server struct {
	VM     int
	Period slot.Time // Πi
	Budget slot.Time // Θi
}

// Utilization returns Θi/Πi, the bandwidth fraction reserved for the VM.
func (s Server) Utilization() float64 {
	if s.Period == 0 {
		return 0
	}
	return float64(s.Budget) / float64(s.Period)
}

// Validate reports whether 1 ≤ Θi ≤ Πi.
func (s Server) Validate() error {
	switch {
	case s.Period <= 0:
		return fmt.Errorf("server vm%d: period %d ≤ 0", s.VM, s.Period)
	case s.Budget <= 0:
		return fmt.Errorf("server vm%d: budget %d ≤ 0", s.VM, s.Budget)
	case s.Budget > s.Period:
		return fmt.Errorf("server vm%d: budget %d > period %d", s.VM, s.Budget, s.Period)
	case s.VM < 0:
		return fmt.Errorf("server vm%d: negative VM index", s.VM)
	}
	return nil
}

// String renders the server in Γ=(Π,Θ) notation.
func (s Server) String() string {
	return fmt.Sprintf("Γ%d(Π=%d,Θ=%d)", s.VM, s.Period, s.Budget)
}

// Set is a collection of sporadic tasks, typically the workload of one
// VM or of the whole system.
type Set []Sporadic

// Utilization returns ΣCk/Tk over the set.
func (s Set) Utilization() float64 {
	var u float64
	for _, t := range s {
		u += t.Utilization()
	}
	return u
}

// Hyperperiod returns the least common multiple of all periods, or 0
// for an empty set.
func (s Set) Hyperperiod() slot.Time {
	ps := make([]slot.Time, len(s))
	for i, t := range s {
		ps[i] = t.Period
	}
	return slot.LCMAll(ps...)
}

// Horizon returns the length of n hyper-periods in slots. It rejects
// a non-positive n and a product that overflows slot.Time (a
// hyper-period LCMAll already saturated at slot.Never included), so a
// user-supplied count can never wrap into a short, wrong horizon.
func (s Set) Horizon(n int) (slot.Time, error) {
	if n <= 0 {
		return 0, fmt.Errorf("non-positive horizon: %d hyper-periods", n)
	}
	h := s.Hyperperiod()
	if h > 0 && slot.Time(n) > (slot.Never-1)/h {
		return 0, fmt.Errorf("horizon overflow: %d hyper-periods of %d slots exceed the slot counter", n, h)
	}
	return h * slot.Time(n), nil
}

// Validate checks every task and the uniqueness of IDs.
func (s Set) Validate() error {
	seen := make(map[int]bool, len(s))
	for _, t := range s {
		if err := t.Validate(); err != nil {
			return err
		}
		if seen[t.ID] {
			return fmt.Errorf("duplicate task id %d", t.ID)
		}
		seen[t.ID] = true
	}
	return nil
}

// ByVM partitions the set into the per-VM task sets 𝒯i used by the
// local schedulers. The returned map contains only VMs that own at
// least one task.
func (s Set) ByVM() map[int]Set {
	m := make(map[int]Set)
	for _, t := range s {
		m[t.VM] = append(m[t.VM], t)
	}
	return m
}

// VMs returns the sorted list of VM indices present in the set.
func (s Set) VMs() []int {
	seen := make(map[int]bool)
	for _, t := range s {
		seen[t.VM] = true
	}
	out := make([]int, 0, len(seen))
	for vm := range seen {
		out = append(out, vm)
	}
	sort.Ints(out)
	return out
}

// Filter returns the tasks for which keep returns true.
func (s Set) Filter(keep func(Sporadic) bool) Set {
	var out Set
	for _, t := range s {
		if keep(t) {
			out = append(out, t)
		}
	}
	return out
}

// MaxLaxity returns max(Tk - Dk) over the set, the quantity used by
// the pseudo-polynomial bound of Theorem 4. It returns 0 for an empty
// set (constrained deadlines make every Tk-Dk ≥ 0).
func (s Set) MaxLaxity() slot.Time {
	var m slot.Time
	for _, t := range s {
		if l := t.Period - t.Deadline; l > m {
			m = l
		}
	}
	return m
}

// Job is one released instance of a sporadic task, the unit the
// R-channel schedules: it occupies priority-queue slots with its
// parameters, is mapped (one operation at a time) into a shadow
// register by the local scheduler, and executes preemptively on the
// free time slots granted by the global scheduler.
type Job struct {
	Task      *Sporadic
	Seq       int       // job index within its task (0-based)
	Release   slot.Time // absolute release slot
	Deadline  slot.Time // absolute deadline slot (Release + Task.Deadline)
	Remaining slot.Time // slots of execution still required
	Finish    slot.Time // absolute completion slot; Never until done
}

// NewJob releases the seq-th job of t at the given absolute slot.
func NewJob(t *Sporadic, seq int, release slot.Time) *Job {
	return &Job{
		Task:      t,
		Seq:       seq,
		Release:   release,
		Deadline:  release + t.Deadline,
		Remaining: t.WCET,
		Finish:    slot.Never,
	}
}

// Done reports whether the job has completed execution.
func (j *Job) Done() bool { return j.Remaining == 0 }

// Missed reports whether the job missed its deadline: either it
// finished after the deadline, or time now has passed the deadline
// while work remains.
func (j *Job) Missed(now slot.Time) bool {
	if j.Done() {
		return j.Finish > j.Deadline
	}
	return now > j.Deadline
}

// ResponseTime returns Finish-Release for a completed job and Never
// otherwise.
func (j *Job) ResponseTime() slot.Time {
	if !j.Done() {
		return slot.Never
	}
	return j.Finish - j.Release
}

// Tick consumes one slot of execution at time now, recording the
// finish time when the job completes. Calling Tick on a finished job
// panics: the executor must never grant slots to completed jobs.
func (j *Job) Tick(now slot.Time) {
	if j.Remaining <= 0 {
		panic(fmt.Sprintf("task: Tick on completed job %v", j))
	}
	j.Remaining--
	if j.Remaining == 0 {
		j.Finish = now + 1 // completes at the end of this slot
	}
}

// String renders the job for traces.
func (j *Job) String() string {
	return fmt.Sprintf("job(τ%d#%d r=%d d=%d rem=%d)", j.Task.ID, j.Seq, j.Release, j.Deadline, j.Remaining)
}
