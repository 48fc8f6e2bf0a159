// Per-task breakdowns of a trial: which tasks missed, and each task's
// response-time distribution. Used by examples and debugging; the
// headline metrics stay in metrics.TrialResult.
package system

import (
	"fmt"
	"sort"
	"strings"

	"ioguard/internal/metrics"
	"ioguard/internal/slot"
	"ioguard/internal/task"
)

// TaskStat summarizes one task's completions within a trial.
type TaskStat struct {
	Task      *task.Sporadic
	Completed int64
	Misses    int64
	// Response records the task's response times: an exact *Sample in
	// the default metrics mode, a bounded-memory *Streaming recorder
	// in streaming mode.
	Response metrics.Recorder
}

// observe folds one completion into the stat.
func (st *TaskStat) observe(j *task.Job, at slot.Time) {
	st.Completed++
	st.Response.Add(float64(at - j.Release))
	if at > j.Deadline {
		st.Misses++
	}
}

// ByTask returns per-task statistics keyed by task ID, accumulated
// online since TrackByTask; nil if the collector does not track tasks.
func (c *Collector) ByTask() map[int]*TaskStat { return c.perTask }

// RenderByTask prints per-task statistics sorted by (misses desc,
// id asc) — the misbehaving tasks surface first.
func RenderByTask(stats map[int]*TaskStat) string {
	ids := make([]int, 0, len(stats))
	for id := range stats {
		ids = append(ids, id)
	}
	sort.Slice(ids, func(a, b int) bool {
		sa, sb := stats[ids[a]], stats[ids[b]]
		if sa.Misses != sb.Misses {
			return sa.Misses > sb.Misses
		}
		return ids[a] < ids[b]
	})
	var b strings.Builder
	fmt.Fprintf(&b, "%-24s %6s %6s %10s %10s\n", "task", "done", "miss", "mean-resp", "p99-resp")
	for _, id := range ids {
		st := stats[id]
		fmt.Fprintf(&b, "%-24s %6d %6d %10.1f %10.0f\n",
			st.Task.Name, st.Completed, st.Misses, st.Response.Mean(), st.Response.Percentile(99))
	}
	return b.String()
}
