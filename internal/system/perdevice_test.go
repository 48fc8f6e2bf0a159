package system_test

import (
	"fmt"
	"reflect"
	"strings"
	"testing"

	"ioguard/internal/slot"
	"ioguard/internal/system"
	"ioguard/internal/task"
)

// scripted is a device shard that logs every call it receives into a
// log shared by all shards of the set, and buffers what it is sent.
type scripted struct {
	dev     string
	log     *[]string
	jobs    []*task.Job
	dropped int64
}

func (s *scripted) Devices() []string { return []string{s.dev} }

func (s *scripted) Submit(now slot.Time, j *task.Job) {
	*s.log = append(*s.log, fmt.Sprintf("submit %s task %d @%d", s.dev, j.Task.ID, now))
	s.jobs = append(s.jobs, j)
}

func (s *scripted) Step(now slot.Time) {
	*s.log = append(*s.log, fmt.Sprintf("step %s @%d", s.dev, now))
}

func (s *scripted) NextWork(slot.Time) slot.Time { return slot.Never }

func (s *scripted) Pending(visit func(j *task.Job)) {
	for _, j := range s.jobs {
		visit(j)
	}
}

func (s *scripted) Dropped() int64 { return s.dropped }

// TestPerDevice drives a PerDevice of scripted shards through every
// method it supplies to the systems that embed it.
func TestPerDevice(t *testing.T) {
	tasks := map[string]*task.Sporadic{}
	for i, dev := range []string{"can", "ethernet", "flexray", "uart"} {
		tasks[dev] = &task.Sporadic{ID: i, Device: dev, Period: 100, WCET: 1, Deadline: 100}
	}
	job := func(dev string) *task.Job { return task.NewJob(tasks[dev], 0, 0) }
	for _, tc := range []struct {
		name  string
		do    func(p *system.PerDevice[*scripted], log *[]string)
		want  []string
		panic string // non-empty: do must panic with a message containing it
	}{{
		name: "submit reaches the owning shard",
		do: func(p *system.PerDevice[*scripted], _ *[]string) {
			p.Submit(3, job("flexray"))
			p.Submit(4, job("can"))
			p.Submit(5, job("ethernet"))
		},
		want: []string{"submit flexray task 2 @3", "submit can task 0 @4", "submit ethernet task 1 @5"},
	}, {
		name: "step runs the shards in device order",
		do:   func(p *system.PerDevice[*scripted], _ *[]string) { p.Step(7) },
		want: []string{"step can @7", "step ethernet @7", "step flexray @7"},
	}, {
		name: "shards are handed out in device order",
		do: func(p *system.PerDevice[*scripted], log *[]string) {
			for _, sh := range p.Shards() {
				*log = append(*log, strings.Join(sh.Devices(), ","))
			}
		},
		want: []string{"can", "ethernet", "flexray"},
	}, {
		name: "pending visits in device order",
		do: func(p *system.PerDevice[*scripted], log *[]string) {
			p.Submit(0, job("flexray"))
			p.Submit(0, job("ethernet"))
			p.Submit(0, job("can"))
			*log = nil
			p.Pending(func(j *task.Job) { *log = append(*log, j.Task.Device) })
		},
		want: []string{"can", "ethernet", "flexray"},
	}, {
		name: "dropped sums the shards",
		do: func(p *system.PerDevice[*scripted], log *[]string) {
			*log = append(*log, fmt.Sprint(p.Dropped()))
		},
		want: []string{"7"},
	}, {
		name:  "submit for an unowned device panics",
		do:    func(p *system.PerDevice[*scripted], _ *[]string) { p.Submit(0, job("uart")) },
		panic: `"uart"`,
	}} {
		t.Run(tc.name, func(t *testing.T) {
			var log []string
			shards := []*scripted{
				{dev: "can", log: &log, dropped: 1},
				{dev: "ethernet", log: &log, dropped: 2},
				{dev: "flexray", log: &log, dropped: 4},
			}
			p := system.NewPerDevice(shards)
			defer func() {
				r := recover()
				switch {
				case tc.panic == "" && r != nil:
					t.Fatalf("unexpected panic: %v", r)
				case tc.panic != "" && r == nil:
					t.Fatalf("no panic, want one naming %s", tc.panic)
				case tc.panic != "" && !strings.Contains(fmt.Sprint(r), tc.panic):
					t.Fatalf("panic %q does not name %s", r, tc.panic)
				}
				if tc.panic == "" && !reflect.DeepEqual(log, tc.want) {
					t.Errorf("calls = %q, want %q", log, tc.want)
				}
			}()
			tc.do(&p, &log)
		})
	}
}

// TestNewPerDeviceRejectsDisorder: the device order is the step order,
// so NewPerDevice takes shards only in strictly increasing device
// order.
func TestNewPerDeviceRejectsDisorder(t *testing.T) {
	for _, devs := range [][]string{{"ethernet", "can"}, {"can", "can"}} {
		shards := []*scripted{{dev: devs[0]}, {dev: devs[1]}}
		func() {
			defer func() {
				if recover() == nil {
					t.Errorf("NewPerDevice accepted shards for %q", devs)
				}
			}()
			system.NewPerDevice(shards)
		}()
	}
}
