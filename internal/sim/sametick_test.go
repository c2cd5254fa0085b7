package sim

import (
	"fmt"
	"hash/fnv"
	"testing"

	"repro/internal/rtime"
	"repro/internal/sched"
	"repro/internal/task"
	"repro/internal/trace"
	"repro/internal/tuf"
	"repro/internal/uam"
)

// gridUnit is the tick grid of the same-tick scenarios: every release,
// segment, access cost, critical time and scheduler pass is a multiple
// of it, so arrivals, boundaries, deferred dispatches and critical
// times keep landing on the same ticks.
const gridUnit = 10

// gridEDF is EDF charging exactly one operation per pass. With OpCost
// = gridUnit every pass occupies one grid step, so every dispatch is a
// deferred one and lands on the grid.
type gridEDF struct{ sched.EDF }

func (g gridEDF) Select(w sched.World) sched.Decision {
	d := g.EDF.Select(w)
	d.Ops = 1
	return d
}

func (g gridEDF) SelectTopK(w sched.World, k int) ([]*task.Job, int64) {
	ranked, _ := g.EDF.SelectTopK(w, k)
	return ranked, 1
}

// sameTickConfig is a lock-free workload on the grid: three accesses
// per job over two shared objects, critical times a few grid steps
// beyond the demand, and overlapping explicit releases.
func sameTickConfig(abortCost rtime.Duration) Config {
	var tasks []*task.Task
	comps := []rtime.Duration{60, 90, 40, 120, 70}
	crits := []rtime.Duration{150, 200, 110, 260, 130}
	for i := range comps {
		tasks = append(tasks, &task.Task{
			ID:        i,
			Name:      fmt.Sprintf("T%d", i),
			TUF:       tuf.MustStep(float64(1+i), crits[i]),
			Arrival:   uam.Spec{L: 0, A: 8, W: 400},
			Segments:  task.InterleavedSegments(comps[i], 3, []int{i % 2, (i + 1) % 2}),
			AbortCost: abortCost,
		})
	}
	return Config{
		Tasks:     tasks,
		Scheduler: gridEDF{},
		Mode:      LockFree,
		R:         gridUnit, S: gridUnit,
		OpCost:  gridUnit,
		Horizon: 900,
		Arrivals: []uam.Trace{
			{30, 240, 640},
			{50, 520},
			{50, 540, 650},
			{40, 460, 700},
			{40, 160, 510},
		},
	}
}

// streamHash folds an observer stream into FNV-64a, field by field.
func streamHash(evs []trace.Event) uint64 {
	h := fnv.New64a()
	for _, e := range evs {
		fmt.Fprintf(h, "%d %d %d %d %d %d %d\n", e.At, e.Kind, e.Task, e.Seq, e.Object, e.CPU, e.Ops)
	}
	return h.Sum64()
}

// crowd is the set of event sources pending at one tick.
type crowd struct{ arrival, boundary, dispatch, critical bool }

// crowdAt reports which sources hold an event at the time of the
// kernel's next event. Only the wheel's head is visible, so a critical
// time counts when it heads the timed events of that tick.
func crowdAt(k *kernel) crowd {
	ev, _, ok := k.q.peek()
	if !ok {
		return crowd{}
	}
	var c crowd
	q := &k.q
	c.arrival = q.released < len(q.arrivals) && q.arrivals[q.released].Arrival == ev.at
	for _, s := range q.boundary {
		c.boundary = c.boundary || (s.seq != 0 && s.at == ev.at)
	}
	c.dispatch = q.dispatch.seq != 0 && q.dispatch.at == ev.at
	_, t, found := q.timed.Peek(ev.at)
	c.critical = found && t.at == ev.at && t.kind == evCritical
	return c
}

// crowdedTicks steps an engine to its end and returns every crowd
// seen before a step.
func crowdedTicks(k *kernel, step func() bool) map[crowd]int {
	seen := map[crowd]int{}
	for {
		seen[crowdAt(k)]++
		if !step() {
			return seen
		}
	}
}

// TestSameTickOrder pins the event order where arrivals, lock-free
// commit boundaries, deferred dispatches and critical times share a
// tick. At equal ticks arrivals come first, then run-time events in the
// order they were scheduled. The hashes were recorded on the engine
// whose single timing wheel held every event in (time, push order), so
// any change to how the event sources merge shows up here.
//
// On the uniprocessor a pass stops the running job, so a boundary and a
// deferred dispatch are never pending together; its scenario has a tick
// where an arrival, a boundary and a critical time meet and one where an
// arrival, a dispatch and a critical time do. The global engine keeps
// its runners through a pass, so all four meet on one tick.
func TestSameTickOrder(t *testing.T) {
	for _, tc := range []struct {
		name  string
		want  uint64
		needs []crowd
		start func(Config) (*kernel, func() bool, error)
	}{
		{"uniprocessor", 0x9439db424141d172,
			[]crowd{{arrival: true, boundary: true, critical: true}, {arrival: true, dispatch: true, critical: true}},
			func(c Config) (*kernel, func() bool, error) {
				e, err := New(c)
				if err != nil {
					return nil, nil, err
				}
				return &e.kernel, e.StepNext, nil
			}},
		{"global2", 0x1b57abab91b3775a,
			[]crowd{{arrival: true, boundary: true, dispatch: true, critical: true}},
			func(c Config) (*kernel, func() bool, error) {
				e, err := NewGlobal(c, 2)
				if err != nil {
					return nil, nil, err
				}
				return &e.kernel, e.StepNext, nil
			}},
	} {
		t.Run(tc.name, func(t *testing.T) {
			abortCost := rtime.Duration(gridUnit)
			if tc.name != "uniprocessor" {
				abortCost = 0 // the global engine models instantaneous handlers
			}
			cfg := sameTickConfig(abortCost)
			var evs []trace.Event
			cfg.Observer = func(e trace.Event) { evs = append(evs, e) }
			k, step, err := tc.start(cfg)
			if err != nil {
				t.Fatal(err)
			}
			seen := crowdedTicks(k, step)
			if err := k.Err(); err != nil {
				t.Fatal(err)
			}
			for _, c := range tc.needs {
				if seen[c] == 0 {
					t.Errorf("no tick with pending %+v", c)
				}
			}
			if got := streamHash(evs); got != tc.want {
				t.Errorf("stream hash = %#x over %d events, want %#x", got, len(evs), tc.want)
			}
		})
	}
}
