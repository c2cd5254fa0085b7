package sim

import (
	"testing"

	"repro/internal/fault"
	"repro/internal/rtime"
	"repro/internal/rua"
	"repro/internal/task"
	"repro/internal/trace"
	"repro/internal/tuf"
	"repro/internal/uam"
)

// Tests of EngineSlot recycling: a job holds a run-state slot only while
// it is live, so the run-state table is as large as the run's peak
// live-job count, and a departed job carries slot −1.

// recycleTasks builds n overloaded lock-based tasks, so critical times
// expire and jobs abort while holding or waiting on locks. nested tasks
// take two locks in opposite orders (deadlocks included); the others
// run plain lock-based accesses, which the global engine accepts.
func recycleTasks(n int, nested bool, abortCost rtime.Duration) []*task.Task {
	tasks := make([]*task.Task, n)
	for i := range tasks {
		u := rtime.Duration(200 + 37*i)
		c := 4*u + rtime.Duration(i)*50
		a, b := i%2, 1-i%2
		segs := task.InterleavedSegments(u, 2, []int{a, b})
		if nested {
			q := u / 4
			segs = []task.Segment{
				{Kind: task.Compute, D: q},
				{Kind: task.Lock, Object: a},
				{Kind: task.Compute, D: q},
				{Kind: task.Lock, Object: b},
				{Kind: task.Compute, D: q},
				{Kind: task.Unlock, Object: b},
				{Kind: task.Unlock, Object: a},
				{Kind: task.Compute, D: u - 3*q},
			}
		}
		tasks[i] = &task.Task{
			ID:        i,
			Name:      "R",
			TUF:       tuf.MustStep(float64(i+1), c),
			Arrival:   uam.Spec{L: 0, A: 1, W: c},
			Segments:  segs,
			AbortCost: abortCost,
		}
	}
	return tasks
}

// recycleConfig is one lock-based run of tasks under a fault plan whose
// bursts release extra copies, so the live count swings.
func recycleConfig(tasks []*task.Task, seed int64) Config {
	return Config{
		Tasks: tasks, Scheduler: rua.NewLockBased(), Mode: LockBased,
		R: 40, S: 7, OpCost: 0.5, Horizon: 40_000,
		ArrivalKind: uam.KindJittered, Seed: seed,
		Fault:    &fault.Plan{Seed: seed, BurstProb: 0.3, BurstSize: 2, StallProb: 0.05, StallDur: 30},
		KeepJobs: true,
	}
}

// slotWatch follows one kernel through its observer stream: the live
// count rises at each Arrival and falls at each departure, and at every
// arrival the live jobs must hold distinct slots inside a table no
// larger than the peak live count so far.
type slotWatch struct {
	t    *testing.T
	name string
	k    *kernel
	live int
	peak int
	bad  int
}

func (w *slotWatch) observe(ev trace.Event) {
	switch ev.Kind {
	case trace.Arrival:
		w.live++
		w.peak = max(w.peak, w.live)
		w.check()
	case trace.Complete, trace.AbortDone:
		w.live--
	}
}

func (w *slotWatch) check() {
	if len(w.k.rsSlab) > w.peak {
		w.fail("run-state table has %d slots, peak live count %d", len(w.k.rsSlab), w.peak)
	}
	used := make([]bool, len(w.k.rsSlab))
	for _, j := range w.k.live {
		s := int(j.EngineSlot)
		if s < 0 || s >= len(used) || used[s] {
			w.fail("live job %s has slot %d (table %d)", j.Name(), s, len(used))
			continue
		}
		used[s] = true
	}
	for _, s := range w.k.free {
		if used[s] {
			w.fail("slot %d is both free and held by a live job", s)
		}
	}
}

func (w *slotWatch) fail(format string, args ...any) {
	if w.bad < 5 {
		w.t.Errorf(w.name+": "+format, args...)
	}
	w.bad++
}

// finish checks the sealed result: departed jobs carry slot −1, live
// ones a slot, and the table ended below the arrival count (so slots
// were in fact reused).
func (w *slotWatch) finish(r Result) {
	w.check()
	if r.Err != nil {
		w.t.Fatalf("%s: %v", w.name, r.Err)
	}
	for _, j := range r.Jobs {
		if departed := j.Done(); departed != (j.EngineSlot == -1) {
			w.fail("job %s in state %v has slot %d", j.Name(), j.State, j.EngineSlot)
		}
	}
	if len(w.k.rsSlab) >= len(r.Jobs) {
		w.fail("table of %d slots for %d arrivals: no slot was reused", len(w.k.rsSlab), len(r.Jobs))
	}
	if r.Aborts == 0 || r.LockEvents == 0 || r.FaultArrivals == 0 {
		w.t.Fatalf("%s: vacuous run: %d aborts, %d lock events, %d injected arrivals",
			w.name, r.Aborts, r.LockEvents, r.FaultArrivals)
	}
}

// watched wires a slotWatch into cfg's observer; bind it to the engine's
// kernel once the engine exists.
func watched(t *testing.T, name string, cfg *Config) *slotWatch {
	w := &slotWatch{t: t, name: name}
	cfg.Observer = w.observe
	return w
}

func TestSlotsRecycledEngine(t *testing.T) {
	for seed := int64(1); seed <= 3; seed++ {
		cfg := recycleConfig(recycleTasks(6, true, 7), seed)
		w := watched(t, "engine", &cfg)
		e, err := New(cfg)
		if err != nil {
			t.Fatal(err)
		}
		w.k = &e.kernel
		w.finish(e.Run())
	}
}

func TestSlotsRecycledGlobal(t *testing.T) {
	for seed := int64(1); seed <= 3; seed++ {
		cfg := recycleConfig(recycleTasks(8, false, 0), seed)
		w := watched(t, "global", &cfg)
		e, err := NewGlobal(cfg, 2)
		if err != nil {
			t.Fatal(err)
		}
		w.k = &e.kernel
		w.finish(e.Run())
	}
}

// TestSlotsRecycledPartitioned steps two partition engines in lockstep
// by earliest next event, as internal/multi does (which this package
// cannot import): each engine recycles its own slots.
func TestSlotsRecycledPartitioned(t *testing.T) {
	for seed := int64(1); seed <= 3; seed++ {
		tasks := recycleTasks(8, true, 7)
		var engines []*Engine
		var watches []*slotWatch
		for cpu := 0; cpu < 2; cpu++ {
			var part []*task.Task
			for i, tk := range tasks {
				if i%2 == cpu {
					part = append(part, tk)
				}
			}
			cfg := recycleConfig(part, seed+int64(cpu)*104729)
			cfg.StochCPU = cpu
			w := watched(t, "partition", &cfg)
			e, err := New(cfg)
			if err != nil {
				t.Fatal(err)
			}
			w.k = &e.kernel
			engines, watches = append(engines, e), append(watches, w)
		}
		for {
			best := -1
			var bestAt rtime.Time
			for cpu, e := range engines {
				if at, ok := e.NextAt(); ok && (best < 0 || at < bestAt) {
					best, bestAt = cpu, at
				}
			}
			if best < 0 {
				break
			}
			engines[best].StepNext()
		}
		for cpu, e := range engines {
			watches[cpu].finish(e.Finish())
		}
	}
}
