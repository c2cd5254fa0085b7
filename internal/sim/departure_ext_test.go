package sim_test

import (
	"testing"
	"testing/quick"

	"repro/internal/multi"
	"repro/internal/rtime"
	"repro/internal/rua"
	"repro/internal/sched"
	"repro/internal/sim"
	"repro/internal/task"
	"repro/internal/tuf"
	"repro/internal/uam"
)

// departedGuard wraps RUA and counts every scheduler pass that is handed
// a job which has already left the system (completed, or aborted with
// its abort handler finished), and every pass whose live set is not in
// arrival order — the order RUA's ECF ties and EDF's scan read.
type departedGuard struct {
	inner     *rua.RUA
	passes    int
	departed  int
	unordered int
}

func (g *departedGuard) check(w sched.World) {
	g.passes++
	for i, j := range w.Jobs {
		if j.Done() {
			g.departed++
		}
		if i > 0 && j.Arrival < w.Jobs[i-1].Arrival {
			g.unordered++
		}
	}
}

func (g *departedGuard) Name() string { return g.inner.Name() }

func (g *departedGuard) Select(w sched.World) sched.Decision {
	g.check(w)
	return g.inner.Select(w)
}

func (g *departedGuard) SelectTopK(w sched.World, k int) ([]*task.Job, int64) {
	g.check(w)
	return g.inner.SelectTopK(w, k)
}

// overloadedSet builds n tasks whose combined demand exceeds one
// processor, so critical times expire and jobs are aborted.
func overloadedSet(n int, execRaw uint16, abortCost rtime.Duration) []*task.Task {
	tasks := make([]*task.Task, n)
	for i := range tasks {
		u := rtime.Duration(execRaw%400) + 200 + rtime.Duration(i*29)
		c := 2*u + rtime.Duration(i)*50
		tasks[i] = &task.Task{
			ID:        i,
			TUF:       tuf.MustStep(float64(i+1), c),
			Arrival:   uam.Spec{L: 0, A: 2, W: c},
			Segments:  task.InterleavedSegments(u, 2, []int{i % 2}),
			AbortCost: abortCost,
		}
	}
	return tasks
}

// TestQuickPassesSeeNoDepartedJobs: on every engine, no scheduler pass
// of an overloaded run is handed a job that has already departed, and
// every pass sees its live jobs in nondecreasing arrival order.
func TestQuickPassesSeeNoDepartedJobs(t *testing.T) {
	var aborts int64
	f := func(nRaw, modeRaw, cpuRaw uint8, execRaw uint16, seed int64) bool {
		n := int(nRaw%4) + 3
		mode := sim.Mode(modeRaw % 2)
		cpus := int(cpuRaw%3) + 1
		newGuard := func() *departedGuard {
			if mode == sim.LockFree {
				return &departedGuard{inner: rua.NewLockFree()}
			}
			return &departedGuard{inner: rua.NewLockBased()}
		}
		cfg := func(abortCost rtime.Duration) sim.Config {
			return sim.Config{
				Tasks: overloadedSet(n, execRaw, abortCost), Mode: mode,
				R: 40, S: 7, OpCost: 0.5, Horizon: 40_000,
				ArrivalKind: uam.Kind(uint64(seed) % 3), Seed: seed,
			}
		}
		ok := true
		report := func(engine string, g *departedGuard) {
			if g.departed > 0 {
				t.Logf("%s (%v, n=%d, cpus=%d, seed=%d): %d departed jobs over %d passes",
					engine, mode, n, cpus, seed, g.departed, g.passes)
				ok = false
			}
			if g.unordered > 0 {
				t.Logf("%s (%v, n=%d, cpus=%d, seed=%d): %d live-set pairs out of arrival order over %d passes",
					engine, mode, n, cpus, seed, g.unordered, g.passes)
				ok = false
			}
		}

		g := newGuard()
		c := cfg(25)
		c.Scheduler = g
		r, err := sim.Run(c)
		if err != nil {
			t.Log(err)
			return false
		}
		aborts += r.Aborts
		report("uniprocessor", g)

		g = newGuard()
		c = cfg(0) // the global policy runs abort handlers instantly
		c.Scheduler = g
		gr, err := sim.RunGlobal(c, cpus)
		if err != nil {
			t.Log(err)
			return false
		}
		aborts += gr.Aborts
		report("global", g)

		var guards []*departedGuard
		mr, err := multi.Run(cfg(25), cpus, func() sched.Scheduler {
			g := newGuard()
			guards = append(guards, g)
			return g
		})
		if err != nil {
			t.Log(err)
			return false
		}
		for _, pr := range mr.PerCPU {
			aborts += pr.Aborts
		}
		for _, g := range guards {
			report("partitioned", g)
		}
		return ok
	}
	cfg := &quick.Config{MaxCount: 40}
	if testing.Short() {
		cfg.MaxCount = 10
	}
	if err := quick.Check(f, cfg); err != nil {
		t.Fatal(err)
	}
	if aborts == 0 {
		t.Fatal("generated workloads aborted no job; the property was not exercised")
	}
}
