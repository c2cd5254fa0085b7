package sim_test

import (
	"fmt"
	"hash/fnv"
	"math"
	"reflect"
	"testing"

	"repro/internal/fault"
	"repro/internal/metrics"
	"repro/internal/multi"
	"repro/internal/rtime"
	"repro/internal/rua"
	"repro/internal/sched"
	"repro/internal/sim"
	"repro/internal/stoch"
	"repro/internal/task"
	"repro/internal/trace"
	"repro/internal/tuf"
	"repro/internal/uam"
)

// oracleSums is the per-job loop metrics.Analyze ran over Result.Jobs
// before the engines folded their sums online: every job in release
// order, so the float sums add their terms in that order.
func oracleSums(jobs []*task.Job, horizon rtime.Time) sim.Sums {
	var s sim.Sums
	for _, j := range jobs {
		s.Retries += j.Retries
		s.Blockings += j.Blockings
		if j.AbsoluteCriticalTime() > horizon {
			continue
		}
		s.Released++
		s.MaxUtility += j.Task.TUF.MaxUtility()
		switch j.State {
		case task.Completed:
			s.Completed++
			s.AccruedUtility += j.AccruedUtility()
			d := j.Sojourn()
			s.SojournSum += d
			if d > s.MaxSojourn {
				s.MaxSojourn = d
			}
			if j.MetCriticalTime() {
				s.Met++
			}
		case task.Aborted, task.Aborting:
			s.Aborted++
		}
	}
	return s
}

// sameSums compares two sums exactly, the float sums bit for bit.
func sameSums(a, b sim.Sums) bool {
	fa, fb := a, b
	fa.AccruedUtility, fa.MaxUtility, fb.AccruedUtility, fb.MaxUtility = 0, 0, 0, 0
	return fa == fb &&
		math.Float64bits(a.AccruedUtility) == math.Float64bits(b.AccruedUtility) &&
		math.Float64bits(a.MaxUtility) == math.Float64bits(b.MaxUtility)
}

// hashing folds an observer stream into FNV-64a, field by field.
type hashing struct{ sum uint64 }

func (h *hashing) observe(e trace.Event) {
	f := fnv.New64a()
	fmt.Fprintf(f, "%x %d %d %d %d %d %d %d\n", h.sum, e.At, e.Kind, e.Task, e.Seq, e.Object, e.CPU, e.Ops)
	h.sum = f.Sum64()
}

// recycleWorkload builds n overloaded tasks with linear TUFs of
// non-integer heights, so utility sums depend on their order and jobs
// complete out of release order. nested tasks take two locks in
// opposite orders, so lock-based runs also block and deadlock.
func recycleWorkload(n int, seed int64, nested bool, abortCost rtime.Duration) []*task.Task {
	tasks := make([]*task.Task, n)
	for i := range tasks {
		u := rtime.Duration(150 + (seed*53+int64(i)*71)%300)
		c := 3*u + rtime.Duration(i)*40
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
			TUF:       tuf.MustLinear(0.1+float64(i)/3, c),
			Arrival:   uam.Spec{L: 0, A: 2, W: c},
			Segments:  segs,
			AbortCost: abortCost,
		}
	}
	return tasks
}

// recycleRun is one run of a differential case: its observer-stream
// hash, its result (Jobs when it kept them) and, under multi, the
// merged statistics.
type recycleRun struct {
	hash  uint64
	res   []sim.Result // one per engine; per partition under multi
	stats metrics.RunStats
}

// TestRecyclingDifferential: a run that recycles job records and one
// that keeps them (KeepJobs) must produce the same observer stream, the
// same counters and the same online sums, and those sums must equal the
// old per-job loop over the kept jobs, float bits included. The cases
// cover the uniprocessor, a 2-CPU global engine and the partitioned
// driver, both synchronization modes, nested sections with deadlocks,
// aborts with handlers, heavy faults, the stochastic scheduler and RUA's
// shedding.
func TestRecyclingDifferential(t *testing.T) {
	variants := []struct {
		name  string
		edit  func(*sim.Config, int64)
		sheds bool
	}{
		{"plain", func(*sim.Config, int64) {}, false},
		{"faults", func(c *sim.Config, seed int64) {
			p := fault.Heavy()
			p.Seed = seed
			c.Fault = p
		}, false},
		{"stoch", func(c *sim.Config, seed int64) {
			p := stoch.Geo()
			p.Seed = seed
			c.Stoch = p
		}, false},
		{"shed", func(*sim.Config, int64) {}, true},
	}
	engines := []string{"uni", "global2", "multi2"}
	var aborts, completions, retries, blockings int64
	for seed := int64(1); seed <= 3; seed++ {
		for _, mode := range []sim.Mode{sim.LockFree, sim.LockBased} {
			for _, v := range variants {
				for _, eng := range engines {
					name := fmt.Sprintf("%s/%v/%s/seed=%d", eng, mode, v.name, seed)
					nested := mode == sim.LockBased && eng != "global2"
					abortCost := rtime.Duration(15)
					if eng == "global2" {
						abortCost = 0 // the global engine models instantaneous handlers
					}
					newSched := func() sched.Scheduler {
						r := rua.NewLockFree()
						if mode == sim.LockBased {
							r = rua.NewLockBased()
						}
						if v.sheds {
							r = r.WithDegradation()
						}
						return r
					}
					run := func(keep bool) recycleRun {
						t.Helper()
						tasks := recycleWorkload(5, seed, nested, abortCost)
						var h hashing
						cfg := sim.Config{
							Tasks: tasks, Mode: mode, R: 40, S: 7, OpCost: 0.5,
							Horizon:     rtime.Time(60 * tasks[len(tasks)-1].CriticalTime()),
							ArrivalKind: uam.KindJittered, Seed: seed,
							Observer: h.observe, KeepJobs: keep,
						}
						v.edit(&cfg, seed)
						var out recycleRun
						switch eng {
						case "uni":
							cfg.Scheduler = newSched()
							r, err := sim.Run(cfg)
							if err != nil {
								t.Fatalf("%s: %v", name, err)
							}
							out.res = []sim.Result{r}
						case "global2":
							cfg.Scheduler = newSched()
							r, err := sim.RunGlobal(cfg, 2)
							if err != nil {
								t.Fatalf("%s: %v", name, err)
							}
							out.res = []sim.Result{r}
						default:
							r, err := multi.Run(cfg, 2, newSched)
							if err != nil {
								t.Fatalf("%s: %v", name, err)
							}
							out.res, out.stats = r.PerCPU, r.Stats
						}
						out.hash = h.sum
						return out
					}
					kept, recycled := run(true), run(false)
					if kept.hash != recycled.hash {
						t.Errorf("%s: observer stream %#x kept, %#x recycled", name, kept.hash, recycled.hash)
					}
					if kept.stats != recycled.stats {
						t.Errorf("%s: merged stats %+v kept, %+v recycled", name, kept.stats, recycled.stats)
					}
					var all []*task.Job
					for i, k := range kept.res {
						r := recycled.res[i]
						if eng != "multi2" && r.Jobs != nil {
							t.Errorf("%s: a recycling run listed %d jobs", name, len(r.Jobs))
						}
						if int64(len(k.Jobs)) != k.Arrivals {
							t.Fatalf("%s: kept %d jobs of %d arrivals", name, len(k.Jobs), k.Arrivals)
						}
						if !sameSums(k.Sums, r.Sums) {
							t.Errorf("%s: sums %+v kept, %+v recycled", name, k.Sums, r.Sums)
						}
						if want := oracleSums(k.Jobs, k.Horizon); !sameSums(k.Sums, want) {
							t.Errorf("%s: online sums %+v, per-job loop %+v", name, k.Sums, want)
						}
						kc, rc := k, r
						kc.Jobs, rc.Jobs = nil, nil
						if !reflect.DeepEqual(kc, rc) {
							t.Errorf("%s: result %+v kept, %+v recycled", name, kc, rc)
						}
						all = append(all, k.Jobs...)
						aborts += k.Aborts
						completions += k.Completions
						retries += k.Sums.Retries
						blockings += k.Sums.Blockings
					}
					if eng == "multi2" {
						want := metrics.Analyze(sim.Result{Sums: oracleSums(all, kept.res[0].Horizon)})
						if kept.stats != want {
							t.Errorf("%s: merged stats %+v, per-job loop %+v", name, kept.stats, want)
						}
					}
				}
			}
		}
	}
	if aborts == 0 || completions == 0 || retries == 0 || blockings == 0 {
		t.Fatalf("vacuous: %d aborts, %d completions, %d retries, %d blockings", aborts, completions, retries, blockings)
	}
}

// TestUtilityWindowLongCriticalTime: a job whose critical time lies past
// the horizon holds no place in the release-order utility window, so
// the window may move past its rank and reuse its slot while the job is
// still live; its departure must leave the window alone. Task 0 has a
// long critical time and low utility, so its last job runs only in the
// gaps of eight short-period tasks and departs hundreds of releases
// after its own. Task 9 can never finish: each of its jobs stays live,
// counted and open in the window, until its critical time, so task 0's
// job often departs while the window holds completed jobs waiting on
// a later one of task 9's. Over a sweep of horizons the online sums must equal the
// per-job loop, float bits included, with and without kept jobs.
func TestUtilityWindowLongCriticalTime(t *testing.T) {
	const long = 100_000
	tasks := []*task.Task{{
		ID:       0,
		TUF:      tuf.MustLinear(0.05, long),
		Arrival:  uam.Spec{L: 0, A: 1, W: long},
		Segments: task.InterleavedSegments(6000, 2, []int{0, 1}),
	}}
	for i := 1; i <= 8; i++ {
		c := rtime.Duration(100 + 10*i)
		tasks = append(tasks, &task.Task{
			ID:       i,
			TUF:      tuf.MustLinear(0.3+float64(i)/7, c),
			Arrival:  uam.Spec{L: 0, A: 1, W: c},
			Segments: task.InterleavedSegments(12, 2, []int{i % 2, 1 - i%2}),
		})
	}
	tasks = append(tasks, &task.Task{
		ID:       9,
		TUF:      tuf.MustLinear(0.2, 5000),
		Arrival:  uam.Spec{L: 0, A: 3, W: 5000},
		Segments: task.InterleavedSegments(6000, 0, nil),
	})
	var held int
	for h := rtime.Time(150_000); h < 150_000+long; h += 1_700 {
		run := func(keep bool) sim.Result {
			r, err := sim.Run(sim.Config{
				Tasks: tasks, Scheduler: rua.NewLockFree(), Mode: sim.LockFree,
				R: 4, S: 1, OpCost: 0.05, Horizon: h,
				ArrivalKind: uam.KindJittered, Seed: int64(h), KeepJobs: keep,
			})
			if err != nil {
				t.Fatal(err)
			}
			return r
		}
		r := run(true)
		if want := oracleSums(r.Jobs, h); !sameSums(r.Sums, want) {
			t.Errorf("horizon %d: online sums %+v, per-job loop %+v", h, r.Sums, want)
		}
		if rec := run(false); !sameSums(r.Sums, rec.Sums) {
			t.Errorf("horizon %d: sums %+v kept, %+v recycled", h, r.Sums, rec.Sums)
		}
		// Count the runs whose last long job completed uncounted at
		// least 64 releases after its own while a counted job of task 9,
		// released after it, was still live.
		var last *task.Job
		for _, j := range r.Jobs {
			if j.Task.ID == 0 {
				last = j
			}
		}
		if last == nil || last.State != task.Completed || last.AbsoluteCriticalTime() <= h {
			continue
		}
		later, open := 0, false
		for _, j := range r.Jobs {
			if j.Arrival > last.Arrival && j.Arrival <= last.Completion {
				later++
			}
			if j.Task.ID == 9 && j.Arrival > last.Arrival && j.AbsoluteCriticalTime() > last.Completion && j.AbsoluteCriticalTime() <= h {
				open = true
			}
		}
		if later >= 64 && open {
			held++
		}
	}
	if held == 0 {
		t.Fatal("vacuous: no long job departed after 64 releases while the window was held open")
	}
}
