package analysis

import (
	"errors"
	"testing"
	"testing/quick"

	"repro/internal/rtime"
	"repro/internal/rua"
	"repro/internal/sim"
	"repro/internal/task"
	"repro/internal/tuf"
	"repro/internal/uam"
)

func TestDemandBoundBasics(t *testing.T) {
	tasks := []*task.Task{
		mkTask(0, 1, 1000, 500, 100, 0), // u=100, C=500, W=1000
	}
	if got := DemandBound(tasks, 400, 10); got != 0 {
		t.Fatalf("L < C contributed demand: %v", got)
	}
	// L = 500: a·(⌈0/1000⌉+1) = 1 job of demand 100.
	if got := DemandBound(tasks, 500, 10); got != 100 {
		t.Fatalf("DemandBound(500) = %v, want 100", got)
	}
	// L = 1501: ⌈1001/1000⌉+1 = 3 jobs.
	if got := DemandBound(tasks, 1501, 10); got != 300 {
		t.Fatalf("DemandBound(1501) = %v, want 300", got)
	}
}

func TestSchedulableVerdicts(t *testing.T) {
	light := []*task.Task{
		mkTask(0, 1, 10000, 5000, 100, 0),
		mkTask(1, 1, 8000, 4000, 100, 0),
	}
	ok, _, err := Schedulable(light, 10, 100_000)
	if err != nil || !ok {
		t.Fatalf("light set unschedulable: %v %v", ok, err)
	}
	heavy := []*task.Task{
		mkTask(0, 2, 1000, 900, 800, 0), // rate = 2·800/1000 = 1.6
	}
	ok, _, err = Schedulable(heavy, 10, 100_000)
	if err != nil || ok {
		t.Fatalf("overloaded set judged schedulable")
	}
}

func TestSchedulableValidation(t *testing.T) {
	if _, _, err := Schedulable(nil, 10, 1000); !errors.Is(err, ErrInput) {
		t.Fatal("empty set accepted")
	}
	tasks := []*task.Task{mkTask(0, 1, 1000, 500, 100, 0)}
	if _, _, err := Schedulable(tasks, 0, 1000); !errors.Is(err, ErrInput) {
		t.Fatal("zero acc accepted")
	}
	if _, _, err := Schedulable(tasks, 10, 0); !errors.Is(err, ErrInput) {
		t.Fatal("zero cap accepted")
	}
}

// Property: a "schedulable" verdict is SOUND — simulation under EDF (or
// lock-free RUA, which matches EDF for feasible step-TUF sets) misses no
// critical times.
func TestQuickSchedulableVerdictSound(t *testing.T) {
	f := func(nRaw uint8, uRaw, wRaw uint16, seed int64) bool {
		n := int(nRaw%4) + 1
		tasks := make([]*task.Task, n)
		for i := range tasks {
			u := rtime.Duration(uRaw%300) + 20
			w := rtime.Duration(wRaw%5000) + 8*u*rtime.Duration(n)
			tasks[i] = &task.Task{
				ID:       i,
				TUF:      tuf.MustStep(float64(i+1), w/2),
				Arrival:  uam.Spec{L: 0, A: 1, W: w},
				Segments: task.InterleavedSegments(u, 1, []int{0}),
			}
		}
		acc := rtime.Duration(7)
		ok, _, err := Schedulable(tasks, acc, 200_000)
		if err != nil {
			return false
		}
		if !ok {
			return true // pessimistic "no" carries no obligation
		}
		res, err := sim.Run(sim.Config{
			Tasks: tasks, Scheduler: rua.NewLockFree(), Mode: sim.LockFree,
			R: acc, S: acc, OpCost: 0,
			Horizon:     200_000,
			ArrivalKind: uam.KindBursty, Seed: seed, ConservativeRetry: false,
			KeepJobs: true,
		})
		if err != nil {
			return false
		}
		for _, j := range res.Jobs {
			if j.State == task.Aborted {
				t.Logf("schedulable set aborted %s", j.Name())
				return false
			}
			if j.State == task.Completed && !j.MetCriticalTime() {
				t.Logf("schedulable set missed %s", j.Name())
				return false
			}
		}
		return true
	}
	cfg := &quick.Config{MaxCount: 60}
	if testing.Short() {
		cfg.MaxCount = 15
	}
	if err := quick.Check(f, cfg); err != nil {
		t.Fatal(err)
	}
}

// Property: DemandBound is monotone in L and in acc.
func TestQuickDemandBoundMonotone(t *testing.T) {
	f := func(l1Raw, l2Raw uint16, accRaw uint8) bool {
		tasks := []*task.Task{
			mkTask(0, 2, 700, 350, 90, 1),
			mkTask(1, 1, 1100, 550, 140, 2),
		}
		l1 := rtime.Duration(l1Raw)
		l2 := l1 + rtime.Duration(l2Raw)
		acc := rtime.Duration(accRaw%30) + 1
		if DemandBound(tasks, l1, acc) > DemandBound(tasks, l2, acc) {
			return false
		}
		return DemandBound(tasks, l2, acc) <= DemandBound(tasks, l2, acc+5)
	}
	if err := quick.Check(f, &quick.Config{MaxCount: 1000}); err != nil {
		t.Fatal(err)
	}
}
