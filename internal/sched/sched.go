// Package sched defines the scheduler interface the simulator drives and
// provides the EDF/ECF baseline. Utility-accrual schedulers (lock-based
// and lock-free RUA) live in internal/rua and implement the same
// interface.
//
// Schedulers are invoked at scheduling events (§3: job arrivals and
// departures, lock and unlock requests, critical-time expirations) with a
// snapshot of the live jobs and resource state, and return the job to
// dispatch. They also report an operation count — the number of
// elementary steps (comparisons, chain hops, insertions) the decision
// took — which the simulator converts into virtual scheduling overhead.
// That conversion is what lets the reproduction charge lock-based RUA's
// O(n² log n) decisions and lock-free RUA's O(n²) decisions their actual
// cost, the mechanism behind the paper's Fig 9 CML experiment.
package sched

import (
	"repro/internal/resource"
	"repro/internal/rtime"
	"repro/internal/task"
)

// World is the scheduler's view of the system at a scheduling event.
type World struct {
	Now       rtime.Time
	Jobs      []*task.Job   // live jobs in arrival order; equal instants keep push order
	Res       *resource.Map // lock/commit state
	Acc       rtime.Duration
	LockBased bool
}

// Decision is a scheduler's answer: the job to run (nil to idle), jobs to
// abort (deadlock victims — only possible with nested critical sections),
// and the operation count charged for making the decision.
type Decision struct {
	Run   *task.Job
	Abort []*task.Job
	Ops   int64
}

// Scheduler selects jobs at scheduling events.
type Scheduler interface {
	Name() string
	Select(w World) Decision
}

// Runnable reports whether j can make progress: it is not waiting on an
// object someone else holds. A job positioned at an access boundary is
// runnable if the object is free (it will acquire on dispatch).
func Runnable(w World, j *task.Job) bool {
	if j.Done() || j.State == task.Aborting {
		return false
	}
	if obj, ok := j.AtAccessStart(); ok && w.LockBased {
		if owner := w.Res.Owner(obj); owner != nil && owner != j {
			return false
		}
	}
	if obj, ok := j.PendingLock(); ok && w.LockBased {
		if owner := w.Res.Owner(obj); owner != nil && owner != j {
			return false
		}
	}
	if obj, ok := w.Res.WaitingFor(j); ok {
		if owner := w.Res.Owner(obj); owner != nil && owner != j {
			return false
		}
	}
	return true
}

// EDF is the earliest-critical-time-first baseline (ECF; classic EDF when
// TUFs are steps). During underloads with no object sharing RUA defaults
// to exactly this order, which is the "ideal" reference of Fig 9. With
// locks it simply skips blocked jobs (no inheritance, no dependency
// chains) — the naive baseline.
type EDF struct{}

// Name implements Scheduler.
func (EDF) Name() string { return "edf" }

// Select implements Scheduler: the runnable job with the earliest
// absolute critical time wins; ties break by (taskID, seq) for
// determinism.
func (EDF) Select(w World) Decision {
	var best *task.Job
	ops := int64(0)
	for _, j := range w.Jobs {
		ops++
		if !Runnable(w, j) {
			continue
		}
		if best == nil || earlier(j, best) {
			best = j
		}
	}
	return Decision{Run: best, Ops: ops}
}

func earlier(a, b *task.Job) bool {
	ca, cb := a.AbsoluteCriticalTime(), b.AbsoluteCriticalTime()
	if ca != cb {
		return ca < cb
	}
	if a.Task.ID != b.Task.ID {
		return a.Task.ID < b.Task.ID
	}
	return a.Seq < b.Seq
}
