package sched

import (
	"testing"

	"repro/internal/resource"
	"repro/internal/rtime"
	"repro/internal/task"
	"repro/internal/tuf"
	"repro/internal/uam"
)

func mkJob(id int, c rtime.Duration, ar rtime.Time, m int, objs []int) *task.Job {
	t := &task.Task{
		ID:       id,
		TUF:      tuf.MustStep(1, c),
		Arrival:  uam.Spec{L: 0, A: 1, W: 2 * c},
		Segments: task.InterleavedSegments(100, m, objs),
	}
	j := task.NewJob(t, 0, ar)
	j.EngineSlot = int32(id) // numbered like an engine's job: lock state is slot-indexed
	return j
}

func TestEDFPicksEarliestCriticalTime(t *testing.T) {
	res := resource.NewMap()
	a := mkJob(0, 1000, 0, 0, nil) // absolute C = 1000
	b := mkJob(1, 500, 0, 0, nil)  // absolute C = 500
	w := World{Now: 0, Jobs: []*task.Job{a, b}, Res: res, Acc: 10}
	d := EDF{}.Select(w)
	if d.Run != b {
		t.Fatalf("picked %s, want the earlier critical time", d.Run.Name())
	}
	if d.Ops != 2 {
		t.Fatalf("ops = %d, want 2", d.Ops)
	}
}

func TestEDFArrivalShiftsOrder(t *testing.T) {
	res := resource.NewMap()
	a := mkJob(0, 500, 600, 0, nil) // absolute C = 1100
	b := mkJob(1, 1000, 0, 0, nil)  // absolute C = 1000
	w := World{Now: 700, Jobs: []*task.Job{a, b}, Res: res, Acc: 10}
	if d := (EDF{}).Select(w); d.Run != b {
		t.Fatalf("picked %s, want b", d.Run.Name())
	}
}

func TestEDFTieBreakDeterministic(t *testing.T) {
	res := resource.NewMap()
	a := mkJob(3, 500, 0, 0, nil)
	b := mkJob(1, 500, 0, 0, nil)
	w := World{Now: 0, Jobs: []*task.Job{a, b}, Res: res, Acc: 10}
	if d := (EDF{}).Select(w); d.Run != b {
		t.Fatal("tie not broken by task id")
	}
}

func TestEDFSkipsBlockedAndDone(t *testing.T) {
	res := resource.NewMap()
	holder := mkJob(0, 5000, 0, 1, []int{0})
	blocked := mkJob(1, 100, 0, 1, []int{0}) // earliest C but blocked
	done := mkJob(2, 50, 0, 0, nil)
	done.State = task.Completed

	holder.Step(1<<40, 10)
	res.TryAcquire(holder, 0)
	holder.Step(1, 10)
	blocked.Step(1<<40, 10)
	res.TryAcquire(blocked, 0)
	blocked.State = task.Blocked

	w := World{Now: 0, Jobs: []*task.Job{holder, blocked, done}, Res: res, Acc: 10, LockBased: true}
	d := EDF{}.Select(w)
	if d.Run != holder {
		t.Fatalf("picked %v, want holder", d.Run)
	}
}

func TestEDFIdlesWhenNothingRunnable(t *testing.T) {
	res := resource.NewMap()
	holder := mkJob(0, 5000, 0, 1, []int{0})
	holder.Step(1<<40, 10)
	res.TryAcquire(holder, 0)
	holder.Step(1, 10)
	holder.State = task.Aborting // rollback pending: not runnable

	blocked := mkJob(1, 100, 0, 1, []int{0})
	blocked.Step(1<<40, 10)
	res.TryAcquire(blocked, 0)
	blocked.State = task.Blocked

	w := World{Now: 0, Jobs: []*task.Job{holder, blocked}, Res: res, Acc: 10, LockBased: true}
	if d := (EDF{}).Select(w); d.Run != nil {
		t.Fatalf("picked %s, want idle", d.Run.Name())
	}
}

func TestRunnableLockFreeIgnoresLocks(t *testing.T) {
	res := resource.NewMap()
	a := mkJob(0, 1000, 0, 1, []int{0})
	b := mkJob(1, 1000, 0, 1, []int{0})
	a.Step(1<<40, 10)
	res.TryAcquire(a, 0)
	b.Step(1<<40, 10) // at access start of a "held" object
	w := World{Now: 0, Jobs: []*task.Job{a, b}, Res: res, Acc: 10, LockBased: false}
	if !Runnable(w, b) {
		t.Fatal("lock-free job considered blocked by lock state")
	}
}

func TestRunnableAfterRelease(t *testing.T) {
	res := resource.NewMap()
	a := mkJob(0, 1000, 0, 1, []int{0})
	b := mkJob(1, 1000, 0, 1, []int{0})
	a.Step(1<<40, 10)
	res.TryAcquire(a, 0)
	b.Step(1<<40, 10)
	res.TryAcquire(b, 0) // waits
	b.State = task.Blocked
	w := World{Now: 0, Jobs: []*task.Job{a, b}, Res: res, Acc: 10, LockBased: true}
	if Runnable(w, b) {
		t.Fatal("blocked job runnable while object held")
	}
	res.Release(a, 0)
	if !Runnable(w, b) {
		t.Fatal("job not runnable after release")
	}
}

func TestEDFTopK(t *testing.T) {
	res := resource.NewMap()
	a := mkJob(0, 1000, 0, 0, nil)
	b := mkJob(1, 500, 0, 0, nil)
	c := mkJob(2, 2000, 0, 0, nil)
	done := mkJob(3, 100, 0, 0, nil)
	done.State = task.Completed
	w := World{Now: 0, Jobs: []*task.Job{a, b, c, done}, Res: res, Acc: 10}
	out, ops := EDF{}.SelectTopK(w, 2)
	if len(out) != 2 || out[0] != b || out[1] != a {
		t.Fatalf("TopK = %v", out)
	}
	if ops <= 0 {
		t.Fatal("no ops charged")
	}
	// k larger than runnable set returns everything runnable.
	out, _ = EDF{}.SelectTopK(w, 10)
	if len(out) != 3 {
		t.Fatalf("TopK(10) = %d jobs", len(out))
	}
}

func TestLLFTopK(t *testing.T) {
	res := resource.NewMap()
	tight := mkJobWithExec(0, 2000, 0, 1950) // laxity 50
	loose := mkJobWithExec(1, 500, 0, 100)   // laxity 400
	w := World{Now: 0, Jobs: []*task.Job{tight, loose}, Res: res, Acc: 10}
	out, _ := LLF{}.SelectTopK(w, 2)
	if len(out) != 2 || out[0] != tight || out[1] != loose {
		t.Fatalf("LLF TopK = %v", out)
	}
}
