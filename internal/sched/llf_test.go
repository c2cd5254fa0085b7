package sched

import (
	"testing"

	"repro/internal/resource"
	"repro/internal/rtime"
	"repro/internal/task"
)

func TestLLFPicksLeastLaxity(t *testing.T) {
	res := resource.NewMap()
	// a: C=1000, rem=100 → laxity 900. b: C=500, rem=450 → laxity 50.
	a := mkJob(0, 1000, 0, 0, nil)     // compute 100
	b := mkJobWithExec(1, 500, 0, 450) // compute 450
	w := World{Now: 0, Jobs: []*task.Job{a, b}, Res: res, Acc: 10}
	if d := (LLF{}).Select(w); d.Run != b {
		t.Fatalf("picked %s, want least laxity", d.Run.Name())
	}
	// EDF would pick b too (earlier C); differentiate: make a's laxity
	// smaller while its critical time is later.
	c := mkJobWithExec(2, 2000, 0, 1950) // laxity 50... make 30: exec 1970
	c = mkJobWithExec(2, 2000, 0, 1970)
	w = World{Now: 0, Jobs: []*task.Job{b, c}, Res: res, Acc: 10}
	if d := (LLF{}).Select(w); d.Run != c {
		t.Fatalf("picked %s, want the later-deadline lower-laxity job", d.Run.Name())
	}
	if d := (EDF{}).Select(w); d.Run != b {
		t.Fatalf("EDF picked %s, want the earlier deadline", d.Run.Name())
	}
}

func mkJobWithExec(id int, c rtime.Duration, ar rtime.Time, exec rtime.Duration) *task.Job {
	tk := mkJob(id, c, ar, 0, nil).Task
	tk.Segments = task.InterleavedSegments(exec, 0, nil)
	j := task.NewJob(tk, 0, ar)
	j.EngineSlot = int32(id)
	return j
}

func TestLLFLaxityEvolves(t *testing.T) {
	res := resource.NewMap()
	// Two jobs, nearly equal laxity. As `now` advances without the second
	// job running, its laxity shrinks and it overtakes — the mechanism of
	// mutual preemption (paper Fig 6).
	a := mkJobWithExec(0, 1000, 0, 300) // laxity 700
	b := mkJobWithExec(1, 1100, 0, 390) // laxity 710
	w := World{Now: 0, Jobs: []*task.Job{a, b}, Res: res, Acc: 10}
	if d := (LLF{}).Select(w); d.Run != a {
		t.Fatalf("t=0: picked %s, want a", d.Run.Name())
	}
	// Simulate a running 20 ticks: its laxity stays 700; b's drops to 690.
	a.Step(20, 10)
	w.Now = 20
	if d := (LLF{}).Select(w); d.Run != b {
		t.Fatalf("t=20: picked %s, want b (laxity overtake)", d.Run.Name())
	}
	// And back: b runs 40, laxity pinned at 690; a's drops to 680.
	b.Step(40, 10)
	w.Now = 60
	if d := (LLF{}).Select(w); d.Run != a {
		t.Fatalf("t=60: picked %s, want a again (mutual preemption)", d.Run.Name())
	}
}

func TestLLFSkipsBlocked(t *testing.T) {
	res := resource.NewMap()
	holder := mkJob(0, 5000, 0, 1, []int{0})
	blocked := mkJob(1, 300, 0, 1, []int{0})
	holder.Step(1<<40, 10)
	res.TryAcquire(holder, 0)
	holder.Step(1, 10)
	blocked.Step(1<<40, 10)
	res.TryAcquire(blocked, 0)
	blocked.State = task.Blocked
	w := World{Now: 0, Jobs: []*task.Job{holder, blocked}, Res: res, Acc: 10, LockBased: true}
	if d := (LLF{}).Select(w); d.Run != holder {
		t.Fatalf("picked %v, want holder", d.Run)
	}
}

func TestLLFEmptyAndName(t *testing.T) {
	if (LLF{}).Name() != "llf" {
		t.Fatal("name")
	}
	d := LLF{}.Select(World{Res: resource.NewMap()})
	if d.Run != nil {
		t.Fatal("empty world selected a job")
	}
}
