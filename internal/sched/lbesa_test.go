package sched

import (
	"testing"

	"repro/internal/resource"
	"repro/internal/rtime"
	"repro/internal/task"
	"repro/internal/tuf"
	"repro/internal/uam"
)

func uaJob(id int, util float64, c rtime.Duration, exec rtime.Duration) *task.Job {
	t := &task.Task{
		ID:       id,
		TUF:      tuf.MustStep(util, c),
		Arrival:  uam.Spec{L: 0, A: 1, W: 2 * c},
		Segments: task.InterleavedSegments(exec, 0, nil),
	}
	j := task.NewJob(t, 0, 0)
	j.EngineSlot = int32(id)
	return j
}

func TestLBESAUnderloadIsECF(t *testing.T) {
	res := resource.NewMap()
	a := uaJob(0, 1, 1000, 100)
	b := uaJob(1, 100, 500, 100) // earlier C
	w := World{Now: 0, Jobs: []*task.Job{a, b}, Res: res, Acc: 10}
	if d := (LBESA{}).Select(w); d.Run != b {
		t.Fatalf("picked %s, want ECF head", d.Run.Name())
	}
}

func TestLBESAShedsLowDensityUnderOverload(t *testing.T) {
	res := resource.NewMap()
	// Same shape as the RUA overload test: only one fits.
	low := uaJob(0, 1, 100, 80)
	high := uaJob(1, 100, 120, 80)
	w := World{Now: 0, Jobs: []*task.Job{low, high}, Res: res, Acc: 10}
	if d := (LBESA{}).Select(w); d.Run != high {
		t.Fatalf("picked %s, want the high-density job", d.Run.Name())
	}
}

func TestLBESAShedsRepeatedly(t *testing.T) {
	res := resource.NewMap()
	// Three jobs, only one can fit: the two cheap-utility ones go.
	j1 := uaJob(0, 1, 100, 90)
	j2 := uaJob(1, 2, 110, 90)
	j3 := uaJob(2, 500, 120, 90)
	w := World{Now: 0, Jobs: []*task.Job{j1, j2, j3}, Res: res, Acc: 10}
	if d := (LBESA{}).Select(w); d.Run != j3 {
		t.Fatalf("picked %s, want the only valuable job", d.Run.Name())
	}
}

func TestLBESAEmptyAndDoneFiltering(t *testing.T) {
	res := resource.NewMap()
	if d := (LBESA{}).Select(World{Res: res}); d.Run != nil {
		t.Fatal("empty world selected a job")
	}
	done := uaJob(0, 10, 1000, 100)
	done.State = task.Completed
	live := uaJob(1, 10, 1000, 100)
	w := World{Now: 0, Jobs: []*task.Job{done, live}, Res: res, Acc: 10}
	if d := (LBESA{}).Select(w); d.Run != live {
		t.Fatal("done job not filtered")
	}
}

func TestLBESAAllInfeasibleIdles(t *testing.T) {
	res := resource.NewMap()
	hopeless := uaJob(0, 10, 50, 500)
	w := World{Now: 0, Jobs: []*task.Job{hopeless}, Res: res, Acc: 10}
	if d := (LBESA{}).Select(w); d.Run != nil {
		t.Fatal("hopeless job scheduled")
	}
}

func TestLBESAName(t *testing.T) {
	if (LBESA{}).Name() != "lbesa" {
		t.Fatal("name")
	}
}
