package experiment

import (
	"reflect"
	"testing"

	"repro/internal/sim"
	"repro/internal/task"
)

// segmentObjects lists every segment's object, task by task.
func segmentObjects(tasks []*task.Task) [][]int {
	out := make([][]int, len(tasks))
	for i, t := range tasks {
		for _, seg := range t.Segments {
			out[i] = append(out[i], seg.Object)
		}
	}
	return out
}

// TestRunSweepCellIsolation pins runSweep's clone-per-cell contract: a
// variant edit that rewrites its cell's segment objects, as the stoch
// sweep's private-object control does, must reach neither the other
// variant's cells nor the shared template, at any worker count.
func TestRunSweepCellIsolation(t *testing.T) {
	w := WorkloadSpec{
		NumTasks: PaperTasks, NumObjects: 5, AccessesPerJob: 4,
		MeanExec: 500, TargetAL: 0.5, Class: StepTUFs, MaxArrivals: 2,
	}
	template, err := w.Build()
	if err != nil {
		t.Fatal(err)
	}
	want := segmentObjects(template)
	points := []sweepPoint{{tasks: template}, {tasks: template}}
	variants := []variant{
		func(cfg *sim.Config) { privatizeObjects(cfg.Tasks, w.NumObjects) },
		func(*sim.Config) {},
	}
	for _, jobs := range []int{1, 8} {
		p := Quick
		p.Jobs, p.Seeds = jobs, []int64{1, 2, 3, 4}
		seen, err := runSweep(p, points, variants, func(cfg sim.Config, _, _ int) ([][]int, error) {
			return segmentObjects(cfg.Tasks), nil
		})
		if err != nil {
			t.Fatal(err)
		}
		for pi := range points {
			for rep, got := range seen[pi][1] {
				if !reflect.DeepEqual(got, want) {
					t.Fatalf("jobs=%d point %d seed %d: variant 1 saw objects %v, want the template's %v",
						jobs, pi, rep, got, want)
				}
			}
			if reflect.DeepEqual(seen[pi][0][0], want) {
				t.Fatalf("jobs=%d point %d: variant 0's edit did not rewrite its objects", jobs, pi)
			}
		}
		if got := segmentObjects(template); !reflect.DeepEqual(got, want) {
			t.Fatalf("jobs=%d: template objects changed to %v, want %v", jobs, got, want)
		}
	}
}
