// Package app is the sharedtask fixture exercising captures of task
// values by closures handed to the parallel engine.
package app

import (
	"sharedtask/internal/runner"
	"sharedtask/internal/task"
)

// BadSlice captures the live template slice with no clone anywhere:
// flagged at the first use inside the closure.
func BadSlice(tasks []*task.Task) ([]int, error) {
	return runner.Map(0, 4, func(i int) (int, error) {
		tasks[0].State = i // want `\[\]\*sharedtask/internal/task\.Task "tasks" captured by closure passed to runner\.Map without Clone/CloneAll`
		return 0, nil
	})
}

// BadGrid captures the live template slice in a sweep-grid closure with
// no clone anywhere: flagged.
func BadGrid(tasks []*task.Task) ([][][]int, error) {
	return runner.Grid(0, 2, 2, 2, func(pt, v, rep int) (int, error) {
		tasks[pt].State = v // want `\[\]\*sharedtask/internal/task\.Task "tasks" captured by closure passed to runner\.Grid without Clone/CloneAll`
		return rep, nil
	})
}

// GoodGridCloneInside clones the templates inside the sweep-grid
// closure: every cell runs on its own copy, not flagged.
func GoodGridCloneInside(templates [][]*task.Task) ([][][]int, error) {
	return runner.Grid(0, len(templates), 2, 2, func(pt, v, rep int) (int, error) {
		mine := task.CloneAll(templates[pt])
		mine[0].State = v
		return mine[0].ID + rep, nil
	})
}

// BadSingle captures one live task: flagged.
func BadSingle(t *task.Task) ([]int, error) {
	return runner.Map(0, 4, func(i int) (int, error) {
		t.State = i // want `\*sharedtask/internal/task\.Task "t" captured by closure passed to runner\.Map without Clone/CloneAll`
		return t.ID, nil
	})
}

// GoodCloneInside clones inside the closure before touching anything:
// each worker gets its own copy, not flagged.
func GoodCloneInside(tasks []*task.Task) ([]int, error) {
	return runner.Map(0, 4, func(i int) (int, error) {
		mine := task.CloneAll(tasks)
		mine[0].State = i
		return mine[0].ID, nil
	})
}

// GoodCloneBefore captures a clone made in the enclosing function: the
// closure never sees the caller's live tasks, not flagged.
func GoodCloneBefore(tasks []*task.Task) ([]int, error) {
	snapshot := task.CloneAll(tasks)
	return runner.Map(0, 4, func(i int) (int, error) {
		snapshot[0].State = i
		return snapshot[0].ID, nil
	})
}

// GoodMethodClone clones a single task via its method inside the
// closure: not flagged.
func GoodMethodClone(t *task.Task) ([]int, error) {
	return runner.Map(0, 4, func(i int) (int, error) {
		mine := t.Clone()
		mine.State = i
		return mine.ID, nil
	})
}

// GoodUnrelated captures no task values at all: not flagged.
func GoodUnrelated(weights []float64) ([]int, error) {
	return runner.Map(0, len(weights), func(i int) (int, error) {
		return int(weights[i] * 10), nil
	})
}
