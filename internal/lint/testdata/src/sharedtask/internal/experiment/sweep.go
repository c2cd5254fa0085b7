// Package experiment is a sharedtask fixture: the analyzer keys on calls
// of runSweep in a package whose import path is suffixed
// internal/experiment.
package experiment

import "sharedtask/internal/task"

// config stands in for a run's config: its tasks are the cell's own
// clones.
type config struct {
	Tasks []*task.Task
}

// runSweep mimics the sweep entry point: every cell edits and runs a
// config over its own clone of the template.
func runSweep[T any](template []*task.Task, cells int, edit func(*config), cell func(cfg config, i int) (T, error)) ([]T, error) {
	out := make([]T, cells)
	for i := range out {
		cfg := config{Tasks: task.CloneAll(template)}
		edit(&cfg)
		v, err := cell(cfg, i)
		if err != nil {
			return nil, err
		}
		out[i] = v
	}
	return out, nil
}

// measured wraps a measure closure into a sweep cell.
func measured(measure func(n int) int) func(config, int) (int, error) {
	return func(cfg config, _ int) (int, error) { return measure(len(cfg.Tasks)), nil }
}

// BadSweepCell captures the live template in the cell closure: flagged.
func BadSweepCell(template []*task.Task) ([]int, error) {
	return runSweep(template, 2, func(*config) {}, func(cfg config, i int) (int, error) {
		template[0].State = i // want `\[\]\*sharedtask/internal/task\.Task "template" captured by closure passed to runSweep without Clone/CloneAll`
		return len(cfg.Tasks), nil
	})
}

// BadSweepWrapped captures the live template in a measure closure the
// cell wraps: still a closure passed to runSweep, flagged.
func BadSweepWrapped(template []*task.Task) ([]int, error) {
	return runSweep(template, 2, func(*config) {}, measured(func(n int) int {
		return template[0].ID + n // want `\[\]\*sharedtask/internal/task\.Task "template" captured by closure passed to runSweep without Clone/CloneAll`
	}))
}

// GoodSweepEdit rewrites only the cell's own clones, in the edit and in
// the cell: not flagged.
func GoodSweepEdit(template []*task.Task) ([]int, error) {
	return runSweep(template, 2, func(cfg *config) {
		for i, t := range cfg.Tasks {
			t.ID = 100 + i
		}
	}, func(cfg config, i int) (int, error) {
		cfg.Tasks[0].State = i
		return cfg.Tasks[0].ID, nil
	})
}
