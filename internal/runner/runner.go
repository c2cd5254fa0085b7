// Package runner is the bounded worker-pool fan-out engine behind the
// parallel experiment sweeps. Each simulation run in internal/experiment
// is a pure function of its sim.Config — virtual time, per-run seeded UAM
// generators, no shared mutable state — so the (experiment × seed ×
// sweep-point × mode) grid is embarrassingly parallel. What is NOT free
// is determinism of the merged output: the paper's tables must come out
// byte-identical whether they were computed on one worker or sixteen.
//
// The engine therefore never communicates results through channels
// (whose receive order depends on scheduling) and never derives per-run
// inputs from shared RNG state. Work item i writes its result into slot
// i of a preallocated result slice; indices are claimed from an atomic
// counter in ascending order; the merge is a plain index-order read.
// Any interleaving of workers yields the same slice.
//
// Error semantics: the FIRST error in index order wins, matching what a
// sequential loop would have returned. Because indices are claimed in
// ascending order, every index below a failed one has already been
// claimed when the failure is observed, and the pool drains those
// in-flight items before returning — so the lowest-index error is fully
// determined by the work items themselves, not by scheduling. Indices
// not yet claimed when a failure is observed are skipped (they are all
// above the failing index). Panics inside a work item are contained and
// reported as errors carrying the panic value and stack, never torn
// down the whole process.
package runner

import (
	"fmt"
	"runtime"
	"sync"
	"sync/atomic"
)

// Jobs normalizes a worker-count knob: values < 1 (the "default" zero
// value) mean one worker per available CPU, runtime.GOMAXPROCS(0).
func Jobs(n int) int {
	if n < 1 {
		return runtime.GOMAXPROCS(0)
	}
	return n
}

// PanicError wraps a panic recovered from a work item.
type PanicError struct {
	Index int
	Value any
	Stack []byte
}

// Error implements error.
func (e *PanicError) Error() string {
	return fmt.Sprintf("runner: work item %d panicked: %v\n%s", e.Index, e.Value, e.Stack)
}

// Map executes fn(0..n-1) on up to jobs workers (jobs < 1 means
// GOMAXPROCS) and returns the results in index order. The merge is
// deterministic: result i lands in slot i regardless of worker count or
// interleaving. On failure the returned error is the one a sequential
// loop would have hit first (lowest index), and the result slice is nil.
func Map[T any](jobs, n int, fn func(i int) (T, error)) ([]T, error) {
	if n <= 0 {
		return nil, nil
	}
	out := make([]T, n)
	errs := make([]error, n)
	run := func(i int) {
		defer func() {
			if r := recover(); r != nil {
				buf := make([]byte, 4096)
				buf = buf[:runtime.Stack(buf, false)]
				errs[i] = &PanicError{Index: i, Value: r, Stack: buf}
			}
		}()
		out[i], errs[i] = fn(i)
	}
	if jobs = Jobs(jobs); jobs > n {
		jobs = n
	}
	if jobs == 1 {
		// Inline fast path: no goroutines, but identical semantics (every
		// claimed item runs to completion; claiming stops after a failure).
		for i := 0; i < n; i++ {
			run(i)
			if errs[i] != nil {
				return nil, errs[i]
			}
		}
		return out, nil
	}
	var (
		next   atomic.Int64
		failed atomic.Bool
		wg     sync.WaitGroup
	)
	for w := 0; w < jobs; w++ {
		wg.Add(1)
		go func() {
			defer wg.Done()
			for {
				i := int(next.Add(1)) - 1
				if i >= n || failed.Load() {
					return
				}
				run(i)
				if errs[i] != nil {
					failed.Store(true)
				}
			}
		}()
	}
	wg.Wait()
	for _, err := range errs {
		if err != nil {
			return nil, err
		}
	}
	return out, nil
}

// Grid runs fn over every (point × variant × rep) cell of a sweep on up
// to jobs workers and returns the results as out[pt][v][rep]. It is Map
// over the flattened grid, cell order point-major, then variant, then
// rep (flat index (pt·variants + v)·reps + rep), so it inherits Map's
// guarantees: the result is identical for any worker count, the error is
// the one with the lowest flat index, and a panic surfaces as a
// *PanicError whose Index is that flat index. A zero-size axis runs
// nothing.
func Grid[T any](jobs, points, variants, reps int, fn func(pt, v, rep int) (T, error)) ([][][]T, error) {
	flat, err := Map(jobs, points*variants*reps, func(i int) (T, error) {
		return fn(i/(variants*reps), i/reps%variants, i%reps)
	})
	if err != nil {
		return nil, err
	}
	out := make([][][]T, points)
	for pt := range out {
		out[pt] = make([][]T, variants)
		for v := range out[pt] {
			lo := (pt*variants + v) * reps
			out[pt][v] = flat[lo : lo+reps : lo+reps]
		}
	}
	return out, nil
}
