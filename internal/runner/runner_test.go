package runner

import (
	"errors"
	"fmt"
	"reflect"
	"runtime"
	"strings"
	"sync/atomic"
	"testing"
)

func TestMapOrderPreserved(t *testing.T) {
	for _, jobs := range []int{1, 2, 4, 13} {
		t.Run(fmt.Sprintf("jobs=%d", jobs), func(t *testing.T) {
			const n = 200
			out, err := Map(jobs, n, func(i int) (int, error) {
				if i%3 == 0 {
					runtime.Gosched() // perturb interleavings
				}
				return i * i, nil
			})
			if err != nil {
				t.Fatal(err)
			}
			if len(out) != n {
				t.Fatalf("got %d results", len(out))
			}
			for i, v := range out {
				if v != i*i {
					t.Fatalf("slot %d = %d, want %d", i, v, i*i)
				}
			}
		})
	}
}

func TestMapEmpty(t *testing.T) {
	out, err := Map(4, 0, func(i int) (int, error) { return 0, nil })
	if err != nil || out != nil {
		t.Fatalf("empty map: out=%v err=%v", out, err)
	}
}

func TestMapDefaultJobs(t *testing.T) {
	// jobs <= 0 means GOMAXPROCS; must still work and preserve order.
	out, err := Map(0, 50, func(i int) (int, error) { return i, nil })
	if err != nil {
		t.Fatal(err)
	}
	for i, v := range out {
		if v != i {
			t.Fatalf("slot %d = %d", i, v)
		}
	}
	if j := Jobs(0); j != runtime.GOMAXPROCS(0) {
		t.Fatalf("Jobs(0) = %d, want GOMAXPROCS %d", j, runtime.GOMAXPROCS(0))
	}
	if j := Jobs(3); j != 3 {
		t.Fatalf("Jobs(3) = %d", j)
	}
}

// TestMapFirstErrorWins: the returned error must be the lowest-index one
// — what a sequential loop would have hit — regardless of worker count,
// and every work item claimed before the failure must run to completion
// (workers drain; no goroutine abandons an in-flight item).
func TestMapFirstErrorWins(t *testing.T) {
	errLow := errors.New("low")
	errHigh := errors.New("high")
	for _, jobs := range []int{1, 2, 8} {
		t.Run(fmt.Sprintf("jobs=%d", jobs), func(t *testing.T) {
			const n = 64
			var started, finished atomic.Int64
			_, err := Map(jobs, n, func(i int) (int, error) {
				started.Add(1)
				defer finished.Add(1)
				switch i {
				case 40:
					// Fail fast at a high index to race the low one.
					return 0, errHigh
				case 7:
					// Burn a little time so index 40 can error first.
					for k := 0; k < 1000; k++ {
						runtime.Gosched()
					}
					return 0, errLow
				}
				return i, nil
			})
			if !errors.Is(err, errLow) {
				t.Fatalf("got error %v, want lowest-index error %v", err, errLow)
			}
			if s, f := started.Load(), finished.Load(); s != f {
				t.Fatalf("pool did not drain: %d started, %d finished", s, f)
			}
		})
	}
}

// TestMapErrorSkipsTail: after a failure, indices not yet claimed are
// skipped — the pool does not pointlessly run the rest of a large grid.
func TestMapErrorSkipsTail(t *testing.T) {
	const n = 10_000
	var ran atomic.Int64
	boom := errors.New("boom")
	_, err := Map(2, n, func(i int) (int, error) {
		ran.Add(1)
		if i == 0 {
			return 0, boom
		}
		return i, nil
	})
	if !errors.Is(err, boom) {
		t.Fatalf("err = %v", err)
	}
	if r := ran.Load(); r == n {
		t.Fatalf("all %d items ran despite early failure", n)
	}
}

func TestMapPanicContained(t *testing.T) {
	for _, jobs := range []int{1, 4} {
		t.Run(fmt.Sprintf("jobs=%d", jobs), func(t *testing.T) {
			_, err := Map(jobs, 16, func(i int) (int, error) {
				if i == 5 {
					panic("kaboom")
				}
				return i, nil
			})
			if err == nil {
				t.Fatal("panic not surfaced as error")
			}
			var pe *PanicError
			if !errors.As(err, &pe) {
				t.Fatalf("error %T is not a PanicError", err)
			}
			if pe.Index != 5 || pe.Value != "kaboom" {
				t.Fatalf("panic error = index %d value %v", pe.Index, pe.Value)
			}
			if !strings.Contains(err.Error(), "kaboom") {
				t.Fatalf("error text missing panic value: %v", err)
			}
		})
	}
}

// TestMapMoreJobsThanWork: worker count is clamped to n.
func TestMapMoreJobsThanWork(t *testing.T) {
	out, err := Map(64, 3, func(i int) (int, error) { return i + 1, nil })
	if err != nil {
		t.Fatal(err)
	}
	if out[0] != 1 || out[1] != 2 || out[2] != 3 {
		t.Fatalf("out = %v", out)
	}
}

// gridCell records which cell a Grid work item was handed.
type gridCell struct{ pt, v, rep int }

// TestGridShape: cell (pt, v, rep) lands at out[pt][v][rep], and the
// grid is identical for any worker count.
func TestGridShape(t *testing.T) {
	const points, variants, reps = 5, 3, 4
	var want [][][]gridCell
	for _, jobs := range []int{1, 8} {
		out, err := Grid(jobs, points, variants, reps, func(pt, v, rep int) (gridCell, error) {
			if rep%2 == 0 {
				runtime.Gosched() // perturb interleavings
			}
			return gridCell{pt, v, rep}, nil
		})
		if err != nil {
			t.Fatal(err)
		}
		if len(out) != points {
			t.Fatalf("jobs=%d: %d points", jobs, len(out))
		}
		for pt := range out {
			if len(out[pt]) != variants {
				t.Fatalf("jobs=%d: point %d has %d variants", jobs, pt, len(out[pt]))
			}
			for v := range out[pt] {
				if len(out[pt][v]) != reps {
					t.Fatalf("jobs=%d: cell (%d,%d) has %d reps", jobs, pt, v, len(out[pt][v]))
				}
				for rep, c := range out[pt][v] {
					if c != (gridCell{pt, v, rep}) {
						t.Fatalf("jobs=%d: out[%d][%d][%d] = %+v", jobs, pt, v, rep, c)
					}
				}
			}
		}
		if want == nil {
			want = out
		} else if !reflect.DeepEqual(out, want) {
			t.Fatalf("jobs=%d grid differs from jobs=1", jobs)
		}
	}
}

// TestGridFirstErrorWins: the reported error is the one with the lowest
// flat index — point-major, then variant, then rep — whatever the worker
// count.
func TestGridFirstErrorWins(t *testing.T) {
	for _, jobs := range []int{1, 8} {
		t.Run(fmt.Sprintf("jobs=%d", jobs), func(t *testing.T) {
			_, err := Grid(jobs, 3, 3, 3, func(pt, v, rep int) (int, error) {
				switch {
				case pt == 2 && v == 0 && rep == 0:
					return 0, errors.New("later point")
				case pt == 1 && v == 2 && rep == 0:
					return 0, errors.New("later variant")
				case pt == 1 && v == 1 && rep == 2:
					return 0, errors.New("lowest")
				}
				return 0, nil
			})
			if err == nil || err.Error() != "lowest" {
				t.Fatalf("err = %v, want the (1,1,2) error", err)
			}
		})
	}
}

func TestGridPanicContained(t *testing.T) {
	for _, jobs := range []int{1, 8} {
		t.Run(fmt.Sprintf("jobs=%d", jobs), func(t *testing.T) {
			_, err := Grid(jobs, 2, 3, 4, func(pt, v, rep int) (int, error) {
				if pt == 1 && v == 2 && rep == 1 {
					panic("kaboom")
				}
				return 0, nil
			})
			var pe *PanicError
			if !errors.As(err, &pe) {
				t.Fatalf("error %v (%T) is not a PanicError", err, err)
			}
			if want := (1*3+2)*4 + 1; pe.Index != want || pe.Value != "kaboom" {
				t.Fatalf("panic error = index %d value %v, want index %d", pe.Index, pe.Value, want)
			}
		})
	}
}

// TestGridZeroAxis: a zero-size axis runs nothing and still returns the
// outer axes' shape.
func TestGridZeroAxis(t *testing.T) {
	for _, dims := range [][3]int{{0, 2, 2}, {2, 0, 2}, {2, 2, 0}, {0, 0, 0}} {
		called := false
		out, err := Grid(4, dims[0], dims[1], dims[2], func(pt, v, rep int) (int, error) {
			called = true
			return 0, nil
		})
		if err != nil || called {
			t.Fatalf("dims %v: err=%v called=%v", dims, err, called)
		}
		if len(out) != dims[0] {
			t.Fatalf("dims %v: %d points", dims, len(out))
		}
		for _, vs := range out {
			if len(vs) != dims[1] {
				t.Fatalf("dims %v: %d variants", dims, len(vs))
			}
			for _, reps := range vs {
				if len(reps) != 0 {
					t.Fatalf("dims %v: %d reps", dims, len(reps))
				}
			}
		}
	}
}
