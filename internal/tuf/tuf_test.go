package tuf

import (
	"errors"
	"math"
	"testing"
	"testing/quick"

	"repro/internal/rtime"
)

func TestStepUtility(t *testing.T) {
	s := MustStep(10, 100)
	cases := []struct {
		t    rtime.Duration
		want float64
	}{
		{-1, 0}, {0, 10}, {50, 10}, {99, 10}, {100, 0}, {101, 0},
	}
	for _, c := range cases {
		if got := s.Utility(c.t); got != c.want {
			t.Errorf("Step.Utility(%d) = %v, want %v", c.t, got, c.want)
		}
	}
	if s.CriticalTime() != 100 || s.MaxUtility() != 10 || s.Shape() != "step" {
		t.Fatal("step accessors wrong")
	}
}

func TestLinearUtility(t *testing.T) {
	l := MustLinear(10, 100)
	if got := l.Utility(0); got != 10 {
		t.Errorf("Linear.Utility(0) = %v, want 10", got)
	}
	if got := l.Utility(50); math.Abs(got-5) > 1e-12 {
		t.Errorf("Linear.Utility(50) = %v, want 5", got)
	}
	if got := l.Utility(100); got != 0 {
		t.Errorf("Linear.Utility(C) = %v, want 0", got)
	}
	if got := l.Utility(150); got != 0 {
		t.Errorf("Linear.Utility(>C) = %v, want 0", got)
	}
}

func TestParabolicUtility(t *testing.T) {
	p := MustParabolic(8, 100)
	if got := p.Utility(0); got != 8 {
		t.Errorf("Parabolic.Utility(0) = %v, want 8", got)
	}
	if got := p.Utility(50); math.Abs(got-6) > 1e-12 { // 8·(1−0.25) = 6
		t.Errorf("Parabolic.Utility(50) = %v, want 6", got)
	}
	if got := p.Utility(100); got != 0 {
		t.Errorf("Parabolic.Utility(C) = %v, want 0", got)
	}
	// Parabolic decays slower than linear early on (same U, C).
	l := MustLinear(8, 100)
	if p.Utility(25) <= l.Utility(25) {
		t.Error("parabolic should dominate linear before C/2... actually everywhere in (0,C)")
	}
}

func TestConstructorsRejectBadInput(t *testing.T) {
	if _, err := NewStep(0, 100); !errors.Is(err, ErrInvalid) {
		t.Error("NewStep(0,·) should fail")
	}
	if _, err := NewStep(1, 0); !errors.Is(err, ErrInvalid) {
		t.Error("NewStep(·,0) should fail")
	}
	if _, err := NewStep(math.NaN(), 1); !errors.Is(err, ErrInvalid) {
		t.Error("NewStep(NaN,·) should fail")
	}
	if _, err := NewLinear(-1, 100); !errors.Is(err, ErrInvalid) {
		t.Error("NewLinear(-1,·) should fail")
	}
	if _, err := NewParabolic(1, -5); !errors.Is(err, ErrInvalid) {
		t.Error("NewParabolic(·,-5) should fail")
	}
}

func TestMustPanics(t *testing.T) {
	defer func() {
		if recover() == nil {
			t.Fatal("MustStep should panic on bad input")
		}
	}()
	MustStep(-1, 0)
}

func TestPiecewiseLinear(t *testing.T) {
	// Rise-then-fall shape like the plot-correlation TUF of Fig 1(b).
	p := MustPiecewiseLinear([]Point{{0, 2}, {50, 10}, {100, 0}})
	if got := p.Utility(0); got != 2 {
		t.Errorf("pl.Utility(0) = %v, want 2", got)
	}
	if got := p.Utility(25); math.Abs(got-6) > 1e-12 {
		t.Errorf("pl.Utility(25) = %v, want 6", got)
	}
	if got := p.Utility(50); got != 10 {
		t.Errorf("pl.Utility(50) = %v, want 10", got)
	}
	if got := p.Utility(75); math.Abs(got-5) > 1e-12 {
		t.Errorf("pl.Utility(75) = %v, want 5", got)
	}
	if got := p.Utility(100); got != 0 {
		t.Errorf("pl.Utility(C) = %v, want 0", got)
	}
	if p.CriticalTime() != 100 {
		t.Errorf("pl.CriticalTime() = %v, want 100", p.CriticalTime())
	}
	if p.MaxUtility() != 10 {
		t.Errorf("pl.MaxUtility() = %v, want 10", p.MaxUtility())
	}
}

func TestPiecewiseLinearRejects(t *testing.T) {
	bad := [][]Point{
		{{0, 1}},                    // too few
		{{5, 1}, {10, 0}},           // doesn't start at 0
		{{0, 1}, {10, 5}},           // last not zero
		{{0, 1}, {10, -1}, {20, 0}}, // negative utility
		{{0, 1}, {10, 2}, {10, 0}},  // non-increasing times
		{{0, 0}, {10, 0}},           // all zero
		{{0, math.Inf(1)}, {10, 0}}, // infinite
	}
	for i, pts := range bad {
		if _, err := NewPiecewiseLinear(pts); !errors.Is(err, ErrInvalid) {
			t.Errorf("case %d: expected ErrInvalid, got %v", i, err)
		}
	}
}

func TestNonIncreasing(t *testing.T) {
	if !NonIncreasing(MustStep(5, 100)) {
		t.Error("step should be non-increasing")
	}
	if !NonIncreasing(MustLinear(5, 100)) {
		t.Error("linear should be non-increasing")
	}
	if !NonIncreasing(MustParabolic(5, 100)) {
		t.Error("parabolic should be non-increasing")
	}
	rise := MustPiecewiseLinear([]Point{{0, 2}, {50, 10}, {100, 0}})
	if NonIncreasing(rise) {
		t.Error("rise-then-fall should not be non-increasing")
	}
	fall := MustPiecewiseLinear([]Point{{0, 10}, {50, 4}, {100, 0}})
	if !NonIncreasing(fall) {
		t.Error("falling piecewise should be non-increasing")
	}
}

func TestValidateAllShapes(t *testing.T) {
	shapes := []TUF{
		MustStep(5, 100),
		MustLinear(5, 100),
		MustParabolic(5, 100),
		MustPiecewiseLinear([]Point{{0, 2}, {50, 10}, {100, 0}}),
	}
	for _, f := range shapes {
		if err := Validate(f); err != nil {
			t.Errorf("Validate(%s): %v", f.Shape(), err)
		}
	}
}

type badTUF struct{ Step }

func (badTUF) Utility(t rtime.Duration) float64 { return 1 } // nonzero after C

func TestValidateCatchesViolation(t *testing.T) {
	b := badTUF{MustStep(1, 100)}
	if err := Validate(b); err == nil {
		t.Fatal("Validate should reject nonzero utility after critical time")
	}
}

// TestValidateClosedFormMatchesScan holds Validate's closed-form verdict
// for Step, Linear and Parabolic to the sampled scan's, over heights and
// critical times the constructors would reject as well as accept.
func TestValidateClosedFormMatchesScan(t *testing.T) {
	us := []float64{1, 1e-300, 1e308, 0, -1, math.NaN(), math.Inf(1), math.Inf(-1)}
	cs := []rtime.Duration{-1, 0, 1, 3, 1 << 40}
	for _, u := range us {
		for _, c := range cs {
			for _, f := range []TUF{Step{U: u, C: c}, Linear{U: u, C: c}, Parabolic{U: u, C: c}} {
				closed, scan := Validate(f), validateSampled(f)
				if (closed == nil) != (scan == nil) {
					t.Errorf("%s u=%v c=%v: closed form %v, sampled scan %v", f.Shape(), u, c, closed, scan)
				}
				if closed != nil && !errors.Is(closed, ErrInvalid) {
					t.Errorf("%s u=%v c=%v: error %v does not wrap ErrInvalid", f.Shape(), u, c, closed)
				}
			}
		}
	}
}

// Property: for every shape, utility is 0 outside [0, C) and within
// [0, MaxUtility] inside.
func TestQuickUtilityRange(t *testing.T) {
	mk := []func(u float64, c rtime.Duration) TUF{
		func(u float64, c rtime.Duration) TUF { return MustStep(u, c) },
		func(u float64, c rtime.Duration) TUF { return MustLinear(u, c) },
		func(u float64, c rtime.Duration) TUF { return MustParabolic(u, c) },
	}
	f := func(ui uint8, ci uint16, ti int32, which uint8) bool {
		u := float64(ui)/8 + 0.5
		c := rtime.Duration(ci) + 1
		tt := rtime.Duration(ti)
		fn := mk[int(which)%len(mk)](u, c)
		got := fn.Utility(tt)
		if tt < 0 || tt >= c {
			return got == 0
		}
		return got >= 0 && got <= fn.MaxUtility()+1e-9
	}
	if err := quick.Check(f, &quick.Config{MaxCount: 2000}); err != nil {
		t.Fatal(err)
	}
}

// Property: linear and parabolic are monotone non-increasing on [0, C).
func TestQuickMonotone(t *testing.T) {
	f := func(ci uint16, a, b uint16) bool {
		c := rtime.Duration(ci) + 2
		t1 := rtime.Duration(a) % c
		t2 := rtime.Duration(b) % c
		if t1 > t2 {
			t1, t2 = t2, t1
		}
		l := MustLinear(7, c)
		p := MustParabolic(7, c)
		return l.Utility(t1) >= l.Utility(t2)-1e-12 && p.Utility(t1) >= p.Utility(t2)-1e-12
	}
	if err := quick.Check(f, &quick.Config{MaxCount: 2000}); err != nil {
		t.Fatal(err)
	}
}
