package uam

import (
	"errors"
	"testing"
	"testing/quick"

	"repro/internal/rtime"
)

func TestSpecValidate(t *testing.T) {
	good := []Spec{
		{L: 1, A: 1, W: 100}, {L: 0, A: 1, W: 100}, {L: 2, A: 5, W: 1000},
		{L: 5, A: 5, W: 1}, {L: 1, A: 1, W: 100, Phase: 99},
	}
	for _, s := range good {
		if err := s.Validate(); err != nil {
			t.Errorf("%v should be valid: %v", s, err)
		}
	}
	bad := []Spec{
		{L: 1, A: 1, W: 0}, {L: 1, A: 1, W: -5}, {L: 1, A: 0, W: 100},
		{L: -1, A: 1, W: 100}, {L: 3, A: 2, W: 100},
		{L: 1, A: 1, W: 100, Phase: 100}, {L: 1, A: 1, W: 100, Phase: -1},
	}
	for _, s := range bad {
		if err := s.Validate(); !errors.Is(err, ErrInvalid) {
			t.Errorf("%v should be invalid, got %v", s, err)
		}
	}
}

func TestSpecialCases(t *testing.T) {
	p := Periodic(250)
	if p.L != 1 || p.A != 1 || p.W != 250 {
		t.Fatalf("Periodic = %v", p)
	}
	sp := Sporadic(250)
	if sp.L != 0 || sp.A != 1 || sp.W != 250 {
		t.Fatalf("Sporadic = %v", sp)
	}
	if p.String() != "<1,1,250us>" {
		t.Fatalf("String = %q", p.String())
	}
}

func TestMaxMinArrivalsIn(t *testing.T) {
	s := Spec{L: 1, A: 3, W: 100}
	cases := []struct {
		d        rtime.Duration
		max, min int64
	}{
		{-1, 0, 0},
		{0, 3, 0},   // ceil(0)=0 → a·1
		{1, 6, 0},   // ceil = 1 → a·2
		{100, 6, 1}, // ceil = 1 → a·2; floor = 1
		{101, 9, 1}, // ceil = 2 → a·3
		{250, 9, 2}, // ceil = 3 → a·4 = 12? ceil(250/100)=3 → 3·4=12
	}
	// fix the last row: ceil(250/100)=3 → a(3+1)=12, floor=2
	cases[5].max = 12
	for _, c := range cases {
		if got := s.MaxArrivalsIn(c.d); got != c.max {
			t.Errorf("MaxArrivalsIn(%d) = %d, want %d", c.d, got, c.max)
		}
		if got := s.MinArrivalsIn(c.d); got != c.min {
			t.Errorf("MinArrivalsIn(%d) = %d, want %d", c.d, got, c.min)
		}
	}
}

func TestPeriodicMatchesClassicBound(t *testing.T) {
	// For the periodic special case ⟨1,1,W⟩, MaxArrivalsIn(d) must match
	// the classic ⌈d/W⌉+1 release-count bound used by Anderson et al.
	s := Periodic(100)
	for _, d := range []rtime.Duration{1, 50, 100, 150, 1000} {
		want := rtime.CeilDiv(d, 100) + 1
		if got := s.MaxArrivalsIn(d); got != want {
			t.Errorf("periodic MaxArrivalsIn(%d) = %d, want %d", d, got, want)
		}
	}
}

func TestCheckTraceAcceptsValid(t *testing.T) {
	s := Spec{L: 0, A: 2, W: 100}
	tr := Trace{0, 10, 150, 160, 300}
	if err := CheckTrace(s, tr, 1000); err != nil {
		t.Fatalf("valid trace rejected: %v", err)
	}
}

func TestCheckTraceRejectsBurstOverflow(t *testing.T) {
	s := Spec{L: 0, A: 2, W: 100}
	tr := Trace{0, 10, 20}
	if err := CheckTrace(s, tr, 1000); !errors.Is(err, ErrInvalid) {
		t.Fatalf("overflowing trace accepted: %v", err)
	}
}

func TestCheckTraceRejectsSlidingViolation(t *testing.T) {
	// Windows [0,100) and [100,200) each hold ≤ 2, but [90,190) holds 3.
	s := Spec{L: 0, A: 2, W: 100}
	tr := Trace{0, 90, 110, 189}
	if err := CheckTrace(s, tr, 1000); !errors.Is(err, ErrInvalid) {
		t.Fatalf("sliding violation accepted: %v", err)
	}
}

func TestCheckTraceRejectsStarvation(t *testing.T) {
	s := Spec{L: 1, A: 2, W: 100}
	tr := Trace{0, 250} // window [1,101) is empty
	if err := CheckTrace(s, tr, 400); !errors.Is(err, ErrInvalid) {
		t.Fatalf("starving trace accepted: %v", err)
	}
}

func TestCheckTraceRejectsUnsorted(t *testing.T) {
	s := Spec{L: 0, A: 5, W: 100}
	if err := CheckTrace(s, Trace{50, 10}, 1000); !errors.Is(err, ErrInvalid) {
		t.Fatal("unsorted trace accepted")
	}
}

func TestCheckTraceRejectsOutOfHorizon(t *testing.T) {
	s := Spec{L: 0, A: 5, W: 100}
	if err := CheckTrace(s, Trace{2000}, 1000); !errors.Is(err, ErrInvalid) {
		t.Fatal("out-of-horizon arrival accepted")
	}
}

func TestSimultaneousArrivalsAllowed(t *testing.T) {
	s := Spec{L: 0, A: 3, W: 100}
	tr := Trace{50, 50, 50}
	if err := CheckTrace(s, tr, 1000); err != nil {
		t.Fatalf("simultaneous arrivals within a rejected: %v", err)
	}
}

func TestGeneratorsSatisfySpec(t *testing.T) {
	specs := []Spec{
		Periodic(200),
		{L: 0, A: 3, W: 300},
		{L: 1, A: 1, W: 150},
		{L: 2, A: 4, W: 500},
		{L: 4, A: 4, W: 400},
	}
	kinds := []Kind{KindJittered, KindBursty, KindPeriodic}
	const horizon = rtime.Time(50_000)
	for _, s := range specs {
		for _, k := range kinds {
			g, err := NewGenerator(s, 42)
			if err != nil {
				t.Fatal(err)
			}
			tr := g.Generate(k, horizon)
			if len(tr) == 0 {
				t.Errorf("spec %v kind %d: empty trace", s, k)
				continue
			}
			if err := CheckTrace(s, tr, horizon); err != nil {
				t.Errorf("spec %v kind %d: generated trace invalid: %v", s, k, err)
			}
		}
	}
}

func TestGeneratorDeterministic(t *testing.T) {
	s := Spec{L: 1, A: 3, W: 250}
	g1, _ := NewGenerator(s, 7)
	g2, _ := NewGenerator(s, 7)
	tr1 := g1.Generate(KindJittered, 20_000)
	tr2 := g2.Generate(KindJittered, 20_000)
	if len(tr1) != len(tr2) {
		t.Fatalf("lengths differ: %d vs %d", len(tr1), len(tr2))
	}
	for i := range tr1 {
		if tr1[i] != tr2[i] {
			t.Fatalf("traces diverge at %d: %v vs %v", i, tr1[i], tr2[i])
		}
	}
}

func TestPhaseOffsetsTrace(t *testing.T) {
	// A phased spec must still generate valid traces, and under ⟨1,1,W⟩
	// (where admission forces strict periodicity) the first arrival lands
	// exactly on the phase — this is what desynchronizes the scale
	// workload's clusters.
	const horizon = rtime.Time(50_000)
	for _, phase := range []rtime.Duration{1, 37, 149} {
		s := Spec{L: 1, A: 1, W: 150, Phase: phase}
		for _, k := range []Kind{KindJittered, KindBursty, KindPeriodic} {
			g, err := NewGenerator(s, 42)
			if err != nil {
				t.Fatal(err)
			}
			tr := g.Generate(k, horizon)
			if err := CheckTrace(s, tr, horizon); err != nil {
				t.Fatalf("phase %v kind %d: invalid trace: %v", phase, k, err)
			}
			if len(tr) == 0 || tr[0] != rtime.Time(0).Add(phase) {
				t.Fatalf("phase %v kind %d: first arrival %v, want %v", phase, k, tr[0], phase)
			}
		}
	}
	// Zero phase reproduces the unphased trace tick-for-tick.
	for _, k := range []Kind{KindJittered, KindBursty, KindPeriodic} {
		g0, _ := NewGenerator(Spec{L: 1, A: 2, W: 200}, 7)
		gz, _ := NewGenerator(Spec{L: 1, A: 2, W: 200, Phase: 0}, 7)
		tr0, trz := g0.Generate(k, horizon), gz.Generate(k, horizon)
		if len(tr0) != len(trz) {
			t.Fatalf("kind %d: zero phase changed trace length: %d vs %d", k, len(tr0), len(trz))
		}
		for i := range tr0 {
			if tr0[i] != trz[i] {
				t.Fatalf("kind %d: zero phase diverged at %d: %v vs %v", k, i, tr0[i], trz[i])
			}
		}
	}
}

func TestBurstyHitsMaxBound(t *testing.T) {
	// The bursty adversary should actually achieve bursts of size a.
	s := Spec{L: 0, A: 4, W: 1000}
	g, _ := NewGenerator(s, 1)
	tr := g.Generate(KindBursty, 100_000)
	found := false
	for i := 0; i+3 < len(tr); i++ {
		if tr[i+3].Sub(tr[i]) <= 10 {
			found = true
			break
		}
	}
	if !found {
		t.Fatal("bursty generator never produced a tight burst of size a")
	}
}

func TestNewGeneratorRejectsBadSpec(t *testing.T) {
	if _, err := NewGenerator(Spec{L: 2, A: 1, W: 10}, 0); !errors.Is(err, ErrInvalid) {
		t.Fatal("bad spec accepted")
	}
}

// Property: every generated trace passes CheckTrace and its count over
// the horizon respects the analytic window bounds.
func TestQuickGeneratedTracesValid(t *testing.T) {
	f := func(seed int64, aRaw, lRaw uint8, wRaw uint16, kindRaw uint8) bool {
		a := int(aRaw%5) + 1
		l := int(lRaw) % (a + 1)
		w := rtime.Duration(wRaw%900) + 100
		phase := rtime.Duration(seed%int64(w)+int64(w)) % w // deterministic in [0, w)
		s := Spec{L: l, A: a, W: w, Phase: phase}
		g, err := NewGenerator(s, seed)
		if err != nil {
			return false
		}
		horizon := rtime.Time(20 * w)
		tr := g.Generate(Kind(kindRaw%3), horizon)
		if err := CheckTrace(s, tr, horizon); err != nil {
			t.Logf("spec %v kind %d seed %d: %v", s, kindRaw%3, seed, err)
			return false
		}
		if n := int64(len(tr)); n > s.MaxArrivalsIn(rtime.Duration(horizon)) {
			return false
		}
		return true
	}
	if err := quick.Check(f, &quick.Config{MaxCount: 300}); err != nil {
		t.Fatal(err)
	}
}

// Property: MaxArrivalsIn is monotone in d and superadditive-ish:
// bound(d1+d2) ≤ bound(d1)+bound(d2) (window splitting can only help the
// adversary being counted twice).
func TestQuickMaxArrivalsMonotone(t *testing.T) {
	f := func(aRaw uint8, wRaw uint16, d1Raw, d2Raw uint16) bool {
		s := Spec{L: 0, A: int(aRaw%7) + 1, W: rtime.Duration(wRaw%500) + 1}
		d1 := rtime.Duration(d1Raw)
		d2 := rtime.Duration(d2Raw)
		if s.MaxArrivalsIn(d1) > s.MaxArrivalsIn(d1+d2) {
			return false
		}
		return s.MaxArrivalsIn(d1+d2) <= s.MaxArrivalsIn(d1)+s.MaxArrivalsIn(d2)
	}
	if err := quick.Check(f, &quick.Config{MaxCount: 2000}); err != nil {
		t.Fatal(err)
	}
}

func TestMeanRate(t *testing.T) {
	s := Spec{L: 1, A: 3, W: 100}
	if got := s.MeanRate(); got != 0.02 {
		t.Fatalf("MeanRate = %v, want 0.02", got)
	}
}

func TestStatsBasics(t *testing.T) {
	s := Spec{L: 0, A: 3, W: 100}
	st := Stats(s, Trace{0, 0, 50, 200})
	if st.Count != 4 {
		t.Fatalf("Count = %d", st.Count)
	}
	if st.MinGap != 0 || st.MaxGap != 150 {
		t.Fatalf("gaps = %v..%v", st.MinGap, st.MaxGap)
	}
	if st.SimultaneousPairs != 1 {
		t.Fatalf("simultaneous = %d", st.SimultaneousPairs)
	}
	if st.MaxInWindow != 3 { // {0,0,50} within [0,100)
		t.Fatalf("MaxInWindow = %d", st.MaxInWindow)
	}
	if st.Budget != 3 {
		t.Fatalf("Budget = %d", st.Budget)
	}
	if st.String() == "" || Stats(s, nil).String() != "empty trace" {
		t.Fatal("render")
	}
}

func TestStatsBurstyExercisesBudget(t *testing.T) {
	s := Spec{L: 0, A: 4, W: 500}
	g, _ := NewGenerator(s, 3)
	tr := g.Generate(KindBursty, 50_000)
	st := Stats(s, tr)
	if st.MaxInWindow != s.A {
		t.Fatalf("bursty trace used %d/%d of the window budget", st.MaxInWindow, s.A)
	}
}

// Property: MaxInWindow never exceeds the spec budget on generated
// traces (it is exactly the quantity CheckTrace bounds).
func TestQuickStatsWithinBudget(t *testing.T) {
	f := func(seed int64, aRaw uint8, wRaw uint16, kindRaw uint8) bool {
		s := Spec{L: 0, A: int(aRaw%5) + 1, W: rtime.Duration(wRaw%900) + 50}
		g, err := NewGenerator(s, seed)
		if err != nil {
			return false
		}
		tr := g.Generate(Kind(kindRaw%3), rtime.Time(20*s.W))
		st := Stats(s, tr)
		return st.MaxInWindow <= s.A
	}
	if err := quick.Check(f, &quick.Config{MaxCount: 300}); err != nil {
		t.Fatal(err)
	}
}
