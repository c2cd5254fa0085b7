package wheel

import (
	"math/rand"
	"testing"

	"repro/internal/rtime"
)

// drain pops everything, returning (at, payload) pairs.
func drain(t *testing.T, w *Wheel[int]) (ats []rtime.Time, vals []int) {
	t.Helper()
	for {
		at, v, ok := w.Pop()
		if !ok {
			return ats, vals
		}
		ats = append(ats, at)
		vals = append(vals, v)
	}
}

func TestPopOrderBasics(t *testing.T) {
	w := New[int](0)
	times := []rtime.Time{500, 3, 3, 70_000, 64, 63, 4096, 0, 500}
	for i, at := range times {
		w.Push(at, i)
	}
	if got := w.Len(); got != len(times) {
		t.Fatalf("Len = %d, want %d", got, len(times))
	}
	ats, vals := drain(t, w)
	wantAts := []rtime.Time{0, 3, 3, 63, 64, 500, 500, 4096, 70_000}
	wantVals := []int{7, 1, 2, 5, 4, 0, 8, 6, 3} // same-tick ties in push order
	for i := range wantAts {
		if ats[i] != wantAts[i] || vals[i] != wantVals[i] {
			t.Fatalf("pop %d = (%v, %d), want (%v, %d)", i, ats[i], vals[i], wantAts[i], wantVals[i])
		}
	}
	if w.Len() != 0 {
		t.Fatalf("Len after drain = %d", w.Len())
	}
}

// TestCascadeBoundaries exercises the tick arithmetic at level-window
// edges: times straddling 64-, 4096-, and 262144-tick boundaries must
// still pop in (at, push order), including ties pushed across cascades.
func TestCascadeBoundaries(t *testing.T) {
	w := New[int](0)
	var want []rtime.Time
	for _, at := range []rtime.Time{
		63, 64, 65, 127, 128,
		4095, 4096, 4097,
		262_143, 262_144, 262_145,
		1<<24 - 1, 1 << 24, 1<<24 + 1,
	} {
		w.Push(at, int(at))
		want = append(want, at)
	}
	// Interleave pops with pushes that land inside windows opened by
	// cascading.
	at0, _, _ := w.Pop()
	if at0 != 63 {
		t.Fatalf("first pop %v", at0)
	}
	w.Push(64, -64) // same tick as a queued event, after a pop
	ats, vals := drain(t, w)
	if ats[0] != 64 || vals[0] != 64 || ats[1] != 64 || vals[1] != -64 {
		t.Fatalf("tie across cascade: got (%v,%d) (%v,%d)", ats[0], vals[0], ats[1], vals[1])
	}
	for i, at := range ats {
		if i > 0 && at < ats[i-1] {
			t.Fatalf("out of order at %d: %v after %v", i, at, ats[i-1])
		}
	}
	if len(ats) != len(want) {
		t.Fatalf("popped %d, want %d", len(ats), len(want))
	}
}

// TestStragglers pins the due-path contract: events pushed earlier than
// the last popped time pop before everything still queued, ordered by
// (at, push order).
func TestStragglers(t *testing.T) {
	w := New[int](0)
	w.Push(100, 0)
	w.Push(200, 1)
	if at, _, _ := w.Pop(); at != 100 {
		t.Fatal("setup pop")
	}
	w.Push(50, 2) // straggler
	w.Push(30, 3) // earlier straggler pushed later
	w.Push(50, 4) // tie with the first straggler
	w.Push(150, 5)
	ats, vals := drain(t, w)
	wantAts := []rtime.Time{30, 50, 50, 150, 200}
	wantVals := []int{3, 2, 4, 5, 1}
	for i := range wantAts {
		if ats[i] != wantAts[i] || vals[i] != wantVals[i] {
			t.Fatalf("pop %d = (%v, %d), want (%v, %d)", i, ats[i], vals[i], wantAts[i], wantVals[i])
		}
	}
}

// TestDifferentialVsRef is the wheel's correctness anchor: on randomized
// seeded event streams — bursts of same-tick ties, straggler pushes
// behind the popped front, and bounded peeks between them — the wheel
// and the retained reference heap must produce identical peek and pop
// sequences, value for value. Run under -race in CI (no shared state;
// the race detector still exercises the generic code paths).
func TestDifferentialVsRef(t *testing.T) {
	for seed := int64(1); seed <= 20; seed++ {
		rng := rand.New(rand.NewSource(seed))
		w := New[int](0)
		r := NewRef[int](0)
		nextVal := 0
		maxAt := rtime.Time(0)
		lastPop := rtime.Time(-1)
		pops := 0
		for op := 0; op < 5000; op++ {
			switch p := rng.Intn(10); {
			case p < 5: // push
				var at rtime.Time
				switch rng.Intn(4) {
				case 0: // tie with an existing time
					at = maxAt - rtime.Time(rng.Intn(3))
				case 1: // straggler behind the popped front
					at = lastPop - rtime.Time(rng.Intn(10))
				default:
					at = maxAt + rtime.Time(rng.Intn(1000))
				}
				if at < 0 {
					at = 0
				}
				if at > maxAt {
					maxAt = at
				}
				w.Push(at, nextVal)
				r.Push(at, nextVal)
				nextVal++
			case p < 8: // pop
				wa, wv, wok := w.Pop()
				ra, rv, rok := r.Pop()
				if wok != rok || wa != ra || wv != rv {
					t.Fatalf("seed %d op %d: wheel pop (%v,%d,%v) != ref pop (%v,%d,%v)",
						seed, op, wa, wv, wok, ra, rv, rok)
				}
				if wok {
					pops++
					lastPop = wa
				}
			default: // peek, bounded somewhere around the popped front
				limit := lastPop + rtime.Time(rng.Intn(2000)) - 100
				if rng.Intn(4) == 0 {
					limit = rtime.Infinity
				}
				wa, wv, wok := w.Peek(limit)
				ra, rv, rok := r.Peek(limit)
				if wok != rok || wa != ra || wv != rv {
					t.Fatalf("seed %d op %d: wheel peek(%v) (%v,%d,%v) != ref peek (%v,%d,%v)",
						seed, op, limit, wa, wv, wok, ra, rv, rok)
				}
			}
			if w.Len() != r.Len() {
				t.Fatalf("seed %d op %d: Len %d != %d", seed, op, w.Len(), r.Len())
			}
		}
		// Drain both completely.
		for {
			wa, wv, wok := w.Pop()
			ra, rv, rok := r.Pop()
			if wok != rok || wa != ra || wv != rv {
				t.Fatalf("seed %d drain: wheel (%v,%d,%v) != ref (%v,%d,%v)", seed, wa, wv, wok, ra, rv, rok)
			}
			if !wok {
				break
			}
			pops++
		}
		if pops == 0 {
			t.Fatalf("seed %d: degenerate run, no pops", seed)
		}
	}
}

// TestPeekLimit pins the bounded peek: it reports the head only when the
// head's time is at most the limit, and it never removes anything.
func TestPeekLimit(t *testing.T) {
	w := New[int](0)
	w.Push(5000, 1)
	w.Push(5000, 2)
	w.Push(70, 3)
	if _, _, ok := w.Peek(69); ok {
		t.Fatal("peek below the head reported an event")
	}
	if at, v, ok := w.Peek(70); !ok || at != 70 || v != 3 {
		t.Fatalf("peek(70) = (%v, %d, %v)", at, v, ok)
	}
	w.Pop()
	if _, _, ok := w.Peek(4999); ok {
		t.Fatal("peek below the remaining head reported an event")
	}
	w.Push(100, 4) // at or after the limit peeked, so not a straggler
	if at, v, ok := w.Peek(rtime.Infinity); !ok || at != 100 || v != 4 {
		t.Fatalf("unbounded peek = (%v, %d, %v)", at, v, ok)
	}
	if w.Len() != 3 {
		t.Fatalf("Len = %d after peeks, want 3", w.Len())
	}
	_, vals := drain(t, w)
	if want := []int{4, 1, 2}; len(vals) != 3 || vals[0] != want[0] || vals[1] != want[1] || vals[2] != want[2] {
		t.Fatalf("drain = %v, want %v", vals, want)
	}
}

// TestSteadyStateNoAlloc verifies the zero-alloc contract: once the
// arena has warmed up, push/pop cycles allocate nothing.
func TestSteadyStateNoAlloc(t *testing.T) {
	w := New[int](256)
	for i := 0; i < 256; i++ {
		w.Push(rtime.Time(i*17%251), i)
	}
	for w.Len() > 0 {
		w.Pop()
	}
	at := rtime.Time(1000)
	allocs := testing.AllocsPerRun(1000, func() {
		for i := 0; i < 64; i++ {
			at += rtime.Time(i % 7)
			w.Push(at, i)
		}
		for w.Len() > 0 {
			w.Pop()
		}
	})
	if allocs != 0 {
		t.Fatalf("steady-state allocs/run = %v, want 0", allocs)
	}
}
