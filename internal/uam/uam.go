// Package uam implements the unimodal arbitrary arrival model (UAM) of
// Hermant and Le Lann, the arrival "adversary" the paper analyzes.
//
// A task's arrival behaviour is a tuple ⟨l, a, W⟩: during ANY sliding time
// window of length W, the number of job arrivals is at least l and at most
// a. Jobs may arrive simultaneously. The periodic model is the special
// case ⟨1, 1, W⟩; sporadic arrivals with minimum inter-arrival time W are
// ⟨0, 1, W⟩. Because the window slides, UAM is a strictly stronger
// adversary than the common "at most a per period" models: a arrivals may
// cluster at the end of one window and a more at the start of the next,
// giving bursts of up to 2a in ~W time.
//
// The package provides the spec type with the window-counting bounds used
// by Theorem 2 and Lemmas 4–5, admission-checked trace generators (bursty,
// jittered, and periodic), and an exact sliding-window validator.
package uam

import (
	"errors"
	"fmt"
	"math/rand"
	"sort"

	"repro/internal/rtime"
)

// Spec is a UAM arrival specification ⟨l, a, W⟩, optionally with a
// release phase.
type Spec struct {
	L int            // minimal arrivals in any window of length W
	A int            // maximal arrivals in any window of length W
	W rtime.Duration // sliding window length

	// Phase is the task's release offset: generators start the trace at
	// Phase instead of 0, the standard phasing of real-time task models.
	// It must stay within [0, W) so the window at time 0 can still
	// receive its l mandatory arrivals. Without phases every ⟨l,·,·⟩ task
	// is forced to release at time 0 (latestRequired's startup rule),
	// which synchronizes arbitrarily large task sets into one thundering
	// herd; spreading phases keeps the instantaneous backlog proportional
	// to load instead of population. A zero Phase reproduces the
	// unphased traces tick-for-tick.
	Phase rtime.Duration
}

// ErrInvalid reports a malformed UAM specification or trace.
var ErrInvalid = errors.New("uam: invalid")

// Periodic returns the UAM special case ⟨1, 1, W⟩ of a periodic task with
// period W.
func Periodic(w rtime.Duration) Spec { return Spec{L: 1, A: 1, W: w} }

// Sporadic returns ⟨0, 1, W⟩: a minimum inter-arrival separation of W
// with no guaranteed minimum rate.
func Sporadic(w rtime.Duration) Spec { return Spec{L: 0, A: 1, W: w} }

// Validate checks the structural constraints on a spec.
func (s Spec) Validate() error {
	if s.W <= 0 {
		return fmt.Errorf("%w: window %v must be positive", ErrInvalid, s.W)
	}
	if s.A < 1 {
		return fmt.Errorf("%w: a=%d must be ≥ 1", ErrInvalid, s.A)
	}
	if s.L < 0 || s.L > s.A {
		return fmt.Errorf("%w: need 0 ≤ l ≤ a, got l=%d a=%d", ErrInvalid, s.L, s.A)
	}
	if s.Phase < 0 || s.Phase >= s.W {
		return fmt.Errorf("%w: phase %v must lie in [0, W=%v)", ErrInvalid, s.Phase, s.W)
	}
	return nil
}

// String renders the spec as the paper's tuple notation, with the phase
// appended only when one is set.
func (s Spec) String() string {
	if s.Phase != 0 {
		return fmt.Sprintf("<%d,%d,%v>@%v", s.L, s.A, s.W, s.Phase)
	}
	return fmt.Sprintf("<%d,%d,%v>", s.L, s.A, s.W)
}

// MaxArrivalsIn returns the maximum number of arrivals possible in any
// interval of length d: a·(⌈d/W⌉ + 1). This is the window-counting bound
// used throughout Theorem 2's proof — the "+1" accounts for a full burst
// of a arrivals clustered at the very start of the interval, carried over
// from the window that straddles the interval's left edge.
func (s Spec) MaxArrivalsIn(d rtime.Duration) int64 {
	if d < 0 {
		return 0
	}
	return int64(s.A) * (rtime.CeilDiv(d, s.W) + 1)
}

// MinArrivalsIn returns the guaranteed minimum number of arrivals in any
// interval of length d: l·⌊d/W⌋ (Lemma 4's lower bound).
func (s Spec) MinArrivalsIn(d rtime.Duration) int64 {
	if d < 0 {
		return 0
	}
	return int64(s.L) * rtime.FloorDiv(d, s.W)
}

// MeanRate returns the long-run arrival rate in jobs per tick, taking the
// midpoint of [l/W, a/W]. Used by workload generators to size loads.
func (s Spec) MeanRate() float64 {
	return (float64(s.L) + float64(s.A)) / (2 * float64(s.W))
}

// Inflated returns the loosest spec that a conforming trace still obeys
// after adversarial perturbation: each arrival may be delayed by up to
// jitter ticks, and up to extra additional arrivals may be injected at
// each natural arrival instant. The window stays W; the burst bound
// becomes MaxArrivalsIn(W+jitter)·(1+extra), because every arrival
// landing in a window [x, x+W) after delays of ≤ jitter originated in
// [x−jitter, x+W), and each original arrival brings at most extra
// copies. Delays can empty a window, so the minimum bound drops to 0.
// Fault injection uses this to compute the effective ⟨l,a,W⟩ vector
// Theorem 2 is re-checked against when the declared one is violated.
func (s Spec) Inflated(jitter rtime.Duration, extra int) Spec {
	if jitter < 0 {
		jitter = 0
	}
	if extra < 0 {
		extra = 0
	}
	if jitter == 0 && extra == 0 {
		return s
	}
	a := s.MaxArrivalsIn(s.W+jitter) * int64(1+extra)
	return Spec{L: 0, A: int(a), W: s.W, Phase: s.Phase}
}

// Trace is a non-decreasing sequence of arrival instants.
type Trace []rtime.Time

// CheckTrace verifies that a trace obeys the spec over the horizon
// [0, horizon): every sliding window of length W fully inside the horizon
// contains at most A arrivals, and (if l > 0) at least L arrivals. The
// check is exact at tick granularity: the sliding-window count changes
// only at arrival instants, so it suffices to evaluate windows starting
// at 0, at each arrival, and one tick after each arrival.
func CheckTrace(s Spec, tr Trace, horizon rtime.Time) error {
	if err := s.Validate(); err != nil {
		return err
	}
	if !sort.SliceIsSorted(tr, func(i, j int) bool { return tr[i] < tr[j] }) {
		return fmt.Errorf("%w: trace is not sorted", ErrInvalid)
	}
	for _, t := range tr {
		if t < 0 || t >= horizon {
			return fmt.Errorf("%w: arrival %v outside [0, %v)", ErrInvalid, t, horizon)
		}
	}
	// countIn returns |{t ∈ tr : x ≤ t < x+W}|.
	countIn := func(x rtime.Time) int {
		lo := sort.Search(len(tr), func(i int) bool { return tr[i] >= x })
		hi := sort.Search(len(tr), func(i int) bool { return tr[i] >= x.Add(rtime.Duration(s.W)) })
		return hi - lo
	}
	// Max check: the count is maximized by windows starting at arrivals.
	for _, t := range tr {
		if n := countIn(t); n > s.A {
			return fmt.Errorf("%w: window [%v,%v) has %d arrivals > a=%d", ErrInvalid, t, t.Add(s.W), n, s.A)
		}
	}
	// Min check: the count is minimized just after a window start passes an
	// arrival. Only windows fully inside the horizon are constrained.
	if s.L > 0 {
		starts := make([]rtime.Time, 0, len(tr)+1)
		starts = append(starts, 0)
		for _, t := range tr {
			starts = append(starts, t+1)
		}
		for _, x := range starts {
			if x.Add(s.W) > horizon {
				continue
			}
			if n := countIn(x); n < s.L {
				return fmt.Errorf("%w: window [%v,%v) has %d arrivals < l=%d", ErrInvalid, x, x.Add(s.W), n, s.L)
			}
		}
	}
	return nil
}

// Generator produces admission-checked arrival traces for a spec. All
// generators share the admission logic: a candidate arrival is shifted
// later until accepting it keeps every window of the trace within the A
// bound, and a forced arrival is emitted whenever delaying further would
// violate the L bound. The result always satisfies CheckTrace.
type Generator struct {
	Spec Spec
	rng  *rand.Rand

	recent []rtime.Time // arrivals within the last W, oldest first
}

// NewGenerator returns a deterministic generator seeded with seed.
func NewGenerator(s Spec, seed int64) (*Generator, error) {
	if err := s.Validate(); err != nil {
		return nil, err
	}
	return &Generator{Spec: s, rng: rand.New(newLazySource(seed))}, nil
}

// prune drops recent arrivals older than t-W+1 (outside any window that
// could still contain them together with an arrival at t).
func (g *Generator) prune(t rtime.Time) {
	cut := t.Add(-g.Spec.W) // arrivals ≤ cut are out of the window (cut, t]
	i := 0
	for i < len(g.recent) && g.recent[i] <= cut {
		i++
	}
	g.recent = g.recent[i:]
}

// earliestAdmissible returns the earliest time ≥ t at which one more
// arrival keeps the sliding-window count ≤ A. Two arrivals at u < v
// conflict (share a window of length W) exactly when v − u < W, so the
// blocking A-th most recent arrival stops blocking at blocker + W.
func (g *Generator) earliestAdmissible(t rtime.Time) rtime.Time {
	g.prune(t)
	if len(g.recent) < g.Spec.A {
		return t
	}
	blocker := g.recent[len(g.recent)-g.Spec.A]
	return blocker.Add(g.Spec.W)
}

// latestRequired returns the deadline by which the next arrival must occur
// to preserve the L lower bound, or Infinity if l = 0. If the l-th most
// recent arrival is at time t_k, the window starting at t_k+1 contains
// only l−1 arrivals so far, so a new one must land by t_k + W. During the
// startup phase (< l arrivals so far) the next arrival is due immediately,
// which builds the initial burst of l simultaneous-ish arrivals that any
// ⟨l,·,·⟩ trace needs to cover the window at time 0.
func (g *Generator) latestRequired() rtime.Time {
	if g.Spec.L == 0 {
		return rtime.Infinity
	}
	if len(g.recent) < g.Spec.L {
		if len(g.recent) == 0 {
			return rtime.Time(0).Add(g.Spec.Phase)
		}
		return g.recent[len(g.recent)-1]
	}
	kth := g.recent[len(g.recent)-g.Spec.L]
	return kth.Add(g.Spec.W)
}

// place clamps a candidate arrival to the L-bound deadline, keeps the
// trace non-decreasing, and shifts it to the earliest A-admissible
// instant. All generation strategies funnel through it, so every emitted
// trace satisfies CheckTrace by construction.
func (g *Generator) place(cand rtime.Time) rtime.Time {
	if dl := g.latestRequired(); cand > dl {
		cand = dl
	}
	if n := len(g.recent); n > 0 && cand < g.recent[n-1] {
		cand = g.recent[n-1]
	}
	if cand < 0 {
		cand = 0
	}
	return g.earliestAdmissible(cand)
}

// emit records an arrival.
func (g *Generator) emit(t rtime.Time) rtime.Time {
	g.recent = append(g.recent, t)
	return t
}

// Kind selects a generation strategy.
type Kind int

// Generation strategies.
const (
	// KindJittered spreads arrivals with exponential gaps around the mean
	// rate, clipped by the admission rules. A mid-spectrum adversary.
	KindJittered Kind = iota
	// KindBursty releases a arrivals back-to-back, then idles as long as
	// the L bound allows — the clustering adversary of Theorem 2's proof.
	KindBursty
	// KindPeriodic spaces arrivals evenly at W/a.
	KindPeriodic
)

// Generate produces a trace over [0, horizon) using the given strategy.
func (g *Generator) Generate(kind Kind, horizon rtime.Time) Trace {
	switch kind {
	case KindBursty:
		return g.generateBursty(horizon)
	case KindPeriodic:
		return g.generatePeriodic(horizon)
	default:
		return g.generateJittered(horizon)
	}
}

func (g *Generator) generatePeriodic(horizon rtime.Time) Trace {
	gap := g.Spec.W / rtime.Duration(g.Spec.A)
	if gap <= 0 {
		gap = 1
	}
	var tr Trace
	next := rtime.Time(0).Add(g.Spec.Phase)
	for {
		at := g.place(next)
		if at >= horizon {
			return tr
		}
		tr = append(tr, g.emit(at))
		next = at.Add(gap)
	}
}

func (g *Generator) generateBursty(horizon rtime.Time) Trace {
	var tr Trace
	t := rtime.Time(0).Add(g.Spec.Phase)
	for t < horizon {
		// Burst of up to a arrivals as early as admissible.
		for k := 0; k < g.Spec.A; k++ {
			at := g.place(t)
			if at >= horizon {
				return tr
			}
			tr = append(tr, g.emit(at))
			t = at
		}
		// Idle until the L bound forces the next arrival (or one window).
		next := g.latestRequired()
		if next == rtime.Infinity {
			next = t.Add(g.Spec.W)
		}
		if next <= t {
			next = t + 1
		}
		t = next
	}
	return tr
}

func (g *Generator) generateJittered(horizon rtime.Time) Trace {
	var tr Trace
	mean := 1.0 / g.Spec.MeanRate()
	t := rtime.Time(0).Add(g.Spec.Phase)
	for {
		gap := rtime.Duration(g.rng.ExpFloat64() * mean)
		if gap < 1 {
			gap = 1
		}
		at := g.place(t.Add(gap))
		if at >= horizon {
			return tr
		}
		tr = append(tr, g.emit(at))
		t = at
	}
}
