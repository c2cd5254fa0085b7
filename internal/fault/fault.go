// Package fault is the simulator's deterministic fault-injection
// engine. A Plan describes an adversarial environment — arrival bursts
// and jitter that violate the declared UAM vector, execution-time
// overruns beyond c_i, phantom-writer CAS interference on lock-free
// objects, and transient CPU stalls — and the engines (sim's
// uniprocessor and global engines, multi) consult it at well-defined
// hook points.
//
// Determinism is the design center: every injection decision is a pure
// splitmix64 hash of (plan seed, injector stream, task id, job seq,
// segment, attempt), never a draw from a shared sequential RNG. Two
// consequences follow. First, a run with a given plan is byte-
// reproducible regardless of worker count or engine interleaving — the
// experiment layer's index-order merge keeps its "identical for any
// -jobs" guarantee. Second, the SAME decisions fire for the same job in
// every engine: the partitioned engine perturbs task 3's arrivals
// exactly as the uniprocessor engine does, because neither the CPU
// assignment nor the engine's own seed enters the hash.
//
// A nil *Plan (or a zero-intensity one) is everywhere a no-op: every
// hook returns "no fault" without emitting events or touching state, so
// fault-free runs reproduce today's output bit for bit.
package fault

import (
	"errors"
	"fmt"
	"strconv"
	"strings"

	"repro/internal/rtime"
	"repro/internal/uam"
)

// ErrPlan reports an unparsable or invalid plan specification.
var ErrPlan = errors.New("fault: invalid plan")

// Plan is a seeded fault-injection plan. The zero value is inactive.
// Probabilities are per decision point: per natural arrival for jitter
// and bursts, per job for overruns, per commit attempt for phantom CAS,
// per scheduler pass for stalls.
type Plan struct {
	// Seed keys every hash; two plans with different seeds make
	// independent decisions even when their intensities match.
	Seed int64

	// Arrival injectors (violate the declared ⟨l,a,W⟩ vector).
	BurstProb  float64        // chance a natural arrival brings extra copies
	BurstSize  int            // injected copies per burst
	JitterProb float64        // chance a natural arrival is delayed
	JitterMax  rtime.Duration // maximum forward shift

	// Execution-time overrun (violates the declared c_i).
	OverrunProb float64
	OverrunFrac float64 // extra demand as a fraction of u_i

	// Phantom-writer CAS interference: a commit attempt on a lock-free
	// object fails as if an invisible writer won the race, forcing an
	// extra retry beyond what real interference causes.
	CASProb float64
	CASMax  int // cap on consecutive phantom failures per access

	// Transient CPU stalls charged at scheduler passes.
	StallProb float64
	StallDur  rtime.Duration
}

// Active reports whether the plan can inject anything. Nil-safe; every
// hook below short-circuits through it, which is what makes a nil or
// zero-intensity plan reproduce fault-free output bit for bit.
func (p *Plan) Active() bool {
	if p == nil {
		return false
	}
	return (p.BurstProb > 0 && p.BurstSize > 0) ||
		(p.JitterProb > 0 && p.JitterMax > 0) ||
		(p.OverrunProb > 0 && p.OverrunFrac > 0) ||
		(p.CASProb > 0 && p.CASMax > 0) ||
		(p.StallProb > 0 && p.StallDur > 0)
}

// Injector hash streams. Each injector draws from its own stream so
// that e.g. enabling jitter never perturbs burst decisions.
const (
	streamJitter uint64 = 1 + iota
	streamJitterAmt
	streamBurst
	streamOverrun
	streamOverrunAmt
	streamCAS
	streamStall
)

// splitmix64 is the finalizer of Vigna's SplitMix64; a single pass is
// a strong enough mixer for decision hashing.
func splitmix64(x uint64) uint64 {
	x += 0x9e3779b97f4a7c15
	x = (x ^ (x >> 30)) * 0xbf58476d1ce4e5b9
	x = (x ^ (x >> 27)) * 0x94d049bb133111eb
	return x ^ (x >> 31)
}

// hash folds the seed, a stream tag, and the decision coordinates.
func (p *Plan) hash(stream uint64, ids ...int64) uint64 {
	h := splitmix64(uint64(p.Seed) ^ stream*0x9e3779b97f4a7c15)
	for _, id := range ids {
		h = splitmix64(h ^ uint64(id))
	}
	return h
}

// unit maps a hash to [0,1) with 53 bits of precision.
func unit(h uint64) float64 { return float64(h>>11) / (1 << 53) }

// hit reports whether the decision at the hashed point fires with
// probability prob.
func (p *Plan) hit(prob float64, stream uint64, ids ...int64) bool {
	if prob <= 0 {
		return false
	}
	return unit(p.hash(stream, ids...)) < prob
}

// Scale returns a copy with every probability multiplied by x (clamped
// to [0,1]); magnitudes (burst size, jitter span, overrun fraction,
// stall length) are left alone so an intensity sweep varies only how
// OFTEN faults fire. Scale(0) is inactive; Scale on nil returns nil.
func (p *Plan) Scale(x float64) *Plan {
	if p == nil {
		return nil
	}
	clamp := func(v float64) float64 {
		v *= x
		if v < 0 {
			v = 0
		}
		if v > 1 {
			v = 1
		}
		return v
	}
	cp := *p
	cp.BurstProb = clamp(p.BurstProb)
	cp.JitterProb = clamp(p.JitterProb)
	cp.OverrunProb = clamp(p.OverrunProb)
	cp.CASProb = clamp(p.CASProb)
	cp.StallProb = clamp(p.StallProb)
	return &cp
}

// PerturbsArrivals reports whether the plan jitters or bursts
// arrivals. Nil-safe.
func (p *Plan) PerturbsArrivals() bool {
	return p != nil && ((p.JitterProb > 0 && p.JitterMax > 0) || (p.BurstProb > 0 && p.BurstSize > 0))
}

// PerturbArrival applies jitter and burst injection to natural arrival
// k of task taskID, at at. The arrival may be delayed by up to
// JitterMax (forward only — the effective release the schedulers see),
// clamped to horizon−1, and may spawn copies injected at its perturbed
// instant. It returns that instant, whether the arrival was delayed, and
// the number of copies. A task's perturbed trace is its natural
// arrivals so perturbed, each followed by its copies, sorted stably by
// time; every one but an undelayed natural arrival counts as perturbed.
//
//rtlint:noalloc pure hashing
func (p *Plan) PerturbArrival(taskID, k int, at, horizon rtime.Time) (rtime.Time, bool, int) {
	delayed := false
	if p.JitterMax > 0 && p.hit(p.JitterProb, streamJitter, int64(taskID), int64(k)) {
		d := 1 + rtime.Duration(p.hash(streamJitterAmt, int64(taskID), int64(k))%uint64(p.JitterMax))
		at = min(at.Add(d), horizon-1)
		delayed = true
	}
	copies := 0
	if p.BurstSize > 0 && p.hit(p.BurstProb, streamBurst, int64(taskID), int64(k)) {
		copies = p.BurstSize
	}
	return at, delayed, copies
}

// Overrun returns the extra execution demand injected into job (taskID,
// seq) whose declared compute time is u, or 0. The magnitude is drawn
// from (0, OverrunFrac·u], at least one tick when the job is hit.
func (p *Plan) Overrun(taskID, seq int, u rtime.Duration) rtime.Duration {
	if p == nil || p.OverrunFrac <= 0 || u <= 0 ||
		!p.hit(p.OverrunProb, streamOverrun, int64(taskID), int64(seq)) {
		return 0
	}
	maxd := rtime.Duration(p.OverrunFrac * float64(u))
	if maxd < 1 {
		maxd = 1
	}
	return 1 + rtime.Duration(p.hash(streamOverrunAmt, int64(taskID), int64(seq))%uint64(maxd))
}

// PhantomCAS reports whether the attempt-th commit of job (taskID, seq)
// on segment segIdx is defeated by a phantom writer. attempt counts the
// phantom failures already suffered on this access; it is capped at
// CASMax so an access cannot livelock.
func (p *Plan) PhantomCAS(taskID, seq, segIdx, attempt int) bool {
	if p == nil || p.CASMax <= 0 || attempt >= p.CASMax {
		return false
	}
	return p.hit(p.CASProb, streamCAS, int64(taskID), int64(seq), int64(segIdx), int64(attempt))
}

// Stall returns the transient CPU stall charged at the pass-th
// scheduler invocation, or 0. The engine adds it to the pass's
// overhead, exactly like a burst of cache misses or an SMI would.
func (p *Plan) Stall(pass int64) rtime.Duration {
	if p == nil || p.StallDur <= 0 || !p.hit(p.StallProb, streamStall, pass) {
		return 0
	}
	return p.StallDur
}

// EffectiveSpec returns the loosest UAM vector a task's perturbed
// arrival trace still obeys (uam.Spec.Inflated): the spec Theorem 2 is
// re-checked against when the plan violates the declared model. Without
// arrival injectors the declared spec is returned unchanged.
func (p *Plan) EffectiveSpec(s uam.Spec) uam.Spec {
	if p == nil {
		return s
	}
	var jitter rtime.Duration
	if p.JitterProb > 0 {
		jitter = p.JitterMax
	}
	extra := 0
	if p.BurstProb > 0 {
		extra = p.BurstSize
	}
	return s.Inflated(jitter, extra)
}

// ExceedsRetryModel reports whether the plan injects interference
// outside Theorem 2's model even after arrival-spec inflation: phantom
// CAS failures are not caused by any job's commit, so the retry bound
// does not cover them and its violations are expected.
func (p *Plan) ExceedsRetryModel() bool {
	return p != nil && p.CASProb > 0 && p.CASMax > 0
}

// ExceedsSojournModel reports whether the plan stretches executions
// beyond what Theorem 3's demand terms account for — overruns, stalls,
// and phantom retries all add demand the sojourn bound cannot see.
func (p *Plan) ExceedsSojournModel() bool {
	if p == nil {
		return false
	}
	return (p.OverrunProb > 0 && p.OverrunFrac > 0) ||
		(p.StallProb > 0 && p.StallDur > 0) ||
		p.ExceedsRetryModel()
}

// Presets. Light models a mildly hostile environment; Heavy a saturated
// one where every injector fires often. Both leave Seed 0 — callers
// reseed via ParsePlan's seed key or rtsim's -fault-seed.
func Light() *Plan {
	return &Plan{
		BurstProb: 0.05, BurstSize: 1,
		JitterProb: 0.10, JitterMax: 200 * rtime.Microsecond,
		OverrunProb: 0.05, OverrunFrac: 0.25,
		CASProb: 0.05, CASMax: 2,
		StallProb: 0.02, StallDur: 50 * rtime.Microsecond,
	}
}

func Heavy() *Plan {
	return &Plan{
		BurstProb: 0.20, BurstSize: 2,
		JitterProb: 0.30, JitterMax: 500 * rtime.Microsecond,
		OverrunProb: 0.20, OverrunFrac: 0.50,
		CASProb: 0.25, CASMax: 4,
		StallProb: 0.10, StallDur: 200 * rtime.Microsecond,
	}
}

// ParsePlan builds a plan from a specification string: the presets
// "off", "light", and "heavy", optionally followed by comma-separated
// key=value overrides, or overrides alone (starting from an inactive
// plan). Keys: seed, burstp, burstn, jitterp, jitterus, overrunp,
// overrunfrac, casp, casmax, stallp, stallus, intensity (a final
// Scale factor). Example: "heavy,seed=7,intensity=0.5".
func ParsePlan(s string) (*Plan, error) {
	p := &Plan{}
	intensity := 1.0
	parts := strings.Split(s, ",")
	for i, part := range parts {
		part = strings.TrimSpace(part)
		if part == "" {
			continue
		}
		if !strings.Contains(part, "=") {
			if i != 0 {
				return nil, fmt.Errorf("%w: preset %q must come first in %q", ErrPlan, part, s)
			}
			switch part {
			case "off":
				p = &Plan{}
			case "light":
				p = Light()
			case "heavy":
				p = Heavy()
			default:
				return nil, fmt.Errorf("%w: unknown preset %q (want off, light, or heavy)", ErrPlan, part)
			}
			continue
		}
		kv := strings.SplitN(part, "=", 2)
		key, val := strings.TrimSpace(kv[0]), strings.TrimSpace(kv[1])
		pf := func() (float64, error) {
			v, err := strconv.ParseFloat(val, 64)
			if err != nil || v < 0 {
				return 0, fmt.Errorf("%w: %s=%q is not a non-negative number", ErrPlan, key, val)
			}
			return v, nil
		}
		pi := func() (int64, error) {
			v, err := strconv.ParseInt(val, 10, 64)
			if err != nil || v < 0 {
				return 0, fmt.Errorf("%w: %s=%q is not a non-negative integer", ErrPlan, key, val)
			}
			return v, nil
		}
		var err error
		switch key {
		case "seed":
			p.Seed, err = strconv.ParseInt(val, 10, 64)
			if err != nil {
				err = fmt.Errorf("%w: seed=%q is not an integer", ErrPlan, val)
			}
		case "burstp":
			p.BurstProb, err = pf()
		case "burstn":
			var n int64
			n, err = pi()
			p.BurstSize = int(n)
		case "jitterp":
			p.JitterProb, err = pf()
		case "jitterus":
			var n int64
			n, err = pi()
			p.JitterMax = rtime.Duration(n)
		case "overrunp":
			p.OverrunProb, err = pf()
		case "overrunfrac":
			p.OverrunFrac, err = pf()
		case "casp":
			p.CASProb, err = pf()
		case "casmax":
			var n int64
			n, err = pi()
			p.CASMax = int(n)
		case "stallp":
			p.StallProb, err = pf()
		case "stallus":
			var n int64
			n, err = pi()
			p.StallDur = rtime.Duration(n)
		case "intensity":
			intensity, err = pf()
		default:
			return nil, fmt.Errorf("%w: unknown key %q in %q", ErrPlan, key, s)
		}
		if err != nil {
			return nil, err
		}
	}
	//rtlint:ignore floatcmp intensity is a parsed literal compared to its default; Scale(1.0) is the identity so the branch is a pure fast path
	if intensity != 1.0 {
		seed := p.Seed
		p = p.Scale(intensity)
		p.Seed = seed
	}
	return p, nil
}
