package fault

import (
	"reflect"
	"sort"
	"testing"

	"repro/internal/rtime"
	"repro/internal/uam"
)

// PerturbArrivals is the eager reference for one task's perturbed
// trace: every natural arrival of tr through PerturbArrival, each
// followed by its copies, re-sorted stably by time. injected[i] marks
// the i-th returned arrival as perturbed (delayed or injected). When no
// arrival injector is active the input slice is returned unchanged
// (same backing array) with a nil mask. The engines perturb the same
// way one arrival at a time (internal/sim's arrival source).
func (p *Plan) PerturbArrivals(taskID int, tr uam.Trace, horizon rtime.Time) (uam.Trace, []bool) {
	if !p.PerturbsArrivals() {
		return tr, nil
	}
	type arr struct {
		at  rtime.Time
		inj bool
	}
	out := make([]arr, 0, len(tr))
	for k, at := range tr {
		at, delayed, copies := p.PerturbArrival(taskID, k, at, horizon)
		out = append(out, arr{at: at, inj: delayed})
		for n := 0; n < copies; n++ {
			out = append(out, arr{at: at, inj: true})
		}
	}
	sort.SliceStable(out, func(i, j int) bool { return out[i].at < out[j].at })
	res := make(uam.Trace, len(out))
	mask := make([]bool, len(out))
	for i, a := range out {
		res[i], mask[i] = a.at, a.inj
	}
	return res, mask
}

func TestZeroPlanInactive(t *testing.T) {
	var nilPlan *Plan
	plans := []*Plan{nilPlan, {}, {Seed: 99}}
	for _, p := range plans {
		if p.Active() {
			t.Fatalf("plan %+v should be inactive", p)
		}
		tr := uam.Trace{10, 20, 30}
		out, mask := p.PerturbArrivals(1, tr, 1000)
		if len(tr) > 0 && (&out[0] != &tr[0] || mask != nil) {
			t.Fatalf("inactive plan must return the input trace unchanged")
		}
		if d := p.Overrun(1, 2, 100); d != 0 {
			t.Fatalf("inactive plan injected overrun %v", d)
		}
		if p.PhantomCAS(1, 2, 3, 0) {
			t.Fatalf("inactive plan injected phantom CAS")
		}
		if d := p.Stall(5); d != 0 {
			t.Fatalf("inactive plan injected stall %v", d)
		}
		if s := (uam.Spec{L: 1, A: 2, W: 100}); p.EffectiveSpec(s) != s {
			t.Fatalf("inactive plan inflated spec")
		}
	}
}

func TestDeterminism(t *testing.T) {
	mk := func() *Plan { p := Heavy(); p.Seed = 42; return p }
	a, b := mk(), mk()
	tr := make(uam.Trace, 50)
	for i := range tr {
		tr[i] = rtime.Time(i * 97)
	}
	ta, ma := a.PerturbArrivals(3, tr, 10000)
	tb, mb := b.PerturbArrivals(3, tr, 10000)
	if !reflect.DeepEqual(ta, tb) || !reflect.DeepEqual(ma, mb) {
		t.Fatalf("same plan+seed gave different perturbations")
	}
	for seq := 0; seq < 20; seq++ {
		if a.Overrun(1, seq, 300) != b.Overrun(1, seq, 300) {
			t.Fatalf("overrun decisions diverged at seq %d", seq)
		}
		for att := 0; att < 6; att++ {
			if a.PhantomCAS(1, seq, 2, att) != b.PhantomCAS(1, seq, 2, att) {
				t.Fatalf("CAS decisions diverged")
			}
		}
	}
	for pass := int64(0); pass < 100; pass++ {
		if a.Stall(pass) != b.Stall(pass) {
			t.Fatalf("stall decisions diverged at pass %d", pass)
		}
	}
	// A different seed must change at least one decision over a wide probe.
	c := mk()
	c.Seed = 43
	same := true
	for seq := 0; seq < 100 && same; seq++ {
		if a.Overrun(1, seq, 300) != c.Overrun(1, seq, 300) {
			same = false
		}
	}
	if same {
		t.Fatalf("seeds 42 and 43 made identical overrun decisions across 100 jobs")
	}
}

func TestPerturbedTraceSatisfiesEffectiveSpec(t *testing.T) {
	spec := uam.Spec{L: 1, A: 3, W: 500}
	for seed := int64(0); seed < 20; seed++ {
		p := Heavy()
		p.Seed = seed
		horizon := rtime.Time(20000)
		g, err := uam.NewGenerator(spec, seed)
		if err != nil {
			t.Fatalf("NewGenerator: %v", err)
		}
		tr := g.Generate(uam.KindBursty, horizon)
		if err := uam.CheckTrace(spec, tr, horizon); err != nil {
			t.Fatalf("generator broke its own spec: %v", err)
		}
		out, mask := p.PerturbArrivals(7, tr, horizon)
		if len(mask) != len(out) {
			t.Fatalf("mask length %d != trace length %d", len(mask), len(out))
		}
		eff := p.EffectiveSpec(spec)
		if err := uam.CheckTrace(eff, out, horizon); err != nil {
			t.Fatalf("seed %d: perturbed trace violates inflated spec %+v: %v", seed, eff, err)
		}
		for i := 1; i < len(out); i++ {
			if out[i] < out[i-1] {
				t.Fatalf("perturbed trace not sorted at %d", i)
			}
		}
		for _, at := range out {
			if at < 0 || at >= horizon {
				t.Fatalf("perturbed arrival %v outside [0,%v)", at, horizon)
			}
		}
	}
}

func TestOverrunBounds(t *testing.T) {
	p := Heavy()
	p.Seed = 7
	u := rtime.Duration(400)
	hits := 0
	for seq := 0; seq < 200; seq++ {
		d := p.Overrun(2, seq, u)
		if d < 0 {
			t.Fatalf("negative overrun")
		}
		if d > 0 {
			hits++
			if maxd := 1 + rtime.Duration(p.OverrunFrac*float64(u)); d > maxd {
				t.Fatalf("overrun %v exceeds cap %v", d, maxd)
			}
		}
	}
	if hits == 0 {
		t.Fatalf("heavy plan never injected an overrun over 200 jobs")
	}
}

func TestPhantomCASCapped(t *testing.T) {
	p := &Plan{Seed: 1, CASProb: 1, CASMax: 3}
	if !p.Active() {
		t.Fatalf("CAS-only plan should be active")
	}
	for att := 0; att < 3; att++ {
		if !p.PhantomCAS(0, 0, 0, att) {
			t.Fatalf("probability-1 CAS did not fire at attempt %d", att)
		}
	}
	if p.PhantomCAS(0, 0, 0, 3) {
		t.Fatalf("phantom CAS fired past CASMax")
	}
}

func TestScale(t *testing.T) {
	p := Heavy()
	off := p.Scale(0)
	if off.Active() {
		t.Fatalf("Scale(0) should be inactive")
	}
	up := p.Scale(100)
	if up.CASProb != 1 || up.BurstProb != 1 {
		t.Fatalf("Scale must clamp probabilities at 1")
	}
	if up.BurstSize != p.BurstSize || up.StallDur != p.StallDur {
		t.Fatalf("Scale must not touch magnitudes")
	}
	if (*Plan)(nil).Scale(2) != nil {
		t.Fatalf("Scale on nil must return nil")
	}
}

func TestParsePlan(t *testing.T) {
	p, err := ParsePlan("off")
	if err != nil || p.Active() {
		t.Fatalf("ParsePlan(off) = %+v, %v", p, err)
	}
	p, err = ParsePlan("heavy,seed=7,intensity=0.5")
	if err != nil {
		t.Fatalf("ParsePlan: %v", err)
	}
	if p.Seed != 7 {
		t.Fatalf("seed not applied: %+v", p)
	}
	want := Heavy().Scale(0.5)
	want.Seed = 7
	if *p != *want {
		t.Fatalf("got %+v want %+v", p, want)
	}
	p, err = ParsePlan("casp=0.5,casmax=2")
	if err != nil || !p.Active() || p.CASProb != 0.5 || p.CASMax != 2 {
		t.Fatalf("kv-only plan: %+v, %v", p, err)
	}
	for _, bad := range []string{"nope", "seed=x", "burstp=-1", "light,heavy", "foo=1"} {
		if _, err := ParsePlan(bad); err == nil {
			t.Fatalf("ParsePlan(%q) should fail", bad)
		}
	}
}

func TestExceedsModel(t *testing.T) {
	if (&Plan{JitterProb: 0.5, JitterMax: 100}).ExceedsRetryModel() {
		t.Fatalf("jitter alone stays inside the (inflated) retry model")
	}
	if !(&Plan{CASProb: 0.1, CASMax: 1}).ExceedsRetryModel() {
		t.Fatalf("phantom CAS must exceed the retry model")
	}
	if !(&Plan{StallProb: 0.1, StallDur: 10}).ExceedsSojournModel() {
		t.Fatalf("stalls must exceed the sojourn model")
	}
	if (&Plan{BurstProb: 0.5, BurstSize: 1}).ExceedsSojournModel() {
		t.Fatalf("bursts alone stay inside the sojourn model (bounds are recomputed)")
	}
}
