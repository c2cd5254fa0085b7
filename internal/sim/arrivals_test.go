package sim

import (
	"math/rand"
	"sort"
	"testing"

	"repro/internal/fault"
	"repro/internal/rtime"
	"repro/internal/task"
	"repro/internal/uam"
)

// releaseOrder lists the arrivals of the per-task traces (total in all)
// in the order they are released: by time, then task index, then
// invocation. Each trace is sorted, so listing them task by task and
// sorting stably by time gives that order; the sort is an LSD radix
// sort on the bytes of the (non-negative) times, one counting pass per
// byte up to the latest time's highest. It is the reference for the
// arrival source, which holds one pending release per task instead.
func releaseOrder(traces []uam.Trace, total int) []release {
	src, dst := make([]release, 0, total), make([]release, total)
	var last rtime.Time
	for i, tr := range traces {
		for n, at := range tr {
			src = append(src, release{at: at, task: int32(i), seq: int32(n)})
		}
		if len(tr) > 0 {
			last = max(last, tr[len(tr)-1])
		}
	}
	for shift := uint(0); shift < 64 && last>>shift > 0; shift += 8 {
		var count [257]int
		for _, x := range src {
			count[int(x.at>>shift&0xff)+1]++
		}
		for b := 1; b < len(count); b++ {
			count[b] += count[b-1]
		}
		for _, x := range src {
			b := int(x.at >> shift & 0xff)
			dst[count[b]] = x
			count[b]++
		}
		src, dst = dst, src
	}
	return src
}

// perturbTrace is the eager reference for one task's perturbed trace:
// every natural arrival through fault.Plan.PerturbArrival, each followed
// by its copies, re-sorted stably by time, with a mask of the perturbed
// ones.
func perturbTrace(p *fault.Plan, taskID int, tr uam.Trace, horizon rtime.Time) (uam.Trace, []bool) {
	if !p.PerturbsArrivals() {
		return tr, make([]bool, len(tr))
	}
	type arr struct {
		at  rtime.Time
		inj bool
	}
	var out []arr
	for k, at := range tr {
		at, delayed, copies := p.PerturbArrival(taskID, k, at, horizon)
		out = append(out, arr{at: at, inj: delayed})
		for n := 0; n < copies; n++ {
			out = append(out, arr{at: at, inj: true})
		}
	}
	sort.SliceStable(out, func(i, j int) bool { return out[i].at < out[j].at })
	res, mask := make(uam.Trace, len(out)), make([]bool, len(out))
	for i, a := range out {
		res[i], mask[i] = a.at, a.inj
	}
	return res, mask
}

// FuzzArrivalStream compares the arrival source's releases (time, task,
// invocation, injected flag) with the eager pipeline it replaces: each
// task's whole trace from uam.Generator.Generate (or the explicit
// trace), perturbed by perturbTrace, merged by releaseOrder. Inputs
// cover random ⟨l,a,W,phase⟩ per task under every Kind, explicit
// traces with gaps and ties, plans that jitter and burst, and horizons
// that cut bursts and clamp delays.
func FuzzArrivalStream(f *testing.F) {
	f.Add([]byte{})
	f.Add([]byte{3, 0, 1, 2, 3, 4, 5, 6, 7, 8, 9, 10, 11, 12, 13, 14, 15})
	f.Add([]byte{4, 1, 0, 0, 0, 9, 9, 9, 200, 7, 1, 2, 3, 4, 5, 6, 7, 8, 9, 0, 0})
	rng := rand.New(rand.NewSource(1))
	for i := 0; i < 12; i++ {
		b := make([]byte, 16+rng.Intn(200))
		rng.Read(b)
		f.Add(b)
	}
	f.Fuzz(func(t *testing.T, data []byte) {
		checkArrivalStream(t, data)
	})
}

func checkArrivalStream(t *testing.T, data []byte) {
	next := func() int {
		if len(data) == 0 {
			return 0
		}
		b := int(data[0])
		data = data[1:]
		return b
	}
	n := 1 + next()%5
	mode := next()
	cfg := Config{
		ArrivalKind: uam.Kind(mode % 3),
		Seed:        int64(next()) - 128,
		Horizon:     rtime.Time(1 + next()*next()%4000),
	}
	if mode&4 != 0 {
		cfg.Fault = &fault.Plan{
			Seed:       int64(next()),
			JitterProb: float64(next()%5) / 4,
			JitterMax:  rtime.Duration(next() * 2),
			BurstProb:  float64(next()%5) / 4,
			BurstSize:  next() % 4,
		}
	}
	for i := 0; i < n; i++ {
		a := 1 + next()%4
		w := rtime.Duration(1 + next()%200)
		cfg.Tasks = append(cfg.Tasks, &task.Task{
			ID:      10 + 3*i, // the plan keys on task IDs, not indices
			Arrival: uam.Spec{L: next() % (a + 1), A: a, W: w, Phase: rtime.Duration(next()) % w},
		})
	}
	if mode&8 != 0 {
		// Explicit traces with gaps and ties, for a prefix of the tasks.
		for i, m := 0, next()%(n+1); i < m; i++ {
			var tr uam.Trace
			at := rtime.Time(next() % 16)
			for c := next() % 12; c > 0 && at < cfg.Horizon; c-- {
				tr = append(tr, at)
				at += rtime.Time(next() % 4 * (1 + next()%64))
			}
			cfg.Arrivals = append(cfg.Arrivals, tr)
		}
		if cfg.Arrivals == nil {
			cfg.Arrivals = []uam.Trace{}
		}
	}

	// The oracle: whole traces, perturbed, merged.
	traces := make([]uam.Trace, n)
	masks := make([][]bool, n)
	total := 0
	for i, tk := range cfg.Tasks {
		var tr uam.Trace
		if cfg.Arrivals == nil {
			g, err := uam.NewGenerator(tk.Arrival, cfg.Seed+int64(i)*7919)
			if err != nil {
				t.Fatal(err)
			}
			tr = g.Generate(cfg.ArrivalKind, cfg.Horizon)
		} else if i < len(cfg.Arrivals) {
			tr = cfg.Arrivals[i]
		}
		traces[i], masks[i] = perturbTrace(cfg.Fault, tk.ID, tr, cfg.Horizon)
		total += len(traces[i])
	}
	want := releaseOrder(traces, total)
	for i := range want {
		want[i].inj = masks[want[i].task][want[i].seq]
	}

	var a arrivalSource
	if err := a.init(&cfg); err != nil {
		t.Fatal(err)
	}
	for i, w := range want {
		at, ok := a.peek()
		if !ok || at != w.at {
			t.Fatalf("release %d of %d: peek = (%v, %v), want %v", i, len(want), at, ok, w.at)
		}
		if got := a.pop(); got != w {
			t.Fatalf("release %d of %d: %+v, want %+v", i, len(want), got, w)
		}
	}
	if at, ok := a.peek(); ok {
		t.Fatalf("a release at %v after all %d expected", at, len(want))
	}
}
