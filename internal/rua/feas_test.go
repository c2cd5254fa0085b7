package rua

// Differential tests holding the incremental feasibility tree to the
// retained slice reference: identical entry order, identical effective
// critical times, identical feasibility verdicts, and — load-bearing
// for Fig 9 — identical charged operation counts, across randomized
// chain insertions, Case-2 reorders, rollbacks, and positional edits.

import (
	"math/rand"
	"slices"
	"testing"

	"repro/internal/rtime"
	"repro/internal/task"
)

// treeEntries returns the tree's in-order (job, effC) sequence.
func treeEntries(t *feasTree) []entry {
	var out []entry
	v := t.root
	if v == nilNode {
		return out
	}
	for t.nodes[v].left != nilNode {
		v = t.nodes[v].left
	}
	for v != nilNode {
		out = append(out, entry{job: t.nodes[v].job, effC: t.nodes[v].effC})
		v = t.succ(v)
	}
	return out
}

// snapOf snapshots jobs numbered by their index, as a pass numbers its
// candidates.
func snapOf(jobs []*task.Job, acc rtime.Duration) *passSnap {
	for i, j := range jobs {
		j.SchedSlot = int32(i)
	}
	s := &passSnap{}
	s.take(jobs, acc)
	return s
}

// probeOutcome classifies where a singleton insertion first misses,
// from the slice's state after insertChain([j]) and the charge of its
// feasibility walk.
func probeOutcome(s *schedule, j *task.Job, walkOps int64, ok bool) string {
	if ok {
		return "feasible"
	}
	pj := slices.IndexFunc(s.entries, func(e entry) bool { return e.job == j })
	switch v := int(walkOps) - 1; {
	case v < pj:
		return "miss before j"
	case v == pj:
		return "j misses"
	default:
		return "miss after j"
	}
}

func compareStates(t *testing.T, ctx string, s *schedule, ft *feasTree, opsS, opsT int64) {
	t.Helper()
	if opsS != opsT {
		t.Fatalf("%s: charged ops diverged: slice %d, tree %d", ctx, opsS, opsT)
	}
	te := treeEntries(ft)
	if len(te) != len(s.entries) {
		t.Fatalf("%s: length %d (tree) != %d (slice)", ctx, len(te), len(s.entries))
	}
	for i := range te {
		if te[i].job != s.entries[i].job || te[i].effC != s.entries[i].effC {
			t.Fatalf("%s: entry %d: tree (%s, %v) != slice (%s, %v)",
				ctx, i, te[i].job.Name(), te[i].effC, s.entries[i].job.Name(), s.entries[i].effC)
		}
	}
	if ft.count() != len(s.entries) {
		t.Fatalf("%s: count %d != %d", ctx, ft.count(), len(s.entries))
	}
}

// TestFeasTreeDifferential drives both structures through randomized
// RUA-shaped workloads: chains of random length over a shared job pool
// (so removal-and-reinsertion triggers), feasibility tests at randomized
// times with rollback on failure, exactly like step 5 of selectFull.
// Singleton chains go through the tree's probe, as selectFull sends
// them; the random instants leave the tree infeasible before some
// probes, so the probe may not assume a feasible schedule.
func TestFeasTreeDifferential(t *testing.T) {
	const acc = rtime.Duration(10)
	outcomes := map[string]int{}
	for seed := int64(1); seed <= 30; seed++ {
		rng := rand.New(rand.NewSource(seed))
		nJobs := 5 + rng.Intn(40)
		jobs := make([]*task.Job, nJobs)
		for i := range jobs {
			// Clustered critical times force effC ties; varied computation
			// times vary the prefix sums.
			c := rtime.Duration(100 * (1 + rng.Intn(12)))
			comp := rtime.Duration(5 + rng.Intn(120))
			jobs[i] = mkJob(i, 1+float64(rng.Intn(5)), c, comp, 0)
		}

		var opsS, opsT int64
		s := &schedule{ops: &opsS}
		ft := &feasTree{}
		ft.reset(nJobs)
		ft.ops = &opsT
		// The tree finds jobs by slot; distinct slots, as a pass numbers
		// them, keep the pool's jobs apart.
		ft.snap = snapOf(jobs, acc)

		for round := 0; round < 60; round++ {
			// Random chain over the pool, tail job distinct members.
			clen := 1 + rng.Intn(3)
			chain := make([]*task.Job, 0, clen)
			used := map[int]bool{}
			for len(chain) < clen {
				i := rng.Intn(nJobs)
				if used[i] {
					continue
				}
				used[i] = true
				chain = append(chain, jobs[i])
			}
			tail := chain[len(chain)-1]

			si := s.indexOf(tail)
			ti := ft.indexOf(tail)
			if si != ti {
				t.Fatalf("seed %d round %d: indexOf %d != %d", seed, round, si, ti)
			}
			if si >= 0 {
				compareStates(t, "indexOf-skip", s, ft, opsS, opsT)
				continue
			}

			// Feasibility from a random instant; compare verdicts and the
			// per-entry charge (all-n on success, violator+1 on failure).
			now := rtime.Time(rng.Intn(1500))
			if clen == 1 {
				ms := s.mark()
				s.insertChain(chain)
				walk := opsS
				fs := s.feasible(now, acc)
				outcomes[probeOutcome(s, tail, opsS-walk, fs)]++
				if fs {
					s.journal = s.journal[:0]
				} else {
					s.rollback(ms)
				}
				if ftr := ft.probe(tail, now); ftr != fs {
					t.Fatalf("seed %d round %d: probe(%v) %v, slice %v", seed, round, now, ftr, fs)
				}
				if len(ft.journal) != 0 {
					t.Fatalf("seed %d round %d: the probe journaled %d edits", seed, round, len(ft.journal))
				}
				compareStates(t, "post-probe", s, ft, opsS, opsT)
				continue
			}

			ms, mt := s.mark(), ft.mark()
			s.insertChain(chain)
			ft.insertChain(chain)
			compareStates(t, "post-insertChain", s, ft, opsS, opsT)

			fs := s.feasible(now, acc)
			ftr := ft.feasible(now)
			if fs != ftr {
				t.Fatalf("seed %d round %d: feasible(%v) %v != %v", seed, round, now, fs, ftr)
			}
			compareStates(t, "post-feasible", s, ft, opsS, opsT)
			if !fs {
				s.rollback(ms)
				ft.rollback(mt)
				compareStates(t, "post-rollback", s, ft, opsS, opsT)
			} else {
				s.journal = s.journal[:0]
				ft.journal = ft.journal[:0]
			}

			// Spot-check ecfPos agreement on a random key.
			c := rtime.Time(rng.Intn(1500))
			if ps, pt := s.ecfPos(c), ft.ecfPos(c); ps != pt {
				t.Fatalf("seed %d round %d: ecfPos(%v) %d != %d", seed, round, c, ps, pt)
			}
		}
	}
	for _, o := range []string{"feasible", "miss before j", "j misses", "miss after j"} {
		if outcomes[o] == 0 {
			t.Errorf("no probe ended %q; outcomes %v", o, outcomes)
		}
	}
}

// TestFeasTreePositionalDifferential hammers raw positional inserts and
// removals — the journal/rollback primitives — independent of chain
// semantics, keeping the effC-sorted invariant the way insertChain does.
func TestFeasTreePositionalDifferential(t *testing.T) {
	for seed := int64(1); seed <= 20; seed++ {
		rng := rand.New(rand.NewSource(seed))
		var opsS, opsT int64
		s := &schedule{ops: &opsS}
		const nOps = 400
		ft := &feasTree{}
		ft.reset(nOps)
		ft.ops = &opsT
		nextID := 0
		for op := 0; op < nOps; op++ {
			if len(s.entries) == 0 || rng.Intn(3) > 0 {
				j := mkJob(nextID, 1, rtime.Duration(50+rng.Intn(500)), rtime.Duration(1+rng.Intn(50)), 0)
				j.SchedSlot = int32(nextID)
				nextID++
				effC := j.AbsoluteCriticalTime()
				ps, pt := s.ecfPos(effC), ft.ecfPos(effC)
				if ps != pt {
					t.Fatalf("seed %d op %d: ecfPos %d != %d", seed, op, ps, pt)
				}
				s.insertAt(ps, entry{job: j, effC: effC})
				ft.insertAt(pt, j, effC, j.Remaining(10))
			} else {
				p := rng.Intn(len(s.entries))
				es := s.removeAt(p)
				jt, effCT, _ := ft.removeAt(p)
				if es.job != jt || es.effC != effCT {
					t.Fatalf("seed %d op %d: removeAt(%d) (%s,%v) != (%s,%v)",
						seed, op, p, es.job.Name(), es.effC, jt.Name(), effCT)
				}
			}
			compareStates(t, "positional", s, ft, opsS, opsT)
			// Occasionally roll the whole journal back and replay forward.
			if rng.Intn(25) == 0 {
				s.rollback(0)
				ft.rollback(0)
				compareStates(t, "full-rollback", s, ft, opsS, opsT)
				s.journal = s.journal[:0]
				ft.journal = ft.journal[:0]
			}
		}
	}
}

// TestSelectSteadyStateNoAlloc pins the zero-alloc contract on the full
// scheduling pass: after warm-up, Select allocates nothing, in both
// sharing modes.
func TestSelectSteadyStateNoAlloc(t *testing.T) {
	for _, tc := range []struct {
		name string
		rua  *RUA
	}{
		{"lockfree", NewLockFree()},
		{"lockbased", NewLockBased()},
	} {
		t.Run(tc.name, func(t *testing.T) {
			jobs := make([]*task.Job, 32)
			for i := range jobs {
				jobs[i] = mkJob(i, float64(1+i%5), rtime.Duration(500+10*i), rtime.Duration(20+i%7), 0)
			}
			w := world(0, nil, !tc.rua.lockFree, jobs...)
			for i := 0; i < 3; i++ {
				tc.rua.Select(w)
			}
			allocs := testing.AllocsPerRun(100, func() {
				tc.rua.Select(w)
			})
			if allocs != 0 {
				t.Fatalf("Select steady-state allocs/run = %v, want 0", allocs)
			}
		})
	}
}

// TestSelectTopKMatchesSchedulePrefix checks the tree-backed TopK path
// against Select's head and the slice-visible order.
func TestSelectTopKMatchesSchedulePrefix(t *testing.T) {
	r := NewLockFree()
	jobs := make([]*task.Job, 12)
	for i := range jobs {
		jobs[i] = mkJob(i, float64(1+i), rtime.Duration(300+40*i), 25, 0)
	}
	w := world(0, nil, false, jobs...)
	d := r.Select(w)
	ranked, ops := r.SelectTopK(w, 4)
	if len(ranked) != 4 {
		t.Fatalf("TopK len = %d", len(ranked))
	}
	if ranked[0] != d.Run {
		t.Fatalf("TopK head %s != Select run %s", ranked[0].Name(), d.Run.Name())
	}
	if d.Ops != ops {
		t.Fatalf("ops %d != %d across identical passes", d.Ops, ops)
	}
	for i := 1; i < len(ranked); i++ {
		if ranked[i] == ranked[i-1] {
			t.Fatal("duplicate in TopK")
		}
	}
}

// FuzzProbeMatchesSlice holds the probe to the slice reference on an
// arbitrary effC-sorted schedule: each byte pair of sched adds an entry
// (effective critical time, demand) at its ECF position, with effective
// critical times free to differ from the job's own (as Case-2
// inheritance makes them). The candidate is a fresh job with critical
// time crit and demand comp, and the schedule starts at now, so it may
// be infeasible before the candidate arrives. The probe must return the
// slice's verdict, charge what insertChain([j]) + feasible charge, and
// leave the same entries as the slice after its rollback.
func FuzzProbeMatchesSlice(f *testing.F) {
	f.Add([]byte{10, 5, 40, 9, 40, 3, 200, 30}, uint16(0), uint16(300), uint8(20))
	f.Add([]byte{1, 60, 2, 60}, uint16(100), uint16(2000), uint8(1))
	f.Add([]byte{}, uint16(50), uint16(10), uint8(200))
	f.Add([]byte{255, 1, 3, 1, 3, 1, 90, 255}, uint16(7), uint16(1024), uint8(64))
	f.Fuzz(func(t *testing.T, sched []byte, now, crit uint16, comp uint8) {
		const acc = rtime.Duration(10)
		sched = sched[:min(len(sched), 128)&^1]
		n := len(sched) / 2
		jobs := make([]*task.Job, n+1)
		for k := 0; k < n; k++ {
			jobs[k] = mkJob(k, 1, 1000, rtime.Duration(sched[2*k+1])+1, 0)
		}
		j := mkJob(n, 1, rtime.Duration(crit)+1, rtime.Duration(comp)+1, 0)
		jobs[n] = j

		var opsS, opsT int64
		s := &schedule{ops: &opsS}
		ft := &feasTree{ops: &opsT, snap: snapOf(jobs, acc)}
		ft.reset(n + 1)
		for k := 0; k < n; k++ {
			effC := rtime.Time(sched[2*k]) * 8
			p := s.ecfPos(effC)
			s.insertAt(p, entry{job: jobs[k], effC: effC})
			ft.insertAt(ft.ecfPos(effC), jobs[k], effC, jobs[k].Remaining(acc))
		}
		s.journal, ft.journal = s.journal[:0], ft.journal[:0]
		compareStates(t, "built", s, ft, opsS, opsT)

		at := rtime.Time(now)
		m := s.mark()
		s.insertChain([]*task.Job{j})
		want := s.feasible(at, acc)
		if !want {
			s.rollback(m)
		}
		if got := ft.probe(j, at); got != want {
			t.Fatalf("probe(%v) = %v, slice %v", at, got, want)
		}
		if len(ft.journal) != 0 {
			t.Fatalf("the probe journaled %d edits", len(ft.journal))
		}
		compareStates(t, "probed", s, ft, opsS, opsT)
	})
}
