package rua

// White-box tests for the tentative-schedule machinery of §3.4/§3.4.1:
// ECF positions, dependency-forced moves, critical-time inheritance,
// feasibility arithmetic and journal rollback — exercised directly on
// the schedule type.

import (
	"math/rand"
	"slices"
	"testing"

	"repro/internal/rtime"
	"repro/internal/task"
)

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

// newSched returns an empty schedule over a snapshot of jobs, taken at
// an access cost of 10.
func newSched(jobs ...*task.Job) (*schedule, *int64) {
	var ops int64
	return &schedule{ops: &ops, snap: snapOf(jobs, 10)}, &ops
}

func TestECFPositionsAndInsert(t *testing.T) {
	j1 := mkJob(1, 1, 1000, 10, 0)
	j2 := mkJob(2, 1, 500, 10, 0)
	j3 := mkJob(3, 1, 1500, 10, 0)
	s, _ := newSched(j1, j2, j3)
	s.insertAt(s.ecfPos(j1.AbsoluteCriticalTime()), entry{job: j1, effC: j1.AbsoluteCriticalTime()})
	s.insertAt(s.ecfPos(j2.AbsoluteCriticalTime()), entry{job: j2, effC: j2.AbsoluteCriticalTime()})
	s.insertAt(s.ecfPos(j3.AbsoluteCriticalTime()), entry{job: j3, effC: j3.AbsoluteCriticalTime()})
	want := []*task.Job{j2, j1, j3}
	for i, w := range want {
		if s.entries[i].job != w {
			t.Fatalf("pos %d = %s, want %s", i, s.entries[i].job.Name(), w.Name())
		}
	}
	if s.indexOf(j1) != 1 || s.indexOf(j2) != 0 || s.indexOf(j3) != 2 {
		t.Fatal("indexOf wrong")
	}
	missing := mkJob(9, 1, 100, 10, 0)
	if s.indexOf(missing) != -1 {
		t.Fatal("indexOf found a missing job")
	}
}

func TestEqualCriticalTimesStable(t *testing.T) {
	j1 := mkJob(1, 1, 1000, 10, 0)
	j2 := mkJob(2, 1, 1000, 10, 0)
	s, _ := newSched(j1, j2)
	s.insertAt(s.ecfPos(j1.AbsoluteCriticalTime()), entry{job: j1, effC: j1.AbsoluteCriticalTime()})
	// Equal effC inserts AFTER existing equals (stable).
	s.insertAt(s.ecfPos(j2.AbsoluteCriticalTime()), entry{job: j2, effC: j2.AbsoluteCriticalTime()})
	if s.entries[0].job != j1 || s.entries[1].job != j2 {
		t.Fatal("equal-effC insertion not stable")
	}
}

func TestRemoveAt(t *testing.T) {
	j1 := mkJob(1, 1, 1000, 10, 0)
	j2 := mkJob(2, 1, 2000, 10, 0)
	s, _ := newSched(j1, j2)
	s.insertAt(0, entry{job: j1, effC: 1000})
	s.insertAt(1, entry{job: j2, effC: 2000})
	e := s.removeAt(0)
	if e.job != j1 || len(s.entries) != 1 || s.entries[0].job != j2 {
		t.Fatal("removeAt wrong")
	}
}

func TestInsertChainCase2Inheritance(t *testing.T) {
	// Chain ⟨T2, T1⟩ with C2 > C1 (§3.4.1 Case 2): T2 must be inserted
	// before T1 with effC tightened to C1's.
	t1 := mkJob(1, 1, 500, 10, 0)  // tail (the blocked job), early C
	t2 := mkJob(2, 1, 5000, 10, 0) // head (the holder), late C
	s, _ := newSched(t1, t2)
	s.insertChain([]*task.Job{t2, t1})
	if len(s.entries) != 2 {
		t.Fatalf("entries = %d", len(s.entries))
	}
	if s.entries[0].job != t2 || s.entries[1].job != t1 {
		t.Fatalf("order = %s, %s; want T2 before T1", s.entries[0].job.Name(), s.entries[1].job.Name())
	}
	if s.entries[0].effC != t1.AbsoluteCriticalTime() {
		t.Fatalf("T2 effC = %v, want inherited %v", s.entries[0].effC, t1.AbsoluteCriticalTime())
	}
}

func TestInsertChainCase1NoInheritance(t *testing.T) {
	// C2 < C1: ECF order already consistent with dependency order.
	t1 := mkJob(1, 1, 5000, 10, 0) // tail, late C
	t2 := mkJob(2, 1, 500, 10, 0)  // head, early C
	s, _ := newSched(t1, t2)
	s.insertChain([]*task.Job{t2, t1})
	if s.entries[0].job != t2 || s.entries[1].job != t1 {
		t.Fatal("order wrong")
	}
	if s.entries[0].effC != t2.AbsoluteCriticalTime() {
		t.Fatalf("T2 effC modified needlessly: %v", s.entries[0].effC)
	}
}

func TestInsertChainReordersExistingDependent(t *testing.T) {
	// Fig 5's removal-and-reinsertion: T1 already sits late in the
	// schedule; inserting ⟨T1, T3⟩ with C1 > C3 must move T1 before T3
	// and tighten its effC.
	t1 := mkJob(1, 1, 5000, 10, 0)
	t2 := mkJob(2, 1, 1000, 10, 0)
	t3 := mkJob(3, 1, 300, 10, 0)
	s, _ := newSched(t1, t2, t3)
	// Existing schedule: ⟨T2, T1⟩ (by critical time).
	s.insertChain([]*task.Job{t1})
	s.insertChain([]*task.Job{t2})
	if s.entries[0].job != t2 || s.entries[1].job != t1 {
		t.Fatal("setup order wrong")
	}
	// Now T3 with dependency chain ⟨T1, T3⟩ and C3 < C1.
	s.insertChain([]*task.Job{t1, t3})
	// T1 must now precede T3; T3 has the earliest effC so it sits first
	// only if T1 was moved before it... dependency wins: find positions.
	p1, p3 := s.indexOf(t1), s.indexOf(t3)
	if p1 > p3 {
		t.Fatalf("T1 (pos %d) not before its dependent T3 (pos %d)", p1, p3)
	}
	if c := s.entries[p1].effC; c > t3.AbsoluteCriticalTime() {
		t.Fatalf("T1 effC %v not tightened to T3's %v", c, t3.AbsoluteCriticalTime())
	}
}

func TestInsertChainSkipsFinishedDependents(t *testing.T) {
	done := mkJob(1, 1, 1000, 10, 0)
	done.State = task.Completed
	alive := mkJob(2, 1, 2000, 10, 0)
	s, _ := newSched(done, alive)
	s.insertChain([]*task.Job{done, alive})
	if len(s.entries) != 1 || s.entries[0].job != alive {
		t.Fatal("finished dependent not skipped")
	}
}

func TestFeasibility(t *testing.T) {
	// Two jobs of 100 each; critical times 150 and 250 → feasible
	// back-to-back (100 ≤ 150, 200 ≤ 250).
	j1 := mkJob(1, 1, 150, 100, 0)
	j2 := mkJob(2, 1, 250, 100, 0)
	s, _ := newSched(j1, j2)
	s.insertChain([]*task.Job{j1})
	s.insertChain([]*task.Job{j2})
	if !s.feasible(0) {
		t.Fatal("feasible schedule judged infeasible")
	}
	// From now=60 the first completes at 160 > 150 → infeasible.
	if s.feasible(60) {
		t.Fatal("infeasible schedule judged feasible")
	}
}

func TestChargeLogGrows(t *testing.T) {
	s, ops := newSched()
	for i := 0; i < 64; i++ {
		j := mkJob(i, 1, rtime.Duration(1000+i), 10, 0)
		s.insertAt(s.ecfPos(j.AbsoluteCriticalTime()), entry{job: j, effC: j.AbsoluteCriticalTime()})
	}
	small := *ops
	*ops = 0
	for i := 64; i < 128; i++ {
		j := mkJob(i, 1, rtime.Duration(1000+i), 10, 0)
		s.insertAt(s.ecfPos(j.AbsoluteCriticalTime()), entry{job: j, effC: j.AbsoluteCriticalTime()})
	}
	big := *ops
	if big <= small {
		t.Fatalf("charged ops did not grow with schedule size: %d then %d", small, big)
	}
}

// rollbackSeeds seed FuzzScheduleRollback; TestRollbackSeedsCoverChainPaths
// checks that they reach both §3.4.1 paths.
var rollbackSeeds = []struct {
	seed  int64
	edits []byte
}{
	{1, []byte{0, 0, 0, 1, 0, 2, 0, 0}},
	{7, []byte{0, 3, 0, 6, 0, 0, 5, 0, 1, 4, 0, 0}},
	{42, []byte{1, 1, 1, 0, 0, 2, 2, 0, 0, 0}},
	{-3, []byte{}},
}

// FuzzScheduleRollback drives a schedule through seeded edits — chain
// insertions over a small job pool, so chains meet already-present
// members and force Case-2 reorders, mixed with raw insertAt/removeAt —
// then rolls back to a checkpoint taken before a random edit. The
// entries (job, effC, rem) must be exactly those at the checkpoint, and
// rollback must charge nothing.
func FuzzScheduleRollback(f *testing.F) {
	for _, s := range rollbackSeeds {
		f.Add(s.seed, s.edits)
	}
	f.Fuzz(func(t *testing.T, seed int64, edits []byte) {
		rollbackRun(t, seed, edits)
	})
}

func TestRollbackSeedsCoverChainPaths(t *testing.T) {
	var present, inherited bool
	for _, s := range rollbackSeeds {
		p, i := rollbackRun(t, s.seed, s.edits)
		present, inherited = present || p, inherited || i
	}
	if !present || !inherited {
		t.Fatalf("seeds reach already-present members %v, Case-2 inheritance %v; want both", present, inherited)
	}
}

// rollbackRun is one FuzzScheduleRollback input: edit bytes pick chain
// insertion, raw insertion or raw removal, and seed draws the pool and
// every choice. It reports whether a chain met an already-present
// member and whether Case 2 left an entry with an inherited effC.
func rollbackRun(t *testing.T, seed int64, edits []byte) (present, inherited bool) {
	t.Helper()
	rng := rand.New(rand.NewSource(seed))
	pool := make([]*task.Job, 8)
	for i := range pool {
		c := rtime.Duration(100 * (1 + rng.Intn(6)))
		pool[i] = mkJob(i, 1, c, rtime.Duration(5+rng.Intn(120)), 0)
	}
	s, ops := newSched(pool...)
	type checkpoint struct {
		mark    int
		entries []entry
	}
	var cps []checkpoint
	for _, b := range edits[:min(len(edits), 64)] {
		cps = append(cps, checkpoint{s.mark(), slices.Clone(s.entries)})
		switch b % 3 {
		case 0:
			// A chain of one to three distinct pool jobs.
			perm := rng.Perm(len(pool))
			chain := make([]*task.Job, 1+rng.Intn(3))
			for i := range chain {
				chain[i] = pool[perm[i]]
			}
			for _, d := range chain[:len(chain)-1] {
				present = present || s.indexOf(d) >= 0
			}
			s.insertChain(chain)
			for _, e := range s.entries {
				inherited = inherited || e.effC != s.snap.crit[e.job.SchedSlot]
			}
		case 1:
			j := pool[rng.Intn(len(pool))]
			if s.indexOf(j) < 0 {
				c := s.snap.crit[j.SchedSlot]
				s.insertAt(s.ecfPos(c), entry{job: j, effC: c, rem: s.snap.rem[j.SchedSlot]})
			}
		case 2:
			if len(s.entries) > 0 {
				s.removeAt(rng.Intn(len(s.entries)))
			}
		}
	}
	if len(cps) == 0 {
		return present, inherited
	}
	cp := cps[rng.Intn(len(cps))]
	before := *ops
	s.rollback(cp.mark)
	if *ops != before {
		t.Fatalf("rollback charged %d ops", *ops-before)
	}
	if s.mark() != cp.mark {
		t.Fatalf("journal length %d after rollback to %d", s.mark(), cp.mark)
	}
	if !slices.Equal(s.entries, cp.entries) {
		t.Fatalf("rollback to %d restored %v, want %v", cp.mark, s.entries, cp.entries)
	}
	return present, inherited
}
