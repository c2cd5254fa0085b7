package rua

import (
	"slices"
	"testing"

	"repro/internal/resource"
	"repro/internal/sched"
	"repro/internal/task"
)

// Tests of the per-pass slot numbering: a pass reads per-job scratch
// through Job.SchedSlot, which earlier passes, other instances and jobs
// outside the pass's candidates leave stale. None of that may change a
// decision.

// blockOn puts j at its first access boundary and, when another job
// holds obj, records it as blocked on obj.
func blockOn(t *testing.T, res *resource.Map, j *task.Job, obj int) {
	t.Helper()
	j.Step(1<<40, 10)
	granted, _, err := res.TryAcquire(j, obj)
	if err != nil {
		t.Fatal(err)
	}
	if granted {
		j.Step(2, 10) // into the access, holding obj
		return
	}
	j.State = task.Blocked
}

// slotWorlds builds two worlds over one resource map: a, and b, which is
// a subset of a in reverse order plus f5, one of others (jobs outside
// a). In lock-based use a holds a deadlock cycle (c1, c2), waiters on
// holders both inside a (h0) and outside it (h1, the other of others),
// and a job that can no longer meet its critical time (doomed). b leaves
// out both holders, so its chains reach jobs it does not list, and h0's
// slot from a is the slot b gives c2, the deadlock victim.
func slotWorlds(t *testing.T) (res *resource.Map, a, b, others []*task.Job) {
	res = resource.NewMap()
	h0 := mkSharingJob(0, 5, 3000, 100, 0)
	w1 := mkSharingJob(1, 80, 900, 60, 0)
	w2 := mkSharingJob(2, 10, 2500, 60, 0)
	h1 := mkSharingJob(3, 2, 4000, 100, 1)
	w3 := mkSharingJob(4, 60, 1200, 60, 1)
	for _, step := range []struct {
		j   *task.Job
		obj int
	}{{h0, 0}, {w1, 0}, {w2, 0}, {h1, 1}, {w3, 1}} {
		blockOn(t, res, step.j, step.obj)
	}
	c1 := mkJob(5, 40, 2000, 50, 0)
	c2 := mkJob(6, 3, 2000, 50, 0)
	res.TryAcquire(c1, 5)
	res.TryAcquire(c2, 6)
	res.TryAcquire(c1, 6) // waits
	res.TryAcquire(c2, 5) // waits: cycle
	f1 := mkJob(7, 30, 700, 200, 0)
	f2 := mkJob(8, 90, 800, 250, 0)
	doomed := mkJob(9, 50, 100, 400, 0)
	f4 := mkJob(10, 7, 5000, 150, 0)
	f5 := mkJob(11, 20, 1500, 80, 0)

	a = []*task.Job{w2, f1, h0, w1, w3, c1, c2, f2, doomed, f4}
	others = []*task.Job{f5, h1}
	b = []*task.Job{f4, doomed, c2, c1, w3, w1, f5}
	return res, a, b, others
}

func sameDecision(t *testing.T, ctx string, got, want sched.Decision) {
	t.Helper()
	if got.Run != want.Run || got.Ops != want.Ops || !slices.Equal(got.Abort, want.Abort) {
		name := func(j *task.Job) string {
			if j == nil {
				return "<nil>"
			}
			return j.Name()
		}
		t.Fatalf("%s: decision (run %s, %d aborts, %d ops), fresh instance (run %s, %d aborts, %d ops)",
			ctx, name(got.Run), len(got.Abort), got.Ops, name(want.Run), len(want.Abort), want.Ops)
	}
}

// TestReusedInstanceMatchesFresh: an instance that last ran a pass over
// world a, on jobs some of which another instance numbered since, decides
// world b exactly as a fresh instance does on jobs no pass has numbered,
// in both modes.
func TestReusedInstanceMatchesFresh(t *testing.T) {
	for _, lockBased := range []bool{false, true} {
		mk := func() *RUA {
			if lockBased {
				return NewLockBased().WithDegradation()
			}
			return NewLockFree().WithDegradation()
		}
		res, a, b, others := slotWorlds(t)
		r := mk()
		r.Select(world(300, res, lockBased, a...))
		mk().Select(world(300, res, lockBased, others...))

		got := r.Select(world(300, res, lockBased, b...))
		// Copy the aliased abort scratch before the next pass reuses it.
		got.Abort = slices.Clone(got.Abort)
		for _, j := range append(a, others...) {
			j.SchedSlot = -1
		}
		want := mk().Select(world(300, res, lockBased, b...))
		sameDecision(t, r.Name(), got, want)
		if lockBased && len(want.Abort) == 0 {
			t.Fatal("lock-based world b resolves no deadlock; the abort path was not exercised")
		}
	}
}

// TestStaleSlotOnAbortingHolder: a lock-based chain that reaches a
// holder whose abort handler is still running excludes its waiter from
// the pass, whatever stale slot the holder carries — including slots of
// this pass's candidates.
func TestStaleSlotOnAbortingHolder(t *testing.T) {
	res := resource.NewMap()
	h := mkSharingJob(0, 5, 3000, 100, 0)
	w := mkSharingJob(1, 100, 900, 60, 0)
	x := mkJob(2, 1, 2000, 50, 0)
	y := mkJob(3, 40, 1500, 80, 0)
	blockOn(t, res, h, 0)
	blockOn(t, res, w, 0)
	h.State = task.Aborting
	res.Forget(h)

	var ref sched.Decision
	var refRanked []*task.Job
	for i, stale := range []int32{-1, 0, 1, 2, 3, 1 << 20} {
		h.SchedSlot = stale
		r := NewLockBased()
		wd := world(200, res, true, w, x, h, y)
		d := r.Select(wd)
		ranked, _ := r.SelectTopK(wd, 4)
		if slices.Contains(ranked, w) || slices.Contains(ranked, h) {
			t.Fatalf("stale slot %d: the waiter on an aborting holder (or the holder) was scheduled", stale)
		}
		if i == 0 {
			ref, refRanked = d, slices.Clone(ranked)
			continue
		}
		sameDecision(t, "stale slot", d, ref)
		if !slices.Equal(ranked, refRanked) {
			t.Fatalf("stale slot %d: ranking changed", stale)
		}
	}
	if len(refRanked) != 2 {
		t.Fatalf("ranked %d jobs, want the two free candidates", len(refRanked))
	}
}
