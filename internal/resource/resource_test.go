package resource

import (
	"errors"
	"math"
	"slices"
	"testing"

	"repro/internal/rtime"
	"repro/internal/task"
	"repro/internal/tuf"
	"repro/internal/uam"
)

// mkJob returns task id's first job, numbered id: the map indexes job
// state by EngineSlot, which an engine sets when it creates the job.
func mkJob(id int) *task.Job {
	t := &task.Task{
		ID:      id,
		TUF:     tuf.MustStep(1, 1000),
		Arrival: uam.Periodic(2000),
		Segments: []task.Segment{
			{Kind: task.Compute, D: 10},
		},
	}
	j := task.NewJob(t, 0, 0)
	j.EngineSlot = int32(id)
	return j
}

func TestAcquireRelease(t *testing.T) {
	m := NewMap()
	j := mkJob(1)
	granted, holder, err := m.TryAcquire(j, 7)
	if err != nil || !granted || holder != nil {
		t.Fatalf("TryAcquire = (%v,%v,%v)", granted, holder, err)
	}
	if m.Owner(7) != j {
		t.Fatal("owner not recorded")
	}
	if hs := m.Held(j); len(hs) != 1 || hs[0] != 7 {
		t.Fatalf("Held = %v", hs)
	}
	if err := m.Release(j, 7); err != nil {
		t.Fatalf("Release: %v", err)
	}
	if m.Owner(7) != nil {
		t.Fatal("owner not cleared")
	}
	if m.Acquisitions != 1 {
		t.Fatalf("Acquisitions = %d", m.Acquisitions)
	}
}

func TestContention(t *testing.T) {
	m := NewMap()
	j1, j2 := mkJob(1), mkJob(2)
	m.TryAcquire(j1, 7)
	granted, holder, err := m.TryAcquire(j2, 7)
	if err != nil || granted || holder != j1 {
		t.Fatalf("TryAcquire contended = (%v,%v,%v)", granted, holder, err)
	}
	if obj, ok := m.WaitingFor(j2); !ok || obj != 7 {
		t.Fatalf("WaitingFor = (%d,%v)", obj, ok)
	}
	if j2.Blockings != 1 {
		t.Fatalf("Blockings = %d", j2.Blockings)
	}
	if m.Contentions != 1 {
		t.Fatalf("Contentions = %d", m.Contentions)
	}
}

func TestNestedAcquireRejected(t *testing.T) {
	m := NewMap()
	j := mkJob(1)
	m.TryAcquire(j, 7)
	_, _, err := m.TryAcquire(j, 7)
	if !errors.Is(err, ErrState) {
		t.Fatalf("re-acquire err = %v", err)
	}
}

func TestReleaseNotHeld(t *testing.T) {
	m := NewMap()
	j1, j2 := mkJob(1), mkJob(2)
	m.TryAcquire(j1, 7)
	if err := m.Release(j2, 7); !errors.Is(err, ErrState) {
		t.Fatalf("foreign release err = %v", err)
	}
	if err := m.Release(j1, 99); !errors.Is(err, ErrState) {
		t.Fatalf("unheld release err = %v", err)
	}
}

func TestReleaseAll(t *testing.T) {
	m := NewMap()
	j := mkJob(1)
	m.TryAcquire(j, 1)
	m.TryAcquire(j, 2) // different objects: legal (sequential sections)
	w := mkJob(2)
	m.TryAcquire(w, 1)
	other := mkJob(3)
	m.TryAcquire(other, 3)
	m.ReleaseAll(j)
	if m.Owner(1) != nil || m.Owner(2) != nil {
		t.Fatal("objects still owned after ReleaseAll")
	}
	if len(m.Held(j)) != 0 {
		t.Fatal("held list not cleared")
	}
	if m.Owner(3) != other || !slices.Equal(m.Held(other), []int{3}) {
		t.Fatal("ReleaseAll touched another job's objects")
	}
	if obj, ok := m.WaitingFor(w); !ok || obj != 1 {
		t.Fatalf("ReleaseAll dropped another job's wait record: (%d, %v)", obj, ok)
	}
	// A waiting job's wait record goes too, and ReleaseAll of a job with
	// no record is a no-op.
	m.ReleaseAll(w)
	if _, ok := m.WaitingFor(w); ok {
		t.Fatal("wait record survived ReleaseAll")
	}
	m.ReleaseAll(mkJob(4))
	// The released objects and the freed slot are usable again.
	if granted, _, err := m.TryAcquire(w, 1); err != nil || !granted {
		t.Fatalf("re-acquire after ReleaseAll = (%v, %v)", granted, err)
	}
	if granted, _, err := m.TryAcquire(j, 2); err != nil || !granted {
		t.Fatalf("re-acquire by the released job = (%v, %v)", granted, err)
	}
}

// TestHeldOrderWithMiddleRelease: the held objects form a LIFO list, and
// Held reads it back in acquisition order across a release from its
// middle and later acquisitions.
func TestHeldOrderWithMiddleRelease(t *testing.T) {
	m := NewMap()
	j := mkJob(0)
	for _, obj := range []int{4, 1, 7} {
		if granted, _, err := m.TryAcquire(j, obj); err != nil || !granted {
			t.Fatalf("acquire %d = (%v, %v)", obj, granted, err)
		}
	}
	if got := m.Held(j); !slices.Equal(got, []int{4, 1, 7}) {
		t.Fatalf("Held = %v, want [4 1 7]", got)
	}
	if err := m.Release(j, 1); err != nil {
		t.Fatal(err)
	}
	if got := m.Held(j); !slices.Equal(got, []int{4, 7}) {
		t.Fatalf("Held after middle release = %v, want [4 7]", got)
	}
	m.TryAcquire(j, 2)
	if got := m.Held(j); !slices.Equal(got, []int{4, 7, 2}) {
		t.Fatalf("Held after re-acquire = %v, want [4 7 2]", got)
	}
	for _, obj := range []int{2, 4, 7} {
		if err := m.Release(j, obj); err != nil {
			t.Fatal(err)
		}
	}
	if got := m.Held(j); len(got) != 0 {
		t.Fatalf("Held after releasing all = %v", got)
	}
	if m.Owner(1) != nil || m.Owner(4) != nil || m.Owner(7) != nil || m.Owner(2) != nil {
		t.Fatal("a released object is still owned")
	}
}

// TestSharedSlotRejected: two live jobs with one EngineSlot cannot both
// hold locks, and a job whose slot lies past the table holds and waits
// on nothing.
func TestSharedSlotRejected(t *testing.T) {
	m := NewSizedMap(4, 2)
	a, b := mkJob(1), mkJob(2)
	b.EngineSlot = a.EngineSlot
	m.TryAcquire(a, 0)
	if _, _, err := m.TryAcquire(b, 1); !errors.Is(err, ErrState) {
		t.Fatalf("acquire through a shared slot: err = %v", err)
	}
	if m.Owner(1) != nil {
		t.Fatal("the rejected job got the lock")
	}
	far := mkJob(9)
	if _, ok := m.WaitingFor(far); ok || len(m.Held(far)) != 0 {
		t.Fatal("a job past the table reads as waiting or holding")
	}
	if _, _, err := m.TryAcquire(&task.Job{Task: a.Task, EngineSlot: -1}, 1); !errors.Is(err, ErrState) {
		t.Fatalf("acquire with a negative slot: err = %v", err)
	}
}

// TestSlotReusedAfterReleaseAll: engines hand a departed job's slot to
// the next job released. Once ReleaseAll has emptied the record, the new
// job starts clean and chain walks through the slot find it; reusing a
// slot whose job still holds a lock is caught at the next acquisition.
func TestSlotReusedAfterReleaseAll(t *testing.T) {
	m := NewSizedMap(1, 3)
	a, c := mkJob(0), mkJob(1)
	m.TryAcquire(a, 0)
	m.TryAcquire(a, 1)
	m.TryAcquire(c, 2)
	if granted, _, _ := m.TryAcquire(a, 2); granted {
		t.Fatal("setup: object 2 should be held by c")
	}
	m.ReleaseAll(a) // a departs; its slot 0 is free again
	a.EngineSlot = -1

	d := mkJob(2)
	d.EngineSlot = 0
	if _, ok := m.WaitingFor(d); ok || len(m.Held(d)) != 0 {
		t.Fatalf("reused slot not clean: waiting=%v held=%v", ok, m.Held(d))
	}
	if chain, cycle := m.DependencyChain(d); cycle || len(chain) != 1 || chain[0] != d {
		t.Fatalf("chain of a fresh job = %v (cycle %v)", chain, cycle)
	}
	for _, obj := range []int{1, 0} {
		if granted, _, err := m.TryAcquire(d, obj); err != nil || !granted {
			t.Fatalf("reused slot acquiring %d: granted=%v err=%v", obj, granted, err)
		}
	}
	if held := m.Held(d); !slices.Equal(held, []int{1, 0}) {
		t.Fatalf("held = %v, want [1 0]", held)
	}
	// c waits on d: the walk reaches d through the slot object 0 kept.
	if granted, _, _ := m.TryAcquire(c, 0); granted {
		t.Fatal("object 0 should be held by d")
	}
	if chain, cycle := m.DependencyChain(c); cycle || !slices.Equal(chain, []*task.Job{d, c}) {
		t.Fatalf("chain(c) = %v (cycle %v), want [d c]", chain, cycle)
	}

	// Reusing d's slot while d still holds its locks is a shared slot.
	e := mkJob(3)
	e.EngineSlot = d.EngineSlot
	if _, _, err := m.TryAcquire(e, 2); !errors.Is(err, ErrState) {
		t.Fatalf("acquire through a slot whose job still holds locks: err = %v", err)
	}
}

func TestDependencyChainLinear(t *testing.T) {
	// Paper §3.1 example: T1 waits on R1 held by T2; T2 waits on R2 held
	// by T3; chain(T1) = ⟨T3, T2, T1⟩.
	m := NewMap()
	t1, t2, t3 := mkJob(1), mkJob(2), mkJob(3)
	m.TryAcquire(t3, 2) // T3 holds R2
	m.TryAcquire(t2, 1) // T2 holds R1
	m.TryAcquire(t2, 2) // T2 waits on R2
	m.TryAcquire(t1, 1) // T1 waits on R1
	chain, cycle := m.DependencyChain(t1)
	if cycle {
		t.Fatal("unexpected cycle")
	}
	want := []*task.Job{t3, t2, t1}
	if len(chain) != 3 {
		t.Fatalf("chain len = %d", len(chain))
	}
	for i := range want {
		if chain[i] != want[i] {
			t.Fatalf("chain[%d] = %s, want %s", i, chain[i].Name(), want[i].Name())
		}
	}
	// T2's chain is ⟨T3, T2⟩; T3's chain is ⟨T3⟩.
	c2, _ := m.DependencyChain(t2)
	if len(c2) != 2 || c2[0] != t3 || c2[1] != t2 {
		t.Fatalf("chain(T2) wrong")
	}
	c3, _ := m.DependencyChain(t3)
	if len(c3) != 1 || c3[0] != t3 {
		t.Fatalf("chain(T3) wrong")
	}
}

func TestDependencyChainCycle(t *testing.T) {
	m := NewMap()
	t1, t2 := mkJob(1), mkJob(2)
	m.TryAcquire(t1, 1)
	m.TryAcquire(t2, 2)
	m.TryAcquire(t1, 2) // T1 waits on R2 (held by T2)
	m.TryAcquire(t2, 1) // T2 waits on R1 (held by T1): deadlock
	_, cycle := m.DependencyChain(t1)
	if !cycle {
		t.Fatal("cycle not detected")
	}
}

func TestDependencyChainBrokenLink(t *testing.T) {
	m := NewMap()
	t1, t2 := mkJob(1), mkJob(2)
	m.TryAcquire(t2, 1)
	m.TryAcquire(t1, 1) // waits
	m.Release(t2, 1)    // released, but t1's wait record remains
	chain, cycle := m.DependencyChain(t1)
	if cycle || len(chain) != 1 || chain[0] != t1 {
		t.Fatalf("chain after release = %v (cycle=%v)", chain, cycle)
	}
}

func TestForget(t *testing.T) {
	m := NewMap()
	t1, t2 := mkJob(1), mkJob(2)
	m.TryAcquire(t2, 1)
	m.TryAcquire(t1, 1)
	m.Forget(t1)
	if _, ok := m.WaitingFor(t1); ok {
		t.Fatal("wait record survived Forget")
	}
}

// TestDependencyChainCycleEveryWalk: a three-job wait cycle is reported
// on every walk from each member, across many consecutive walks and
// across the wrap-around of the walk stamp, and the stamps of one walk
// never make a later walk see a cycle that is not there.
func TestDependencyChainCycleEveryWalk(t *testing.T) {
	m := NewMap()
	a, b, c := mkJob(0), mkJob(1), mkJob(2)
	free := mkJob(3)
	m.TryAcquire(a, 0)
	m.TryAcquire(b, 1)
	m.TryAcquire(c, 2)
	m.TryAcquire(a, 1) // a waits on b
	m.TryAcquire(b, 2) // b waits on c
	m.TryAcquire(c, 0) // c waits on a
	m.TryAcquire(free, 3)
	walk := func(k int) {
		t.Helper()
		for _, j := range []*task.Job{a, b, c} {
			chain, cycle := m.DependencyChain(j)
			if !cycle || len(chain) != 3 || chain[2] != j {
				t.Fatalf("walk %d from %s: chain of %d, cycle %v", k, j.Name(), len(chain), cycle)
			}
		}
		if chain, cycle := m.DependencyChain(free); cycle || len(chain) != 1 {
			t.Fatalf("walk %d: the free job's chain has %d members, cycle %v", k, len(chain), cycle)
		}
	}
	for k := 0; k < 1000; k++ {
		walk(k)
	}
	m.epoch = math.MaxUint32 - 5
	for k := 0; k < 20; k++ {
		walk(k)
	}
	if m.epoch == 0 || m.epoch > 100 {
		t.Fatalf("epoch %d after the wrap", m.epoch)
	}
}

// TestDependencyChainEpochWrap: a stamp left by a walk 2³² walks ago
// does not read as a visit by the walk that reuses its epoch.
func TestDependencyChainEpochWrap(t *testing.T) {
	m := NewMap()
	w, x, y := mkJob(0), mkJob(1), mkJob(2)
	m.TryAcquire(y, 1)
	m.TryAcquire(x, 0)
	m.TryAcquire(x, 1) // x waits on y
	m.TryAcquire(w, 0) // w waits on x
	if _, cycle := m.DependencyChain(x); cycle {
		t.Fatal("cycle on the first walk")
	}
	stamp := m.jobs[x.EngineSlot].seen
	m.epoch = math.MaxUint32 - stamp + 1 // the next walk wraps and reuses stamp
	chain, cycle := m.DependencyChain(w)
	if m.epoch != stamp {
		t.Fatalf("walk ran at epoch %d, want the reused %d", m.epoch, stamp)
	}
	if cycle || len(chain) != 3 || chain[0] != y || chain[2] != w {
		t.Fatalf("chain after the wrap: %d members, cycle %v", len(chain), cycle)
	}
}

// TestCommittedSinceZero: an object committed at t=0 differs from one
// never committed.
func TestCommittedSinceZero(t *testing.T) {
	for _, m := range []*Map{NewMap(), NewSizedMap(0, 4)} {
		if m.CommittedSince(2, 0) || m.CommittedAfter(2, -1) {
			t.Fatal("an object never committed reports a commit")
		}
		m.RecordCommit(2, 0)
		if !m.CommittedSince(2, 0) {
			t.Fatal("a commit at t=0 is not visible for since=0")
		}
		if m.CommittedAfter(2, 0) || !m.CommittedAfter(2, -1) {
			t.Fatal("CommittedAfter misorders a commit at t=0")
		}
		if m.CommittedSince(1, 0) || m.CommittedSince(3, 0) {
			t.Fatal("a commit leaked to a neighbouring object")
		}
	}
}

func TestCommitTracking(t *testing.T) {
	m := NewMap()
	if m.CommittedSince(3, 0) {
		t.Fatal("commit reported on untouched object")
	}
	m.RecordCommit(3, rtime.Time(100))
	if !m.CommittedSince(3, 100) {
		t.Fatal("commit at t not visible for since=t")
	}
	if !m.CommittedSince(3, 50) {
		t.Fatal("commit after since not visible")
	}
	if m.CommittedSince(3, 101) {
		t.Fatal("stale commit visible")
	}
	if m.Commits != 1 {
		t.Fatalf("Commits = %d", m.Commits)
	}
}
