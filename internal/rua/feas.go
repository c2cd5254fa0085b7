package rua

// Incremental feasibility: a positional treap replacing the O(n) slice
// behind the tentative schedule of §3.4. The slice `schedule` type stays
// in the package as the semantic reference (and the differential test's
// oracle); the scheduler itself runs on this tree.
//
// The tree stores the same (job, effC) entries in the same order and
// additionally captures each job's Remaining at insertion time, read from
// the pass's snapshot (passSnap) — constant within one scheduling pass,
// since jobs only execute between passes. Per-node aggregates over
// subtrees:
//
//	cnt      — subtree size (order statistics: indexOf, positional ops)
//	sum      — Σ rem (prefix sums of execution demand)
//	minSlack — min over subtree members i of effC_i − localPrefix_i,
//	           where localPrefix_i counts every rem up to and including
//	           i *within the subtree*
//
// A schedule is feasible from time `now` iff every prefix completes by
// its effective critical time: now + prefix_i ≤ effC_i for all i, i.e.
// root.minSlack ≥ now. That turns the O(n) feasibility walk into O(1),
// and the first-violation lookup (for charge parity, below) into one
// root-to-violator descent.
//
// CHARGED-OPERATION PARITY is a hard contract: the §3.6 cost model is
// part of the paper's results (scheduling overhead becomes virtual time,
// Fig 9), so the tree must charge *exactly* what the slice charged while
// doing less real work:
//
//   - indexOf / ecfPos / insertAt / removeAt charge ⌈log₂(len+1)⌉ — same
//     chargeLog, len taken at the same instant.
//   - feasible charges one op per entry the slice walk would have
//     visited: all n on success, first-violation-index+1 on failure.
//   - journaling and rollback are uncharged, as on the slice.
//   - probe charges exactly what insertChain([j]) followed by feasible
//     would, without inserting a job that fails.
//
// ecfPos descends by effC key, which is valid because the schedule is
// always globally sorted by effC: plain inserts go to their ECF
// position, and a Case-2 insert (§3.4.1) places the dependent directly
// before its successor while inheriting the successor's effC, preserving
// sortedness; removal never breaks it. The descent counts entries with
// effC ≤ c, which equals sort.Search's first-index-with-effC>c on a
// sorted sequence — insertion stays stable for equal critical times.
//
// Treap shape is deterministic: node priorities come from splitmix64 of
// a counter reset at every pass, so identical insertion sequences build
// identical trees on every run and every platform.

import (
	"math"

	"repro/internal/rtime"
	"repro/internal/task"
)

const nilNode = int32(-1)

type feasNode struct {
	job  *task.Job
	effC rtime.Time
	rem  rtime.Duration // the job's snapshotted Remaining, captured at insert
	prio uint64

	parent, left, right int32

	// Subtree aggregates (see package comment on the file).
	cnt      int32
	sum      rtime.Duration
	minSlack int64
}

// feasMut journals one tree edit for rollback, mirroring `mutation` on
// the slice. Removals record enough to re-insert the exact entry.
type feasMut struct {
	insert bool
	pos    int
	job    *task.Job
	effC   rtime.Time
	rem    rtime.Duration
}

// passSnap is one pass's snapshot of every numbered job's remaining
// demand and absolute critical time, indexed by Job.SchedSlot. Jobs do
// not execute during a pass, so both are constant within it; taking them
// once spares the segment walk and the critical-time read at every PUD
// term, insertion and degradation test.
type passSnap struct {
	rem  []rtime.Duration
	crit []rtime.Time
}

// take snapshots the jobs numbered by their position in slots.
func (s *passSnap) take(slots []*task.Job, acc rtime.Duration) {
	s.rem = resize(s.rem, len(slots))
	s.crit = resize(s.crit, len(slots))
	for i, j := range slots {
		s.rem[i] = j.Remaining(acc)
		s.crit[i] = j.AbsoluteCriticalTime()
	}
}

// feasTree is the incremental tentative schedule. Zero value is unusable;
// call reset and point snap at the pass's snapshot before a pass.
type feasTree struct {
	nodes   []feasNode
	root    int32
	free    []int32 // recycled node slots
	pos     []int32 // Job.SchedSlot → node index, nilNode when absent
	snap    *passSnap
	ops     *int64
	journal []feasMut
	prioCtr uint64
}

// reset clears the tree for a fresh scheduling pass over jobs whose
// SchedSlot lies in [0, slots), keeping capacity.
func (t *feasTree) reset(slots int) {
	t.nodes = t.nodes[:0]
	t.root = nilNode
	t.free = t.free[:0]
	t.pos = resize(t.pos, slots)
	for i := range t.pos {
		t.pos[i] = nilNode
	}
	t.journal = t.journal[:0]
	t.prioCtr = 0
}

func (t *feasTree) count() int {
	if t.root == nilNode {
		return 0
	}
	return int(t.nodes[t.root].cnt)
}

// chargeLog charges ⌈log₂(len+1)⌉ operations — identical to
// schedule.chargeLog at the same schedule length.
func (t *feasTree) chargeLog() { *t.ops += logCharge(t.count()) }

// logCharge is the ordered-list primitive's charge on a schedule of n
// entries.
func logCharge(n int) int64 {
	n++
	c := int64(1)
	for n > 1 {
		c++
		n >>= 1
	}
	return c
}

func splitmix64(x uint64) uint64 {
	x += 0x9e3779b97f4a7c15
	x = (x ^ (x >> 30)) * 0xbf58476d1ce4e5b9
	x = (x ^ (x >> 27)) * 0x94d049bb133111eb
	return x ^ (x >> 31)
}

// pull recomputes v's aggregates from its children.
func (t *feasTree) pull(v int32) {
	n := &t.nodes[v]
	var lcnt, rcnt int32
	var lsum, rsum rtime.Duration
	lmin, rmin := int64(math.MaxInt64), int64(math.MaxInt64)
	if n.left != nilNode {
		l := &t.nodes[n.left]
		lcnt, lsum, lmin = l.cnt, l.sum, l.minSlack
	}
	if n.right != nilNode {
		r := &t.nodes[n.right]
		rcnt, rsum, rmin = r.cnt, r.sum, r.minSlack
	}
	n.cnt = lcnt + rcnt + 1
	n.sum = lsum + rsum + n.rem
	before := int64(lsum) + int64(n.rem) // local prefix through v itself
	m := lmin
	if own := int64(n.effC) - before; own < m {
		m = own
	}
	if rmin != math.MaxInt64 {
		if shifted := rmin - before; shifted < m {
			m = shifted
		}
	}
	n.minSlack = m
}

func (t *feasTree) alloc(j *task.Job, effC rtime.Time, rem rtime.Duration) int32 {
	var i int32
	if n := len(t.free); n > 0 {
		i = t.free[n-1]
		t.free = t.free[:n-1]
	} else {
		//rtlint:ignore noalloc arena growth is amortized; removals feed the free list
		t.nodes = append(t.nodes, feasNode{})
		i = int32(len(t.nodes) - 1)
	}
	t.prioCtr++
	t.nodes[i] = feasNode{
		job: j, effC: effC, rem: rem,
		prio:   splitmix64(t.prioCtr),
		parent: nilNode, left: nilNode, right: nilNode,
		cnt: 1, sum: rem, minSlack: int64(effC) - int64(rem),
	}
	t.pos[j.SchedSlot] = i
	return i
}

// node returns j's node index, or nilNode when j is not in the tree. A
// stale SchedSlot finds another job's node, or none, so the node's job
// is checked too.
func (t *feasTree) node(j *task.Job) int32 {
	s := int(j.SchedSlot)
	if s < 0 || s >= len(t.pos) {
		return nilNode
	}
	if i := t.pos[s]; i != nilNode && t.nodes[i].job == j {
		return i
	}
	return nilNode
}

func (t *feasTree) freeNode(i int32) {
	t.pos[t.nodes[i].job.SchedSlot] = nilNode
	t.nodes[i] = feasNode{} // drop the job pointer
	//rtlint:ignore noalloc reused free-list scratch; growth amortized
	t.free = append(t.free, i)
}

// rotateUp rotates x above its parent, fixing links and aggregates of
// the two nodes involved (ancestors keep valid aggregates because the
// rotation does not change the subtree's member set).
func (t *feasTree) rotateUp(x int32) {
	p := t.nodes[x].parent
	g := t.nodes[p].parent
	if t.nodes[p].left == x {
		r := t.nodes[x].right
		t.nodes[p].left = r
		if r != nilNode {
			t.nodes[r].parent = p
		}
		t.nodes[x].right = p
	} else {
		l := t.nodes[x].left
		t.nodes[p].right = l
		if l != nilNode {
			t.nodes[l].parent = p
		}
		t.nodes[x].left = p
	}
	t.nodes[p].parent = x
	t.nodes[x].parent = g
	if g == nilNode {
		t.root = x
	} else if t.nodes[g].left == p {
		t.nodes[g].left = x
	} else {
		t.nodes[g].right = x
	}
	t.pull(p)
	t.pull(x)
}

func (t *feasTree) leftCnt(v int32) int {
	if l := t.nodes[v].left; l != nilNode {
		return int(t.nodes[l].cnt)
	}
	return 0
}

// insertRaw places a new entry at position pos. Uncharged, unjournaled —
// the primitive shared by insertAt and rollback.
func (t *feasTree) insertRaw(pos int, j *task.Job, effC rtime.Time, rem rtime.Duration) {
	idx := t.alloc(j, effC, rem)
	if t.root == nilNode {
		t.root = idx
		return
	}
	v := t.root
	for {
		if pos <= t.leftCnt(v) {
			if t.nodes[v].left == nilNode {
				t.nodes[v].left = idx
				break
			}
			v = t.nodes[v].left
		} else {
			pos -= t.leftCnt(v) + 1
			if t.nodes[v].right == nilNode {
				t.nodes[v].right = idx
				break
			}
			v = t.nodes[v].right
		}
	}
	t.nodes[idx].parent = v
	// Restore the priority min-heap, then refresh aggregates above the
	// landing spot.
	for p := t.nodes[idx].parent; p != nilNode && t.nodes[idx].prio < t.nodes[p].prio; p = t.nodes[idx].parent {
		t.rotateUp(idx)
	}
	for u := t.nodes[idx].parent; u != nilNode; u = t.nodes[u].parent {
		t.pull(u)
	}
}

// removeRaw deletes the entry at position pos and returns it. Uncharged,
// unjournaled.
func (t *feasTree) removeRaw(pos int) (j *task.Job, effC rtime.Time, rem rtime.Duration) {
	v := t.root
	for {
		lc := t.leftCnt(v)
		switch {
		case pos < lc:
			v = t.nodes[v].left
		case pos == lc:
			goto found
		default:
			pos -= lc + 1
			v = t.nodes[v].right
		}
	}
found:
	n := &t.nodes[v]
	j, effC, rem = n.job, n.effC, n.rem
	// Rotate v down to a leaf; aggregates stay valid throughout because
	// v is still a member until detached.
	for t.nodes[v].left != nilNode || t.nodes[v].right != nilNode {
		l, r := t.nodes[v].left, t.nodes[v].right
		var c int32
		switch {
		case l == nilNode:
			c = r
		case r == nilNode:
			c = l
		case t.nodes[l].prio < t.nodes[r].prio:
			c = l
		default:
			c = r
		}
		t.rotateUp(c)
	}
	p := t.nodes[v].parent
	if p == nilNode {
		t.root = nilNode
	} else if t.nodes[p].left == v {
		t.nodes[p].left = nilNode
	} else {
		t.nodes[p].right = nilNode
	}
	for u := p; u != nilNode; u = t.nodes[u].parent {
		t.pull(u)
	}
	t.freeNode(v)
	return j, effC, rem
}

// mark returns a rollback checkpoint.
func (t *feasTree) mark() int { return len(t.journal) }

// rollback undoes every mutation after checkpoint m, newest first.
// Uncharged, exactly as on the slice.
func (t *feasTree) rollback(m int) {
	for i := len(t.journal) - 1; i >= m; i-- {
		mu := t.journal[i]
		if mu.insert {
			t.removeRaw(mu.pos)
		} else {
			t.insertRaw(mu.pos, mu.job, mu.effC, mu.rem)
		}
	}
	t.journal = t.journal[:m]
}

// indexOf returns j's position, or -1. Charged as one ordered-list
// lookup; the rank is reconstructed from the parent chain.
func (t *feasTree) indexOf(j *task.Job) int {
	t.chargeLog()
	i := t.node(j)
	if i == nilNode {
		return -1
	}
	rank := t.leftCnt(i)
	for v := i; ; {
		p := t.nodes[v].parent
		if p == nilNode {
			return rank
		}
		if t.nodes[p].right == v {
			rank += t.leftCnt(p) + 1
		}
		v = p
	}
}

// ecfPos returns the insertion position for effective critical time c:
// after all entries with effC ≤ c. Key descent over the effC-sorted
// schedule, equal to sort.Search's answer on the slice.
func (t *feasTree) ecfPos(c rtime.Time) int {
	t.chargeLog()
	pos, _ := t.ecfSplit(c)
	return pos
}

// ecfSplit returns ecfPos(c) uncharged, with the total demand of the
// entries before that position.
func (t *feasTree) ecfSplit(c rtime.Time) (pos int, before rtime.Duration) {
	for v := t.root; v != nilNode; {
		n := &t.nodes[v]
		if n.effC <= c {
			pos++
			before += n.rem
			if l := n.left; l != nilNode {
				pos += int(t.nodes[l].cnt)
				before += t.nodes[l].sum
			}
			v = n.right
		} else {
			v = n.left
		}
	}
	return pos, before
}

func (t *feasTree) insertAt(pos int, j *task.Job, effC rtime.Time, rem rtime.Duration) {
	t.chargeLog()
	t.insertRaw(pos, j, effC, rem)
	//rtlint:ignore noalloc reused journal scratch; growth amortized
	t.journal = append(t.journal, feasMut{insert: true, pos: pos})
}

func (t *feasTree) removeAt(pos int) (j *task.Job, effC rtime.Time, rem rtime.Duration) {
	t.chargeLog()
	j, effC, rem = t.removeRaw(pos)
	//rtlint:ignore noalloc reused journal scratch; growth amortized
	t.journal = append(t.journal, feasMut{pos: pos, job: j, effC: effC, rem: rem})
	return j, effC, rem
}

// effCOf returns the effective critical time of a present job.
// Uncharged, like schedule.entryOf.
func (t *feasTree) effCOf(j *task.Job) rtime.Time {
	i := t.node(j)
	if i == nilNode {
		return 0
	}
	return t.nodes[i].effC
}

// feasible reports whether the schedule meets every effective critical
// time starting from now, charging one operation per entry the slice
// walk would have visited: all n when feasible, the first violator's
// index + 1 when not.
func (t *feasTree) feasible(now rtime.Time) bool {
	if i := t.firstViolation(0, int64(now)); i >= 0 {
		*t.ops += int64(i) + 1
		return false
	}
	*t.ops += int64(t.count())
	return true
}

// firstViolation returns the position of the first entry at or after
// position from that misses its effective critical time when the
// schedule starts at thr — whose slack effC − demand-prefix is below
// thr — or −1 when there is none.
func (t *feasTree) firstViolation(from int, thr int64) int {
	return t.violationIn(t.root, 0, 0, from, thr)
}

// violationIn is firstViolation within v's subtree, which starts at
// position lo after acc of demand. A subtree whose min slack clears thr
// is skipped whole, so the search follows one root-to-leaf path plus
// the boundary at from.
func (t *feasTree) violationIn(v int32, lo int, acc int64, from int, thr int64) int {
	for v != nilNode {
		n := &t.nodes[v]
		if lo+int(n.cnt) <= from || n.minSlack-acc >= thr {
			return -1
		}
		lcnt, lsum := 0, int64(0)
		if l := n.left; l != nilNode {
			lcnt, lsum = int(t.nodes[l].cnt), int64(t.nodes[l].sum)
			if lo+lcnt > from {
				if i := t.violationIn(l, lo, acc, from, thr); i >= 0 {
					return i
				}
			}
		}
		self := lo + lcnt
		through := acc + lsum + int64(n.rem)
		if self >= from && int64(n.effC)-through < thr {
			return self
		}
		v, lo, acc = n.right, self+1, through
	}
	return -1
}

// probe is insertChain([j]) followed by feasible(now) for a job j that is
// neither done, aborting nor in the tree, deciding from the subtree
// aggregates where the inserted j would first miss: an entry before
// its ECF position p (slack below now), j itself, or an entry from p on,
// which runs rem_j later (slack below now + rem_j). It charges exactly
// what that insertion and walk charge, and inserts j only when the
// schedule stays feasible, so a rejected job never touches the tree or
// the journal.
func (t *feasTree) probe(j *task.Job, now rtime.Time) bool {
	n := t.count()
	// insertChain([j]) charges a lookup, an ECF search and an insertion,
	// each on the n-entry schedule.
	*t.ops += 3 * logCharge(n)
	c, rem := t.snap.crit[j.SchedSlot], t.snap.rem[j.SchedSlot]
	p, before := t.ecfSplit(c)
	now64 := int64(now)
	if i := t.firstViolation(0, now64); i >= 0 && i < p {
		*t.ops += int64(i) + 1
		return false
	}
	if now.Add(before + rem).After(c) {
		*t.ops += int64(p) + 1
		return false
	}
	if i := t.firstViolation(p, now64+int64(rem)); i >= 0 {
		*t.ops += int64(i) + 2 // j sits before it
		return false
	}
	*t.ops += int64(n) + 1
	t.insertRaw(p, j, c, rem)
	return true
}

// insertChain is §3.4.1 on the tree — the same algorithm as
// schedule.insertChain, with critical times and rem read from the pass's
// snapshot.
func (t *feasTree) insertChain(chain []*task.Job) {
	var prev *task.Job   // successor in dependency order (inserted last iteration)
	var prevC rtime.Time // prev's effective critical time
	for i := len(chain) - 1; i >= 0; i-- {
		d := chain[i]
		if d.Done() || d.State == task.Aborting {
			continue
		}
		if di := t.indexOf(d); di >= 0 {
			// Already present (inserted as a dependent of an earlier,
			// higher-PUD job). Re-establish dependency order: d must also
			// precede prev (§3.4.1's removal-and-reinsertion case).
			if prev != nil {
				pi := t.indexOf(prev)
				if di > pi {
					job, _, rem := t.removeAt(di)
					t.insertAt(pi, job, prevC, rem)
				}
			}
			prev, prevC = d, t.effCOf(d)
			continue
		}
		effC := t.snap.crit[d.SchedSlot]
		pos := t.ecfPos(effC)
		if prev != nil {
			pi := t.indexOf(prev)
			if pos > pi {
				// ECF order inconsistent with dependency order (Case 2):
				// force d before prev and inherit prev's critical time.
				pos = pi
				effC = prevC
			}
		}
		t.insertAt(pos, d, effC, t.snap.rem[d.SchedSlot])
		prev, prevC = d, effC
	}
}

// first returns the schedule head (leftmost entry), or nil.
func (t *feasTree) first() *task.Job {
	v := t.root
	if v == nilNode {
		return nil
	}
	for t.nodes[v].left != nilNode {
		v = t.nodes[v].left
	}
	return t.nodes[v].job
}

// succ returns the in-order successor of v, or nilNode.
func (t *feasTree) succ(v int32) int32 {
	if r := t.nodes[v].right; r != nilNode {
		for t.nodes[r].left != nilNode {
			r = t.nodes[r].left
		}
		return r
	}
	for {
		p := t.nodes[v].parent
		if p == nilNode {
			return nilNode
		}
		if t.nodes[p].left == v {
			return p
		}
		v = p
	}
}

// appendFirstK appends the first k schedule entries (in order) to dst
// without allocating beyond dst's growth.
func (t *feasTree) appendFirstK(dst []*task.Job, k int) []*task.Job {
	if k <= 0 || t.root == nilNode {
		return dst
	}
	v := t.root
	for t.nodes[v].left != nilNode {
		v = t.nodes[v].left
	}
	for v != nilNode && len(dst) < k {
		//rtlint:ignore noalloc appends into the caller's reused buffer; growth amortized
		dst = append(dst, t.nodes[v].job)
		v = t.succ(v)
	}
	return dst
}
