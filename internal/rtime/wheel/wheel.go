// Package wheel provides the simulation kernel's timed-event queue: a
// hierarchical timing wheel over absolute virtual time with O(1)
// amortized push and pop. The kernel keeps only events that need a
// priority queue here — critical times and abort-handler completions —
// and feeds arrivals, processor boundaries and dispatch rounds from
// cursors and slots of its own (internal/sim).
//
// # Ordering contract
//
// Pop returns events in ascending (at, push order): the order of the
// binary min-heap the wheel replaced. Two events scheduled for the same
// tick pop in the order they were pushed, and an event pushed for a
// time earlier than the wheel's current time pops before every event
// at or after it, ordered among its fellow stragglers by (at, push
// order). Peek reports the event Pop would return next without removing
// it. The differential test against Ref (the retained reference heap)
// pins both.
//
// # Layout
//
// Time is a non-negative int64 tick count (rtime.Time). The wheel is a
// 64-ary trie over the bits of absolute time: level l spans bits
// [6l, 6l+6), so 11 levels cover all 63 value bits. An event whose time
// first differs from the current time cur at bit b lives at level b/6,
// in slot (at >> 6l) & 63. Each of the 11×64 slots is an append-order
// FIFO of arena nodes; a per-level uint64 bitmap marks occupied slots.
// Every event at level l precedes every event at level l+1, so the pop
// path scans at most 11 bitmaps, takes the lowest occupied slot of the
// lowest occupied level, and either pops the slot head (level 0, where a
// slot holds exactly one tick) or cascades the slot's chain one level
// down after advancing cur to the slot's base time. Each event cascades
// at most 10 times over its lifetime: O(1) amortized. Peek cascades the
// same way but stops at a slot whose base lies past its limit, so a
// bounded peek never moves cur beyond the limit.
//
// Nodes are carved from a free-listed arena, so a wheel in steady state
// allocates nothing per event.
package wheel

import (
	"math/bits"

	"repro/internal/rtime"
)

const (
	slotBits  = 6
	slotCount = 1 << slotBits
	slotMask  = slotCount - 1
	levels    = 11 // 6×11 = 66 ≥ 63 value bits of an int64 time

	nilIdx = int32(-1)
)

type node[T any] struct {
	at   rtime.Time
	next int32
	val  T
}

// Wheel is a hierarchical timing wheel holding values of type T keyed by
// absolute virtual time. The zero value is not ready to use; call New.
type Wheel[T any] struct {
	cur  rtime.Time // last pop's time or cascaded slot base; slots hold times ≥ cur
	live int

	nodes []node[T]
	free  int32

	occupied [levels]uint64
	head     [levels][slotCount]int32
	tail     [levels][slotCount]int32

	// due holds stragglers pushed with at < cur, kept sorted by
	// (at, push order) and drained before any wheel slot. The kernel
	// leaves it empty: it bounds each Peek by its next event's time and
	// pushes only at or after the time of the event it took.
	due     []int32
	dueHead int
}

// New returns an empty wheel with arena capacity for about hint events.
func New[T any](hint int) *Wheel[T] {
	w := &Wheel[T]{free: nilIdx}
	if hint > 0 {
		w.nodes = make([]node[T], 0, hint)
	}
	for l := 0; l < levels; l++ {
		for s := 0; s < slotCount; s++ {
			w.head[l][s] = nilIdx
			w.tail[l][s] = nilIdx
		}
	}
	return w
}

// Len reports the number of queued (pushed, not yet popped) events.
func (w *Wheel[T]) Len() int { return w.live }

// Push schedules v at time at (at ≥ 0).
//
//rtlint:noalloc steady state reuses freed arena nodes
func (w *Wheel[T]) Push(at rtime.Time, v T) {
	idx := w.alloc(at, v)
	if at < w.cur {
		w.pushDue(idx, at)
	} else {
		w.place(idx, at)
	}
	w.live++
}

// Peek returns the earliest event in (at, push order) without removing
// it, provided its time is at most limit; ok is false when the wheel
// holds no such event. Pass rtime.Infinity for an unbounded peek.
//
//rtlint:noalloc cascades re-place in-place arena nodes
func (w *Wheel[T]) Peek(limit rtime.Time) (at rtime.Time, v T, ok bool) {
	idx, found := w.front(limit)
	if !found {
		var zero T
		return 0, zero, false
	}
	n := &w.nodes[idx]
	return n.at, n.val, true
}

// Pop removes and returns the earliest event in (at, push order). ok is
// false when the wheel is empty.
//
//rtlint:noalloc cascades re-place in-place arena nodes
func (w *Wheel[T]) Pop() (at rtime.Time, v T, ok bool) {
	idx, found := w.front(rtime.Infinity)
	if !found {
		var zero T
		return 0, zero, false
	}
	if w.dueHead < len(w.due) {
		w.dueHead++
		if w.dueHead == len(w.due) {
			w.due = w.due[:0]
			w.dueHead = 0
		}
	} else {
		// front left the event heading the lowest level-0 slot, which
		// holds exactly one absolute tick in push order.
		s := uint(bits.TrailingZeros64(w.occupied[0]))
		nxt := w.nodes[idx].next
		w.head[0][s] = nxt
		if nxt == nilIdx {
			w.tail[0][s] = nilIdx
			w.occupied[0] &^= 1 << s
		}
		w.cur = w.nodes[idx].at
	}
	n := &w.nodes[idx]
	at, v = n.at, n.val
	w.freeNode(idx)
	w.live--
	return at, v, true
}

func (w *Wheel[T]) alloc(at rtime.Time, v T) int32 {
	var idx int32
	if w.free != nilIdx {
		idx = w.free
		w.free = w.nodes[idx].next
	} else {
		//rtlint:ignore noalloc arena growth is amortized; steady state pops feed the free list
		w.nodes = append(w.nodes, node[T]{})
		idx = int32(len(w.nodes) - 1)
	}
	n := &w.nodes[idx]
	n.at, n.val, n.next = at, v, nilIdx
	return idx
}

func (w *Wheel[T]) freeNode(idx int32) {
	var zero T
	n := &w.nodes[idx]
	n.val = zero // drop payload pointers for GC
	n.next = w.free
	w.free = idx
}

// locate maps a time (at ≥ cur) to its level and slot relative to cur.
func (w *Wheel[T]) locate(at rtime.Time) (int, uint) {
	diff := uint64(at) ^ uint64(w.cur)
	if diff == 0 {
		return 0, uint(uint64(at) & slotMask)
	}
	l := (63 - bits.LeadingZeros64(diff)) / slotBits
	return l, uint((uint64(at) >> (l * slotBits)) & slotMask)
}

// place appends the node to its slot's FIFO.
func (w *Wheel[T]) place(idx int32, at rtime.Time) {
	l, s := w.locate(at)
	w.nodes[idx].next = nilIdx
	if t := w.tail[l][s]; t == nilIdx {
		w.head[l][s] = idx
	} else {
		w.nodes[t].next = idx
	}
	w.tail[l][s] = idx
	w.occupied[l] |= 1 << s
}

// pushDue inserts a straggler keeping due sorted by at, stable for equal
// times (insertion from the tail: engine stragglers arrive in
// near-monotone time order, so the shift is O(1) in practice).
func (w *Wheel[T]) pushDue(idx int32, at rtime.Time) {
	if w.dueHead > 0 && w.dueHead == len(w.due) {
		w.due = w.due[:0]
		w.dueHead = 0
	}
	//rtlint:ignore noalloc due's backing array is reused after each drain; growth is amortized
	w.due = append(w.due, idx)
	i := len(w.due) - 1
	for i > w.dueHead && w.nodes[w.due[i-1]].at > at {
		w.due[i] = w.due[i-1]
		i--
	}
	w.due[i] = idx
}

// front returns the node index of the earliest event if its time is at
// most limit: stragglers first (all earlier than cur), then the wheel
// minimum, cascaded down to head a level-0 slot. It cascades no slot
// whose base time lies past limit, so cur never passes limit.
func (w *Wheel[T]) front(limit rtime.Time) (int32, bool) {
	if w.dueHead < len(w.due) {
		idx := w.due[w.dueHead]
		return idx, w.nodes[idx].at <= limit
	}
	for {
		l := -1
		for i := 0; i < levels; i++ {
			if w.occupied[i] != 0 {
				l = i
				break
			}
		}
		if l < 0 {
			return nilIdx, false
		}
		s := uint(bits.TrailingZeros64(w.occupied[l]))
		if l == 0 {
			idx := w.head[0][s]
			return idx, w.nodes[idx].at <= limit
		}
		// Cascade: advance cur to the slot's base time (its events share
		// all bits ≥ 6l with that base) and re-place the chain in order.
		// Lower levels are empty here, so re-placed events cannot
		// interleave with older ones, and chain order is preserved within
		// every target slot — the tie-break contract survives cascading.
		shift := uint(l+1) * slotBits
		base := rtime.Time(uint64(w.cur)&^(1<<shift-1) | uint64(s)<<(uint(l)*slotBits))
		if base > limit {
			return nilIdx, false
		}
		idx := w.head[l][s]
		w.head[l][s] = nilIdx
		w.tail[l][s] = nilIdx
		w.occupied[l] &^= 1 << s
		w.cur = base
		for idx != nilIdx {
			nxt := w.nodes[idx].next
			w.place(idx, w.nodes[idx].at)
			idx = nxt
		}
	}
}
