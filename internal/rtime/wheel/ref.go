package wheel

import "repro/internal/rtime"

// Ref is the retained reference implementation of the event queue: the
// hand-rolled binary min-heap of (at, push order) the engines used
// before the timing wheel, kept so the differential property tests can
// pin the wheel's pop order against it (and the kernel's merged event
// source against a single queue), and so the scale benchmarks can
// measure the before/after.
type Ref[T any] struct {
	items []refItem[T]
	seq   int64
}

type refItem[T any] struct {
	at  rtime.Time
	seq int64
	val T
}

// NewRef returns an empty reference heap with capacity for about hint
// events.
func NewRef[T any](hint int) *Ref[T] {
	r := &Ref[T]{}
	if hint > 0 {
		r.items = make([]refItem[T], 0, hint)
	}
	return r
}

// Len reports the number of queued events.
func (r *Ref[T]) Len() int { return len(r.items) }

// Push schedules v at time at.
func (r *Ref[T]) Push(at rtime.Time, v T) {
	r.seq++
	r.push(refItem[T]{at: at, seq: r.seq, val: v})
}

// Peek returns the earliest event in (at, push order) without removing
// it, provided its time is at most limit.
func (r *Ref[T]) Peek(limit rtime.Time) (at rtime.Time, v T, ok bool) {
	if len(r.items) == 0 || r.items[0].at > limit {
		var zero T
		return 0, zero, false
	}
	return r.items[0].at, r.items[0].val, true
}

// Pop removes and returns the earliest event in (at, push order). ok is
// false when the heap is empty.
func (r *Ref[T]) Pop() (at rtime.Time, v T, ok bool) {
	if len(r.items) == 0 {
		var zero T
		return 0, zero, false
	}
	it := r.pop()
	return it.at, it.val, true
}

func (r *Ref[T]) less(i, j int) bool {
	if r.items[i].at != r.items[j].at {
		return r.items[i].at < r.items[j].at
	}
	return r.items[i].seq < r.items[j].seq
}

func (r *Ref[T]) push(it refItem[T]) {
	r.items = append(r.items, it)
	i := len(r.items) - 1
	for i > 0 {
		parent := (i - 1) / 2
		if !r.less(i, parent) {
			break
		}
		r.items[i], r.items[parent] = r.items[parent], r.items[i]
		i = parent
	}
}

func (r *Ref[T]) pop() refItem[T] {
	s := r.items
	top := s[0]
	n := len(s) - 1
	s[0] = s[n]
	s[n] = refItem[T]{} // clear payload pointers for GC
	r.items = s[:n]
	s = s[:n]
	i := 0
	for {
		l := 2*i + 1
		if l >= n {
			break
		}
		c := l
		if rt := l + 1; rt < n && r.less(rt, l) {
			c = rt
		}
		if !r.less(c, i) {
			break
		}
		s[i], s[c] = s[c], s[i]
		i = c
	}
	return top
}
