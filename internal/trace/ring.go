package trace

// Ring keeps events oldest-first. Bounded (NewRing with a positive
// limit), it is a fixed ring of at most limit events: once full, each
// push overwrites the oldest, and Dropped counts exactly how many were
// overwritten, so memory stops at the limit however long the run.
// Unbounded (limit 0), it appends every event. A bounded Recorder and
// obs.Flight both keep one.
type Ring struct {
	buf   []Event
	limit int   // 0 = unbounded
	next  int   // once full, the index of the oldest event
	n     int64 // events ever pushed
}

// ringPrealloc is the most events NewRing allocates up front. A
// bounded ring holds its whole limit from the start up to this size;
// past it, storage doubles as events arrive, so a huge limit from a
// flag or a served spec costs memory only for the events a run emits.
const ringPrealloc = 1 << 16

// NewRing returns a ring keeping at most limit events (0 or less means
// unbounded).
func NewRing(limit int) *Ring {
	r := &Ring{limit: max(limit, 0)}
	if r.limit > 0 {
		r.buf = make([]Event, 0, min(r.limit, ringPrealloc))
	}
	return r
}

// Push records one event, overwriting the oldest once a bounded ring
// is full.
func (r *Ring) Push(e Event) {
	r.n++
	switch {
	case r.limit == 0:
		r.buf = append(r.buf, e)
	case len(r.buf) < r.limit:
		if len(r.buf) == cap(r.buf) {
			// Past ringPrealloc: grow by doubling, never past the limit.
			r.buf = append(make([]Event, 0, min(2*cap(r.buf), r.limit)), r.buf...)
		}
		r.buf = append(r.buf, e)
	default:
		r.buf[r.next] = e
		if r.next++; r.next == r.limit {
			r.next = 0
		}
	}
}

// Len returns the number of retained events.
func (r *Ring) Len() int { return len(r.buf) }

// Cap returns the limit, 0 when unbounded.
func (r *Ring) Cap() int { return r.limit }

// Total returns how many events were ever pushed.
func (r *Ring) Total() int64 { return r.n }

// Dropped returns exactly how many events were overwritten.
func (r *Ring) Dropped() int64 { return r.n - int64(len(r.buf)) }

// Events returns the retained events oldest-first. It rotates the ring
// in place rather than copying it, so the slice aliases the ring's
// storage and the next Push may overwrite its first element.
func (r *Ring) Events() []Event {
	if r.next != 0 {
		reverse(r.buf[:r.next])
		reverse(r.buf[r.next:])
		reverse(r.buf)
		r.next = 0
	}
	return r.buf
}

func reverse(s []Event) {
	for i, j := 0, len(s)-1; i < j; i, j = i+1, j-1 {
		s[i], s[j] = s[j], s[i]
	}
}
