package obs

import (
	"io"

	"repro/internal/trace"
)

// Flight is a bounded flight recorder: a fixed-capacity ring buffer
// (trace.Ring) retaining the last N observed events, overwriting the
// oldest, with an exact count of everything overwritten. It is the
// always-on, bounded complement to an unbounded trace.Recorder — cheap
// enough to leave attached to a 10⁵-task run, yet holding exactly the
// post-mortem context wanted when something goes wrong (the Pipeline
// dumps it on the first bound violation, shed, or fault-induced abort).
type Flight struct {
	ring *trace.Ring
}

// NewFlight returns a recorder retaining the last capacity events;
// capacity is clamped to ≥ 1.
func NewFlight(capacity int) *Flight {
	return &Flight{ring: trace.NewRing(max(capacity, 1))}
}

// Observe records one event, overwriting the oldest once full.
func (f *Flight) Observe(e trace.Event) { f.ring.Push(e) }

// Len returns the number of retained events (≤ Cap).
func (f *Flight) Len() int { return f.ring.Len() }

// Cap returns the ring capacity.
func (f *Flight) Cap() int { return f.ring.Cap() }

// Total returns how many events were ever observed.
func (f *Flight) Total() int64 { return f.ring.Total() }

// Dropped returns exactly how many events were overwritten.
func (f *Flight) Dropped() int64 { return f.ring.Dropped() }

// Events returns the retained events oldest-first (a fresh slice; the
// ring keeps recording).
func (f *Flight) Events() []trace.Event {
	return append(make([]trace.Event, 0, f.Len()), f.ring.Events()...)
}

// AppendPerfetto appends the retained window as a Perfetto-format
// post-mortem to dst. Spans whose arrivals were overwritten render as
// partial timelines — the point of a flight recorder is the final
// window, not the full history.
func (f *Flight) AppendPerfetto(dst []byte) []byte {
	return trace.AppendPerfetto(dst, f.ring.Events())
}

// WritePerfetto writes the post-mortem AppendPerfetto renders to w.
func (f *Flight) WritePerfetto(w io.Writer) error {
	_, err := w.Write(f.AppendPerfetto(nil))
	return err
}
