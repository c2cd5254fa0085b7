// Package obs is the streaming observability pipeline: it sits behind
// the engines' existing Observer hook (sim.Config.Observer, which all
// three engines take) and folds trace events ONLINE — per-job spans,
// bound checks, windowed series, per-object retry telemetry. It is the
// only way production code folds an engine's event stream: nothing
// records the full event slice to fold it afterwards, so memory stays
// O(windows + live jobs + flight ring) at the 10⁴–10⁵-task scales the
// engines reach.
//
// Every engine guarantees its observer stream is nondecreasing in
// Event.At (the partitioned engine steps its partitions in lockstep to
// keep this true for the merged stream), which is what lets the online
// folds match the recorded-slice folds (span.Build, series.FromEvents,
// ops.FromEvents, check.Check) byte-for-byte: those stable-sort by At
// before folding, and a stable sort of an already-ordered stream is
// the identity. They are kept as the test oracles obs_test.go compares
// the pipeline against.
//
// Three pieces:
//
//   - Sink / Tee: the composition vocabulary. A Sink consumes events;
//     Tee fans one stream out to several sinks in fixed order, so a
//     trace recorder and a pipeline can watch the same run.
//   - Flight (flight.go): a bounded ring-buffer flight recorder keeping
//     the last N events with an exact drop counter, dumped as a
//     Perfetto post-mortem on the first anomaly.
//   - Pipeline (pipeline.go): the composed online fold with periodic
//     progress reporting and a pollable Snapshot.
package obs

import "repro/internal/trace"

// Sink consumes a time-ordered trace event stream. Implementations are
// single-goroutine, like the engines that feed them.
type Sink interface {
	Observe(trace.Event)
}

// Func adapts a plain observer callback to the Sink interface.
type Func func(trace.Event)

// Observe calls f.
func (f Func) Observe(e trace.Event) { f(e) }

// Tee fans an event stream out to sinks in argument order — the order
// is fixed, so composed observers stay deterministic. Nil sinks are
// skipped. The returned callback plugs directly into an engine's
// Observer field.
func Tee(sinks ...Sink) func(trace.Event) {
	// Compact away nils once, up front, keeping the hot path branch-free.
	live := make([]Sink, 0, len(sinks))
	for _, s := range sinks {
		if s != nil {
			live = append(live, s)
		}
	}
	return func(e trace.Event) {
		for _, s := range live {
			s.Observe(e)
		}
	}
}
