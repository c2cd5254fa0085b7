package obs

import (
	"errors"
	"fmt"
	"io"

	"repro/internal/metrics/ops"
	"repro/internal/metrics/series"
	"repro/internal/rtime"
	"repro/internal/task"
	"repro/internal/trace"
	"repro/internal/trace/check"
	"repro/internal/trace/span"
)

// ErrConfig reports an unusable pipeline configuration.
var ErrConfig = errors.New("obs: invalid config")

// Config assembles a Pipeline. Horizon is required (every engine knows
// its own); everything else is opt-in.
type Config struct {
	// Horizon is the run's virtual-time end: it fixes the series window
	// count up front and seals unfinished spans at Finish.
	Horizon rtime.Time
	// CPUs is the traced engine's processor count (≥ 1; used by the
	// series fold's utilization reporting).
	CPUs int

	// SeriesWindow, when positive, enables the online series fold with
	// this bucket width (series.WindowFor picks a good one).
	SeriesWindow rtime.Duration

	// CheckTasks and Check, both set, enable online bound checking:
	// every retired span is checked against the paper's Theorem 2/3
	// bounds the moment the job departs.
	CheckTasks []*task.Task
	Check      *check.Config

	// OnSpan, when non-nil, receives every retired span (departure
	// order, then still-live jobs in arrival order at Finish). The
	// *JobSpan is valid only during the call — storage is recycled.
	OnSpan func(*span.JobSpan)

	// Flight, when positive, attaches a flight recorder retaining the
	// last Flight events (see Flight type).
	Flight int

	// OnTrigger, when non-nil, fires ONCE at the first anomaly — an
	// unexpected bound violation, a shed job, or a fault-induced abort —
	// with a short reason and the virtual time. The flight recorder (if
	// any) still holds the window ending at the anomaly: dump it here.
	OnTrigger func(reason string, at rtime.Time)

	// Progress and ProgressEvery, both set, emit one deterministic text
	// line to Progress every ProgressEvery ticks of virtual time. The
	// lines are a pure function of the event stream (no wall-clock), so
	// equal runs produce equal progress output.
	Progress      io.Writer
	ProgressEvery rtime.Duration

	// OnProgress, when non-nil (with ProgressEvery set), receives the
	// pipeline's Snapshot at every progress mark — the same pacing, and
	// the same state, as the Progress text lines. It is called from the
	// engine's goroutine; a consumer that republishes snapshots to other
	// goroutines (a serving daemon) must do its own synchronization.
	OnProgress func(mark rtime.Time, s Snapshot)
}

// Snapshot is a point-in-time view of a running pipeline — the pollable
// introspection surface a serving daemon (ROADMAP item 4) would expose.
type Snapshot struct {
	Now    rtime.Time // virtual time of the last observed event
	Events int64

	Commits int64
	Retries int64
	Sheds   int64

	// AttemptP99 is the 99th-percentile attempts-per-committed-operation
	// so far (1 + CAS failures; lock-based commits count one attempt).
	AttemptP99 int64

	LiveJobs int // arrived, not yet departed

	Violations int // bound violations so far (when checking)
	Unexpected int // ... not explained by declared fault injection

	FlightLen     int
	FlightCap     int
	FlightDropped int64

	Trigger string // first anomaly's reason, "" if none yet
}

// Results is the pipeline's final fold, Finish's return.
type Results struct {
	Events  int64
	Commits int64
	Retries int64
	Sheds   int64

	Series *series.Series // nil unless SeriesWindow was set
	Ops    *ops.Set
	Check  *check.Report // nil unless bound checking was configured

	Trigger   string // first anomaly, "" if none
	TriggerAt rtime.Time
}

// Pipeline is the composed online fold. Attach it to an engine with
// Observer() (or Tee it with other sinks), run, then Finish.
type Pipeline struct {
	cfg Config

	spans  *span.Stream
	checks *check.Stream
	ser    *series.Stream
	ops    *ops.Stream
	flight *Flight

	events  int64
	commits int64
	retries int64
	sheds   int64

	violations int
	unexpected int

	lastAt rtime.Time

	nextMark rtime.Time

	trigger   string
	triggerAt rtime.Time

	werr error // first Progress write error
}

// NewPipeline validates cfg and assembles the pipeline.
func NewPipeline(cfg Config) (*Pipeline, error) {
	if cfg.Horizon <= 0 {
		return nil, fmt.Errorf("%w: horizon %v must be positive", ErrConfig, cfg.Horizon)
	}
	if cfg.CPUs < 1 {
		cfg.CPUs = 1
	}
	p := &Pipeline{cfg: cfg, ops: ops.NewStream()}
	p.spans = span.NewStream(p.retired)
	if cfg.CheckTasks != nil && cfg.Check != nil {
		cs, err := check.NewStream(cfg.CheckTasks, *cfg.Check)
		if err != nil {
			return nil, err
		}
		p.checks = cs
	}
	if cfg.SeriesWindow > 0 {
		ss, err := series.NewStream(series.Config{Window: cfg.SeriesWindow, CPUs: cfg.CPUs}, cfg.Horizon)
		if err != nil {
			return nil, err
		}
		p.ser = ss
	}
	if cfg.Flight > 0 {
		p.flight = NewFlight(cfg.Flight)
	}
	if (cfg.Progress != nil || cfg.OnProgress != nil) && cfg.ProgressEvery > 0 {
		p.nextMark = rtime.Time(0).Add(cfg.ProgressEvery)
	}
	return p, nil
}

// Flight returns the attached flight recorder, nil when none.
func (p *Pipeline) Flight() *Flight { return p.flight }

// retired folds one departed (or Finish-sealed) span into the
// downstream consumers and checks it for anomaly triggers.
func (p *Pipeline) retired(s *span.JobSpan) {
	if p.checks != nil {
		for _, v := range p.checks.Observe(s) {
			p.violations++
			if !v.Expected {
				p.unexpected++
				p.fire("bound-violation", p.lastAt)
			}
		}
	}
	if s.Outcome == span.Aborted && (s.Injected || s.InjectedRetries > 0) {
		p.fire("fault-abort", p.lastAt)
	}
	if p.cfg.OnSpan != nil {
		p.cfg.OnSpan(s)
	}
}

// fire records the first anomaly and invokes OnTrigger once.
func (p *Pipeline) fire(reason string, at rtime.Time) {
	if p.trigger != "" {
		return
	}
	p.trigger, p.triggerAt = reason, at
	if p.cfg.OnTrigger != nil {
		p.cfg.OnTrigger(reason, at)
	}
}

// Observe folds one event through every attached sink. Events must be
// nondecreasing in At (every engine's Observer contract); violations
// surface as errors from Finish.
func (p *Pipeline) Observe(e trace.Event) {
	// Progress marks the event crosses are emitted before folding it:
	// each line reports the fold state strictly before its mark.
	for p.nextMark > 0 && e.At >= p.nextMark && p.nextMark <= p.cfg.Horizon {
		p.progressLine(p.nextMark)
		p.nextMark = p.nextMark.Add(p.cfg.ProgressEvery)
	}
	// The flight ring records before the folds so that when an anomaly
	// fires mid-event, the dump already contains the event that tripped
	// it.
	if p.flight != nil {
		p.flight.Observe(e)
	}
	p.events++
	p.lastAt = e.At
	switch e.Kind {
	case trace.Commit:
		p.commits++
	case trace.Retry, trace.FaultRetry:
		p.retries++
	case trace.Shed:
		p.sheds++
		p.fire("shed", e.At)
	}
	p.ops.Observe(e)
	if p.ser != nil {
		p.ser.Observe(e)
	}
	p.spans.Observe(e)
}

// Observer returns Observe bound as an engine callback.
func (p *Pipeline) Observer() func(trace.Event) { return p.Observe }

// Snapshot returns the current fold state. Cheap enough to poll.
func (p *Pipeline) Snapshot() Snapshot {
	s := Snapshot{
		Now:        p.lastAt,
		Events:     p.events,
		Commits:    p.commits,
		Retries:    p.retries,
		Sheds:      p.sheds,
		AttemptP99: p.ops.Total().Attempts.Quantile(0.99),
		LiveJobs:   p.spans.Live(),
		Violations: p.violations,
		Unexpected: p.unexpected,
		Trigger:    p.trigger,
	}
	if p.flight != nil {
		s.FlightLen = p.flight.Len()
		s.FlightCap = p.flight.Cap()
		s.FlightDropped = p.flight.Dropped()
	}
	return s
}

// progressLine renders one deterministic status line at virtual time
// mark.
func (p *Pipeline) progressLine(mark rtime.Time) {
	if p.werr != nil {
		return
	}
	s := p.Snapshot()
	if p.cfg.OnProgress != nil {
		p.cfg.OnProgress(mark, s)
	}
	if p.cfg.Progress == nil {
		return
	}
	line := fmt.Sprintf("progress t=%dus events=%d commits=%d retries=%d sheds=%d p99attempt=%d live=%d",
		mark.Micros(), s.Events, s.Commits, s.Retries, s.Sheds, s.AttemptP99, s.LiveJobs)
	if p.checks != nil {
		line += fmt.Sprintf(" violations=%d", s.Violations)
	}
	if p.flight != nil {
		line += fmt.Sprintf(" flight=%d/%d dropped=%d", s.FlightLen, s.FlightCap, s.FlightDropped)
	}
	_, p.werr = io.WriteString(p.cfg.Progress, line+"\n")
}

// Finish emits any remaining progress marks, seals still-live spans at
// the horizon (delivering them to the bound checker and OnSpan), and
// returns the folded results. The first error from any sink — an
// out-of-order or malformed stream, a check evaluation problem, a
// progress write failure — is returned instead.
func (p *Pipeline) Finish() (*Results, error) {
	for p.nextMark > 0 && p.nextMark <= p.cfg.Horizon {
		p.progressLine(p.nextMark)
		p.nextMark = p.nextMark.Add(p.cfg.ProgressEvery)
	}
	if _, err := p.spans.Finish(p.cfg.Horizon); err != nil {
		return nil, err
	}
	r := &Results{
		Events:    p.events,
		Commits:   p.commits,
		Retries:   p.retries,
		Sheds:     p.sheds,
		Ops:       p.ops.Set(),
		Trigger:   p.trigger,
		TriggerAt: p.triggerAt,
	}
	if p.checks != nil {
		rep, err := p.checks.Report()
		if err != nil {
			return nil, err
		}
		r.Check = rep
	}
	if p.ser != nil {
		ser, err := p.ser.Finish()
		if err != nil {
			return nil, err
		}
		r.Series = ser
	}
	if p.werr != nil {
		return nil, fmt.Errorf("obs: progress write: %w", p.werr)
	}
	return r, nil
}
