// Package series folds a raw trace event stream into virtual-time
// series: per-window event rates (arrivals, completions, aborts,
// retries, blockings, commits, scheduler passes and their charged
// operations) and time-weighted level tracks (ready-queue depth, busy
// processors). Where internal/trace/span reconstructs each job's
// timeline, this package answers the orthogonal question — what did
// the *system* look like over time — which is what the report's
// load/backlog charts plot.
//
// A Stream is fed through the engines' existing Observer plumbing
// (sim.Config.Observer, which all three engines take) and folds each
// event as it arrives; internal/obs composes it with the other online
// folds. FromEvents runs the same fold over a recorded slice and is the
// reference the online fold is tested against. Equal traces yield
// byte-identical CSV renderings.
package series

import (
	"encoding/csv"
	"errors"
	"fmt"
	"io"
	"sort"
	"strconv"

	"repro/internal/rtime"
	"repro/internal/trace"
)

// ErrTrace reports a malformed or truncated event stream.
var ErrTrace = errors.New("series: malformed trace")

// ErrConfig reports an unusable configuration.
var ErrConfig = errors.New("series: invalid config")

// DefaultWindows is the window count WindowFor targets: enough columns
// for a figure-grade chart, few enough that every window holds events.
const DefaultWindows = 120

// WindowFor picks a window width that tiles horizon into about target
// windows (DefaultWindows when target ≤ 0), never below one tick.
func WindowFor(horizon rtime.Time, target int) rtime.Duration {
	if target <= 0 {
		target = DefaultWindows
	}
	w := rtime.Duration((int64(horizon) + int64(target) - 1) / int64(target))
	if w < 1 {
		w = 1
	}
	return w
}

// Config parameterizes the fold.
type Config struct {
	// Window is the bucket width in virtual time; required.
	Window rtime.Duration
	// CPUs is the processor count of the traced engine, used to report
	// utilization; clamped to ≥ 1.
	CPUs int
}

// Point is one window [Start, Start+Window) of the folded run.
type Point struct {
	Start rtime.Time

	// Event deltas inside the window.
	Arrivals    int64
	Completions int64
	Aborts      int64
	Retries     int64
	Blocks      int64
	Commits     int64
	Preempts    int64
	SchedPasses int64
	SchedOps    int64 // charged operations of the window's passes

	// Level integrals: Σ level·dt over the window, in tick·jobs and
	// tick·CPUs. Divide by the window's covered ticks for the mean.
	ReadyTicks int64
	BusyTicks  int64
	// Window maxima of the level tracks.
	ReadyMax int64
	BusyMax  int64

	// MaxAttempt is the largest attempt count (1 + CAS failures) of any
	// operation COMMITTED inside the window — the windowed view of the
	// per-object tails internal/metrics/ops digests. Zero in windows
	// where nothing committed.
	MaxAttempt int64
}

// Series is the folded run.
type Series struct {
	Window rtime.Duration
	End    rtime.Time // horizon, extended to the last event if later
	CPUs   int
	Points []Point
}

// Covered returns how many ticks of window i the run actually spans
// (the last window may be partial).
func (s *Series) Covered(i int) rtime.Duration {
	start := s.Points[i].Start
	end := start.Add(s.Window)
	if end > s.End {
		end = s.End
	}
	return end.Sub(start)
}

// Totals sums the event deltas and integrals across all windows; the
// Start, ReadyMax, and BusyMax fields hold 0/series-wide maxima.
func (s *Series) Totals() Point {
	var t Point
	for _, p := range s.Points {
		t.Arrivals += p.Arrivals
		t.Completions += p.Completions
		t.Aborts += p.Aborts
		t.Retries += p.Retries
		t.Blocks += p.Blocks
		t.Commits += p.Commits
		t.Preempts += p.Preempts
		t.SchedPasses += p.SchedPasses
		t.SchedOps += p.SchedOps
		t.ReadyTicks += p.ReadyTicks
		t.BusyTicks += p.BusyTicks
		if p.ReadyMax > t.ReadyMax {
			t.ReadyMax = p.ReadyMax
		}
		if p.BusyMax > t.BusyMax {
			t.BusyMax = p.BusyMax
		}
		if p.MaxAttempt > t.MaxAttempt {
			t.MaxAttempt = p.MaxAttempt
		}
	}
	return t
}

// jobKey identifies a job across the stream.
type jobKey struct{ task, seq int }

// jobPhase is the per-job state the level tracks derive from.
type jobPhase int

const (
	phaseReady jobPhase = iota
	phaseRun
	phaseBlocked
	phaseAborting
	phaseDone
)

// folder walks the sorted stream maintaining level counters and the
// per-window accumulators.
type folder struct {
	window rtime.Duration
	points []Point

	lastT rtime.Time
	idx   int // current window index

	ready int64 // jobs in phaseReady
	busy  int64 // jobs in phaseRun
}

// advance integrates the level tracks from lastT to t, splitting at
// window boundaries, and moves the window cursor so that an event at t
// lands in the window containing t.
func (f *folder) advance(t rtime.Time) {
	for f.lastT < t {
		p := &f.points[f.idx]
		wEnd := p.Start.Add(f.window)
		seg := t
		if wEnd < seg {
			seg = wEnd
		}
		dt := int64(seg.Sub(f.lastT))
		p.ReadyTicks += f.ready * dt
		p.BusyTicks += f.busy * dt
		f.lastT = seg
		if f.lastT == wEnd && f.idx+1 < len(f.points) {
			f.idx++
			// Entering a window: the carried-over levels seed its maxima.
			np := &f.points[f.idx]
			np.ReadyMax = f.ready
			np.BusyMax = f.busy
		}
	}
}

// level applies a ready/busy delta and refreshes the current window's
// maxima.
func (f *folder) level(dReady, dBusy int64) {
	f.ready += dReady
	f.busy += dBusy
	p := &f.points[f.idx]
	if f.ready > p.ReadyMax {
		p.ReadyMax = f.ready
	}
	if f.busy > p.BusyMax {
		p.BusyMax = f.busy
	}
}

// Stream folds a time-ordered trace event stream into a Series online,
// one event at a time, without buffering. It runs the exact fold
// FromEvents runs — fed the same events in the same order it produces a
// byte-identical Series — but its memory is O(windows + live jobs)
// regardless of trace length.
//
// The stream requires events nondecreasing in Event.At (the contract
// every engine's Observer documents) and within the horizon fixed at
// construction; a violation is recorded as an error and the stream goes
// inert — surfaced by Err and Finish, never silently absorbed.
type Stream struct {
	cfg Config
	end rtime.Time
	f   folder

	phase   map[jobKey]jobPhase
	attempt map[jobKey]int64 // CAS failures of the job's open access

	lastAt rtime.Time
	seen   bool
	err    error
}

// NewStream builds an online series folder covering [0, horizon). The
// horizon must be known up front (every engine's is) so window count —
// and the assignment of boundary-instant events to windows — matches
// FromEvents exactly.
func NewStream(cfg Config, horizon rtime.Time) (*Stream, error) {
	if cfg.Window <= 0 {
		return nil, fmt.Errorf("%w: Window must be positive, got %v", ErrConfig, cfg.Window)
	}
	if cfg.CPUs < 1 {
		cfg.CPUs = 1
	}
	end := horizon
	if end < 1 {
		end = 1
	}
	nWin := int((int64(end) + int64(cfg.Window) - 1) / int64(cfg.Window))
	if nWin < 1 {
		nWin = 1
	}
	s := &Stream{
		cfg:     cfg,
		end:     end,
		f:       folder{window: cfg.Window, points: make([]Point, nWin)},
		phase:   map[jobKey]jobPhase{},
		attempt: map[jobKey]int64{},
	}
	for i := range s.f.points {
		s.f.points[i].Start = rtime.Time(int64(cfg.Window) * int64(i))
	}
	return s, nil
}

// Err returns the first stream error (malformed trace, out-of-order or
// beyond-horizon input), if any.
func (s *Stream) Err() error { return s.err }

func (s *Stream) failf(format string, args ...any) {
	if s.err == nil {
		s.err = fmt.Errorf(format, args...)
	}
}

// Observe folds one event. After an error the stream is inert.
func (s *Stream) Observe(e trace.Event) {
	if s.err != nil {
		return
	}
	if s.seen && e.At < s.lastAt {
		s.failf("%w: event %v at %v after %v (stream not time-ordered)", ErrTrace, e.Kind, e.At, s.lastAt)
		return
	}
	if e.At > s.end {
		s.failf("%w: event %v at %v beyond horizon %v", ErrTrace, e.Kind, e.At, s.end)
		return
	}
	s.lastAt, s.seen = e.At, true
	f := &s.f
	f.advance(e.At)
	p := &f.points[f.idx]
	if e.Kind == trace.SchedPass {
		p.SchedPasses++
		p.SchedOps += e.Ops
		return
	}
	if e.Task < 0 || e.Kind == trace.FeasOK || e.Kind == trace.FeasFail {
		// Feasibility probes name a job but do not move it; their cost
		// is already inside the enclosing pass's Ops.
		return
	}
	k := jobKey{e.Task, e.Seq}
	ph, seen := s.phase[k]
	if e.Kind == trace.Arrival {
		if seen {
			s.failf("%w: duplicate arrival for J[%d,%d]", ErrTrace, e.Task, e.Seq)
			return
		}
		s.phase[k] = phaseReady
		p.Arrivals++
		f.level(+1, 0)
		return
	}
	if !seen {
		s.failf("%w: %v for J[%d,%d] before its arrival (recorder limit?)", ErrTrace, e.Kind, e.Task, e.Seq)
		return
	}
	if ph == phaseDone {
		s.failf("%w: %v for J[%d,%d] after its departure", ErrTrace, e.Kind, e.Task, e.Seq)
		return
	}
	leave := func() {
		switch ph {
		case phaseReady:
			f.level(-1, 0)
		case phaseRun:
			f.level(0, -1)
		}
	}
	switch e.Kind {
	case trace.Dispatch:
		leave()
		s.phase[k] = phaseRun
		f.level(0, +1)
	case trace.Preempt:
		// Only descheduled runners move; elsewhere it is a marker (the
		// uniprocessor engine also tags blocked jobs whose CPU moved on).
		p.Preempts++
		if ph == phaseRun {
			f.level(0, -1)
			s.phase[k] = phaseReady
			f.level(+1, 0)
		}
	case trace.Block:
		leave()
		s.phase[k] = phaseBlocked
		p.Blocks++
	case trace.Retry:
		p.Retries++
		s.attempt[k]++
	case trace.FaultRetry:
		// A phantom-writer retry is still a retry of the job.
		p.Retries++
		s.attempt[k]++
	case trace.Commit:
		p.Commits++
		if a := s.attempt[k] + 1; a > p.MaxAttempt {
			p.MaxAttempt = a
		}
		delete(s.attempt, k)
	case trace.LockAcquire, trace.LockRelease, trace.FaultArrival, trace.FaultOverrun, trace.Shed:
		// Markers only. (FaultStall carries Task=-1 and is skipped with
		// the other scheduler-level events above.)
	case trace.Complete:
		leave()
		s.phase[k] = phaseDone
		p.Completions++
		delete(s.phase, k) // retired; phaseDone is only ever observed transiently
	case trace.AbortBegin:
		leave()
		s.phase[k] = phaseAborting
	case trace.AbortDone:
		leave()
		s.phase[k] = phaseDone
		p.Aborts++
		delete(s.attempt, k) // the open access died with the job
		delete(s.phase, k)
	default:
		s.failf("%w: unknown event kind %v", ErrTrace, e.Kind)
	}
}

// Finish integrates the level tracks out to the horizon and returns the
// folded Series, or the first stream error.
func (s *Stream) Finish() (*Series, error) {
	if s.err != nil {
		return nil, s.err
	}
	s.f.advance(s.end)
	return &Series{Window: s.cfg.Window, End: s.end, CPUs: s.cfg.CPUs, Points: s.f.points}, nil
}

// FromEvents folds events into a Series. horizon seals the run's end;
// when events extend past it, the end is clamped up to the last event.
// The stream must contain every job's Arrival (use an unbounded
// recorder); scheduler-level events contribute to the pass/ops tracks
// without moving any job.
func FromEvents(events []trace.Event, horizon rtime.Time, cfg Config) (*Series, error) {
	evs := make([]trace.Event, len(events))
	copy(evs, events)
	sort.SliceStable(evs, func(i, j int) bool { return evs[i].At < evs[j].At })

	end := horizon
	if n := len(evs); n > 0 && evs[n-1].At > end {
		end = evs[n-1].At
	}
	s, err := NewStream(cfg, end)
	if err != nil {
		return nil, err
	}
	for _, e := range evs {
		s.Observe(e)
	}
	return s.Finish()
}

// csvHeader is the fixed column set of WriteCSV.
var csvHeader = []string{
	"start_us", "arrivals", "completions", "aborts", "retries", "blocks",
	"commits", "preempts", "sched_passes", "sched_ops",
	"ready_mean", "ready_max", "busy_mean", "busy_max", "max_attempt",
}

// WriteCSV renders the series deterministically, one row per window.
// Mean levels are formatted with four decimals — the only floating
// point in the package, computed at render time from exact integer
// integrals.
func (s *Series) WriteCSV(w io.Writer) error {
	cw := csv.NewWriter(w)
	if err := cw.Write(csvHeader); err != nil {
		return err
	}
	for i, p := range s.Points {
		dt := int64(s.Covered(i))
		meanOf := func(ticks int64) string {
			if dt <= 0 {
				return "0.0000"
			}
			return strconv.FormatFloat(float64(ticks)/float64(dt), 'f', 4, 64)
		}
		row := []string{
			strconv.FormatInt(int64(p.Start), 10),
			strconv.FormatInt(p.Arrivals, 10),
			strconv.FormatInt(p.Completions, 10),
			strconv.FormatInt(p.Aborts, 10),
			strconv.FormatInt(p.Retries, 10),
			strconv.FormatInt(p.Blocks, 10),
			strconv.FormatInt(p.Commits, 10),
			strconv.FormatInt(p.Preempts, 10),
			strconv.FormatInt(p.SchedPasses, 10),
			strconv.FormatInt(p.SchedOps, 10),
			meanOf(p.ReadyTicks),
			strconv.FormatInt(p.ReadyMax, 10),
			meanOf(p.BusyTicks),
			strconv.FormatInt(p.BusyMax, 10),
			strconv.FormatInt(p.MaxAttempt, 10),
		}
		if err := cw.Write(row); err != nil {
			return err
		}
	}
	cw.Flush()
	return cw.Error()
}
