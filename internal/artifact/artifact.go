// Package artifact renders the canonical-workload observability
// artifacts — trace files, flight dumps, CSV+HTML reports, and the
// metrics digest — entirely in memory. It is the single code path both
// the rtsim CLI (which writes the bytes to disk) and the rtsimd serving
// daemon (which serves them over HTTP) execute, so a spec served by the
// daemon is byte-identical to the same spec run in batch *by
// construction*: there is exactly one builder to diverge from, and the
// conformance suite (internal/serve, CI serve-smoke) pins that it never
// does.
//
// Every builder is a pure function of (Profile, options): equal inputs
// yield equal bytes for any worker count, the invariant the whole repo
// is built around.
package artifact

import (
	"bytes"
	"fmt"
	"io"
	"strings"

	"repro/internal/experiment"
	"repro/internal/obs"
	"repro/internal/report"
	"repro/internal/rtime"
	"repro/internal/trace"
	"repro/internal/trace/span"
)

// Trace mode and format selectors (the rtsim -trace-mode/-trace-format
// vocabulary).
const (
	ModeLockFree  = "lockfree"
	ModeLockBased = "lockbased"

	FormatJSON     = "json"
	FormatPerfetto = "perfetto"
	FormatSpans    = "spans"
)

// TraceOptions selects one fully-observed canonical-workload run.
type TraceOptions struct {
	Sim    string // experiment.TraceSimUni/Multi/Global
	Mode   string // ModeLockFree or ModeLockBased
	Format string // FormatJSON, FormatPerfetto, or FormatSpans

	// Limit bounds the recorder (0 = unbounded); drops are counted,
	// never silent.
	Limit int

	// Flight, when positive, attaches a flight recorder retaining the
	// last Flight events; the first anomaly snapshots it into
	// Trace.FlightDump.
	Flight int

	// Progress, when non-nil, receives the pipeline's deterministic
	// progress text lines. OnProgress, when non-nil, receives the raw
	// snapshots at the same marks (the serving daemon's live feed).
	// ProgressEvery paces both; zero means a tenth of the horizon.
	Progress      io.Writer
	ProgressEvery rtime.Duration
	OnProgress    func(mark rtime.Time, s obs.Snapshot)
}

// Trace is one rendered trace artifact set.
type Trace struct {
	Sim, Mode, Format string
	Profile           string
	Seed              int64
	Horizon           rtime.Time

	Data    []byte // the trace file in the requested format
	Events  int
	Dropped int64  // recorder drops under Limit
	Counts  string // trace.Summary of the recorded events

	// Flight-recorder outcome. FlightDump is the Perfetto-loadable ring
	// snapshot taken at the first anomaly, nil when none fired (or no
	// recorder was attached); Trigger/TriggerAt identify the anomaly.
	FlightDump    []byte
	Trigger       string
	TriggerAt     rtime.Time
	FlightLen     int
	FlightDropped int64

	flight int // requested recorder size, for Summary
}

// BuildTrace runs one fully-observed simulation of the canonical trace
// workload and renders its artifacts in memory. The returned bytes are
// a pure function of (p, o): byte-identical for any p.Jobs value and
// any caller (CLI or daemon).
func BuildTrace(p experiment.Profile, o TraceOptions) (*Trace, error) {
	var lockBased bool
	switch o.Mode {
	case ModeLockFree:
	case ModeLockBased:
		lockBased = true
	default:
		return nil, fmt.Errorf("artifact: unknown trace mode %q (want %s or %s)", o.Mode, ModeLockFree, ModeLockBased)
	}
	switch o.Format {
	case FormatJSON, FormatPerfetto, FormatSpans:
	default:
		return nil, fmt.Errorf("artifact: unknown trace format %q (want %s, %s, or %s)",
			o.Format, FormatJSON, FormatPerfetto, FormatSpans)
	}
	seed := p.Seeds[0]
	tasks, horizon, err := experiment.TraceSetup(p)
	if err != nil {
		return nil, err
	}

	t := &Trace{
		Sim: o.Sim, Mode: o.Mode, Format: o.Format,
		Profile: p.Name, Seed: seed, Horizon: horizon,
		flight: o.Flight,
	}
	rec := trace.NewRecorder(o.Limit)
	observer := rec.Record
	var pipe *obs.Pipeline
	var dumpErr error
	if o.Flight > 0 || o.Progress != nil || o.OnProgress != nil {
		cpus := 1
		if o.Sim != experiment.TraceSimUni {
			cpus = experiment.TraceCPUs
		}
		cfg := obs.Config{
			Horizon: horizon, CPUs: cpus, Flight: o.Flight,
			Progress: o.Progress, OnProgress: o.OnProgress,
		}
		if o.Progress != nil || o.OnProgress != nil {
			// Ten marks per run by default, paced by virtual time — a pure
			// function of the horizon, so progress output is deterministic.
			every := o.ProgressEvery
			if every <= 0 {
				every = rtime.Duration(horizon / 10)
			}
			if every < 1 {
				every = 1
			}
			cfg.ProgressEvery = every
		}
		if o.Flight > 0 {
			cfg.OnTrigger = func(reason string, at rtime.Time) {
				// Snapshot the ring the moment the anomaly happens: the
				// window ends at the event that tripped it.
				t.FlightLen, t.FlightDropped = pipe.Flight().Len(), pipe.Flight().Dropped()
				var b bytes.Buffer
				if dumpErr = pipe.Flight().WritePerfetto(&b); dumpErr == nil {
					t.FlightDump = b.Bytes()
				}
			}
		}
		if pipe, err = obs.NewPipeline(cfg); err != nil {
			return nil, err
		}
		observer = obs.Tee(obs.Func(rec.Record), pipe)
	}

	if err := experiment.StreamTrace(p, o.Sim, lockBased, seed, tasks, horizon, observer); err != nil {
		return nil, err
	}
	if pipe != nil {
		res, err := pipe.Finish()
		if err != nil {
			return nil, err
		}
		if dumpErr != nil {
			return nil, fmt.Errorf("flight dump: %w", dumpErr)
		}
		t.Trigger, t.TriggerAt = res.Trigger, res.TriggerAt
	}

	events := rec.Events()
	var buf bytes.Buffer
	switch o.Format {
	case FormatJSON:
		err = trace.WriteJSON(&buf, events)
	case FormatPerfetto:
		err = trace.WritePerfetto(&buf, events)
	case FormatSpans:
		var spans []span.JobSpan
		if spans, err = span.Build(events, horizon); err == nil {
			err = span.WriteText(&buf, spans)
		}
	}
	if err != nil {
		return nil, err
	}
	t.Data = buf.Bytes()
	t.Events = len(events)
	t.Dropped = rec.Dropped()
	t.Counts = trace.Summary(events)
	return t, nil
}

// Summary renders the deterministic stdout block rtsim prints for this
// trace, labeling the trace file `file` and the flight dump `dumpFile`.
func (t *Trace) Summary(file, dumpFile string) string {
	var b strings.Builder
	dropped := ""
	if t.Dropped > 0 {
		dropped = fmt.Sprintf(" dropped=%d", t.Dropped)
	}
	fmt.Fprintf(&b, "trace: sim=%s mode=%s seed=%d profile=%s events=%d%s horizon=%v format=%s\n",
		t.Sim, t.Mode, t.Seed, t.Profile, t.Events, dropped, t.Horizon, t.Format)
	fmt.Fprintf(&b, "counts: %s\n", t.Counts)
	if t.Trigger != "" && t.flight > 0 {
		fmt.Fprintf(&b, "flight: trigger=%s at=%dus events=%d dropped=%d file=%s\n",
			t.Trigger, t.TriggerAt.Micros(), t.FlightLen, t.FlightDropped, dumpFile)
	}
	return b.String()
}

// ReportSet is the rendered canonical-workload report: every CSV
// (sorted by name) followed by the self-contained report.html — the
// exact files, in the exact listing order, rtsim -report writes.
type ReportSet struct {
	Files []report.File
	Runs  int
	Figs  int
}

// Names returns the file names in listing order.
func (s *ReportSet) Names() []string {
	names := make([]string, len(s.Files))
	for i, f := range s.Files {
		names[i] = f.Name
	}
	return names
}

// BuildReportSet builds the canonical-workload report and renders every
// artifact in memory. The bool is ignored: it once chose between two
// builders that rendered identical bytes, and stays so existing callers
// keep compiling.
func BuildReportSet(p experiment.Profile, figIDs []string, _ bool) (*ReportSet, error) {
	rep, err := experiment.BuildReport(p, figIDs)
	if err != nil {
		return nil, err
	}
	files, err := rep.CSVFiles()
	if err != nil {
		return nil, err
	}
	var html bytes.Buffer
	if err := rep.WriteHTML(&html); err != nil {
		return nil, err
	}
	files = append(files, report.File{Name: "report.html", Data: html.Bytes()})
	return &ReportSet{Files: files, Runs: len(rep.Runs), Figs: len(rep.Figs)}, nil
}

// BuildMetrics folds the canonical workload on every simulator × mode
// and renders the -metrics text digest. The bool is ignored, as in
// BuildReportSet.
func BuildMetrics(p experiment.Profile, _ bool) ([]byte, error) {
	rep, err := experiment.BuildReport(p, nil)
	if err != nil {
		return nil, err
	}
	var b bytes.Buffer
	if err := rep.WriteText(&b); err != nil {
		return nil, err
	}
	return b.Bytes(), nil
}
