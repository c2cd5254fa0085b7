// Package core is the high-level facade over the reproduction: it wires
// tasks, TUFs, UAM arrivals, the RUA schedulers, and the discrete-event
// substrate into a small builder API that the examples and command-line
// tools consume. The paper's primary algorithmic contribution (lock-free
// RUA and its retry/sojourn/AUR analysis) lives in internal/rua and
// internal/analysis; this package is the front door.
//
// Typical use:
//
//	b := core.NewSystem().
//		LockFree().
//		AccessCosts(150*rtime.Microsecond, 5*rtime.Microsecond)
//	b.AddTask(core.TaskSpec{ ... })
//	rep, err := b.Run(500 * rtime.Millisecond)
package core

import (
	"errors"
	"fmt"

	"repro/internal/analysis"
	"repro/internal/metrics"
	"repro/internal/rtime"
	"repro/internal/rua"
	"repro/internal/sched"
	"repro/internal/sim"
	"repro/internal/task"
	"repro/internal/trace"
	"repro/internal/tuf"
	"repro/internal/uam"
)

// ErrSpec reports an invalid system specification.
var ErrSpec = errors.New("core: invalid spec")

// TUFSpec describes a time/utility function declaratively.
type TUFSpec struct {
	// Shape is "step", "linear", or "parabolic"; empty means "step".
	Shape string
	// Utility is the maximum utility (at completion time zero).
	Utility float64
	// CriticalTime is the instant the function reaches zero.
	CriticalTime rtime.Duration
}

func (s TUFSpec) build() (tuf.TUF, error) {
	switch s.Shape {
	case "step", "":
		return tuf.NewStep(s.Utility, s.CriticalTime)
	case "linear":
		return tuf.NewLinear(s.Utility, s.CriticalTime)
	case "parabolic":
		return tuf.NewParabolic(s.Utility, s.CriticalTime)
	default:
		return nil, fmt.Errorf("%w: unknown TUF shape %q", ErrSpec, s.Shape)
	}
}

// TaskSpec describes one recurring activity.
type TaskSpec struct {
	Name string
	TUF  TUFSpec
	// Arrival is the UAM tuple ⟨l, a, W⟩; the zero value defaults to the
	// sporadic ⟨0, 1, 2·C⟩.
	Arrival uam.Spec
	// Exec is the per-job compute time u_i outside object accesses.
	Exec rtime.Duration
	// Accesses is m_i, the number of shared-object accesses per job,
	// spread evenly through the execution and cycling over Objects.
	Accesses int
	// Objects lists the shared-object ids the task touches.
	Objects []int
	// AbortCost is the exception-handler execution time.
	AbortCost rtime.Duration
}

// System accumulates tasks and run configuration.
type System struct {
	tasks    []*task.Task
	mode     sim.Mode
	useEDF   bool
	r, s     rtime.Duration
	opCost   float64
	seed     int64
	kind     uam.Kind
	conserv  bool
	recorder *trace.Recorder
	err      error
}

// NewSystem returns a builder with the paper's default calibration:
// lock-free mode, r=150 µs, s=5 µs, conservative retry accounting.
func NewSystem() *System {
	return &System{
		mode:    sim.LockFree,
		r:       150 * rtime.Microsecond,
		s:       5 * rtime.Microsecond,
		opCost:  0.02,
		seed:    1,
		kind:    uam.KindJittered,
		conserv: true,
	}
}

// LockFree selects lock-free RUA (the default).
func (b *System) LockFree() *System { b.mode = sim.LockFree; return b }

// LockBased selects lock-based RUA.
func (b *System) LockBased() *System { b.mode = sim.LockBased; return b }

// EDF swaps RUA for the EDF/ECF baseline scheduler.
func (b *System) EDF() *System { b.useEDF = true; return b }

// AccessCosts sets the lock-based (r) and lock-free (s) per-access costs.
func (b *System) AccessCosts(r, s rtime.Duration) *System { b.r, b.s = r, s; return b }

// SchedulerOpCost sets the virtual µs charged per scheduler operation
// (zero = ideal scheduler).
func (b *System) SchedulerOpCost(c float64) *System { b.opCost = c; return b }

// Seed sets the arrival-generation seed.
func (b *System) Seed(seed int64) *System { b.seed = seed; return b }

// Arrivals sets the UAM generation strategy (jittered, bursty, periodic).
func (b *System) Arrivals(k uam.Kind) *System { b.kind = k; return b }

// PreciseRetries switches retry accounting from the conservative
// adversary to conflict-precise (retry only on a real conflicting
// commit).
func (b *System) PreciseRetries() *System { b.conserv = false; return b }

// Trace attaches an event recorder keeping at most limit events (0 =
// unbounded); the recorder is available on the Report after Run.
func (b *System) Trace(limit int) *System {
	b.recorder = trace.NewRecorder(limit)
	return b
}

// AddTask appends a task; errors are deferred to Run.
func (b *System) AddTask(spec TaskSpec) *System {
	if b.err != nil {
		return b
	}
	f, err := spec.TUF.build()
	if err != nil {
		b.err = err
		return b
	}
	arr := spec.Arrival
	if arr == (uam.Spec{}) {
		arr = uam.Spec{L: 0, A: 1, W: 2 * spec.TUF.CriticalTime}
	}
	t := &task.Task{
		ID:        len(b.tasks),
		Name:      spec.Name,
		TUF:       f,
		Arrival:   arr,
		Segments:  task.InterleavedSegments(spec.Exec, spec.Accesses, spec.Objects),
		AbortCost: spec.AbortCost,
	}
	if err := t.Validate(); err != nil {
		b.err = err
		return b
	}
	b.tasks = append(b.tasks, t)
	return b
}

// Tasks returns the tasks built so far (for analysis calls).
func (b *System) Tasks() []*task.Task { return b.tasks }

// Report is the outcome of a run: raw simulation counters, digested
// statistics, and the analytic retry bounds for each task.
type Report struct {
	Result      sim.Result
	Stats       metrics.RunStats
	RetryBounds []int64
	Mode        sim.Mode
	Scheduler   string
	// Trace holds the event recorder when System.Trace was enabled.
	Trace *trace.Recorder
}

// Run executes the system for the given horizon.
func (b *System) Run(horizon rtime.Duration) (*Report, error) {
	if b.err != nil {
		return nil, b.err
	}
	if len(b.tasks) == 0 {
		return nil, fmt.Errorf("%w: no tasks", ErrSpec)
	}
	var s sched.Scheduler
	switch {
	case b.useEDF:
		s = sched.EDF{}
	case b.mode == sim.LockFree:
		s = rua.NewLockFree()
	default:
		s = rua.NewLockBased()
	}
	cfg := sim.Config{
		Tasks:             b.tasks,
		Scheduler:         s,
		Mode:              b.mode,
		R:                 b.r,
		S:                 b.s,
		OpCost:            b.opCost,
		Horizon:           rtime.Time(horizon),
		ArrivalKind:       b.kind,
		Seed:              b.seed,
		ConservativeRetry: b.conserv,
		// Report.Result.Jobs is the per-job record callers inspect.
		KeepJobs: true,
	}
	if b.recorder != nil {
		cfg.Observer = b.recorder.Observer()
	}
	res, err := sim.Run(cfg)
	if err != nil {
		return nil, err
	}
	rep := &Report{
		Result:    res,
		Stats:     metrics.Analyze(res),
		Mode:      b.mode,
		Scheduler: s.Name(),
		Trace:     b.recorder,
	}
	for i := range b.tasks {
		bound, err := analysis.RetryBound(i, b.tasks)
		if err != nil {
			return nil, err
		}
		rep.RetryBounds = append(rep.RetryBounds, bound)
	}
	return rep, nil
}

// Summary renders a human-readable digest.
func (r *Report) Summary() string {
	st := r.Stats
	return fmt.Sprintf(
		"%s (%s): released=%d completed=%d aborted=%d AUR=%.3f CMR=%.3f meanSojourn=%v retries=%d blockings=%d schedOverhead=%v",
		r.Scheduler, r.Mode, st.Released, st.Completed, st.Aborted,
		st.AUR, st.CMR, st.MeanSojourn, st.Retries, st.Blockings, r.Result.Overhead)
}
