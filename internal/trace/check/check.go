// Package check overlays the paper's analytical bounds on observed
// per-job spans: each job's retry count is compared against the
// Theorem 2 bound f_i ≤ 3·a_i + Σ_{j≠i} 2·a_j·(⌈C_i/W_j⌉+1), and each
// completed job's sojourn against the Theorem 3 worst-case composition
// (u_i + I_i + m_i·s + R_i lock-free, u_i + I_i + m_i·r + B_i
// lock-based), both evaluated by internal/analysis. A violation is a
// first-class error: either the simulator diverged from the model or
// the bound's preconditions were broken, and both are bugs worth
// failing a build over.
//
// Scope: Theorem 2 is proved for RUA on a single processor. It holds
// per-partition under internal/multi (checking a partition against the
// full task set is loosening-only, hence sound), but does NOT transfer
// to the global-scheduling engine, where truly parallel conflicting
// accesses make commit-time validation retries exceed the
// scheduling-event count — disable Theorem2 when checking global-engine traces.
package check

import (
	"errors"
	"fmt"
	"io"
	"sort"
	"strings"

	"repro/internal/analysis"
	"repro/internal/rtime"
	"repro/internal/task"
	"repro/internal/trace/span"
	"repro/internal/uam"
)

// ErrViolation tags reports with at least one bound violation.
var ErrViolation = errors.New("check: analytical bound violated")

// Config selects which bounds to evaluate and supplies the access-time
// parameters the formulas need.
type Config struct {
	Theorem2 bool // check per-job retries against RetryBound
	Theorem3 bool // check completed-job sojourns against the worst-case composition

	// LockBased marks the observed run as lock-based sharing: Theorem 3
	// then uses the lock-based composition, and Theorem 2 (a lock-free
	// result) is skipped regardless of the flag above.
	LockBased bool

	R rtime.Duration // r: lock-based access time
	S rtime.Duration // s: lock-free access time

	// EffectiveSpecs, when non-nil (one per task, task order), are the
	// fault-inflated arrival specs of the injection plan that produced
	// the trace. Bounds are evaluated twice: against the declared model,
	// and against tasks re-specified with the effective arrival curves. A
	// declared-bound violation that still satisfies its effective bound
	// is marked Expected — the injector, not the simulator, broke the
	// model.
	EffectiveSpecs []uam.Spec

	// ExpectedT2/ExpectedT3 mark every violation of the respective
	// theorem as Expected: set them when the fault plan perturbs inputs
	// the effective arrival curve cannot account for (phantom CAS
	// retries for Theorem 2; execution overruns or CPU stalls for
	// Theorem 3).
	ExpectedT2 bool
	ExpectedT3 bool
}

// Violation is one job exceeding one bound.
type Violation struct {
	Theorem  int // 2 or 3
	Task     int
	Seq      int
	Observed int64 // retries (Theorem 2) or sojourn microseconds (Theorem 3)
	Bound    int64

	// Expected marks a violation explained by declared fault injection:
	// the observed value exceeds the declared-model bound but either
	// satisfies the effective (fault-inflated) bound or the plan injects
	// faults outside the arrival model entirely (Config.ExpectedT2/T3).
	// Expected violations do not fail the check.
	Expected bool
}

// String renders the violation.
func (v Violation) String() string {
	tag := ""
	if v.Expected {
		tag = " [expected-violation]"
	}
	if v.Theorem == 2 {
		return fmt.Sprintf("theorem 2: J[%d,%d] retried %d times, bound %d%s", v.Task, v.Seq, v.Observed, v.Bound, tag)
	}
	return fmt.Sprintf("theorem 3: J[%d,%d] sojourn %v, bound %v%s",
		v.Task, v.Seq, rtime.Duration(v.Observed), rtime.Duration(v.Bound), tag)
}

// TaskReport aggregates one task's observed extremes next to its
// analytical bounds. Bounds are -1 when the corresponding theorem was
// not evaluated.
type TaskReport struct {
	Task       int
	Jobs       int // spans observed
	Completed  int
	MaxRetries int64
	RetryBound int64

	MaxSojourn   rtime.Duration
	SojournBound rtime.Duration
}

// Report is the outcome of one Check call.
type Report struct {
	Tasks      []TaskReport // ascending task id
	Violations []Violation  // span order: ascending (task, seq), theorem 2 before 3
}

// Unexpected counts the violations not explained by declared fault
// injection.
func (r *Report) Unexpected() int {
	n := 0
	for _, v := range r.Violations {
		if !v.Expected {
			n++
		}
	}
	return n
}

// OK reports whether every evaluated bound held, ignoring violations
// marked Expected (declared fault injection).
func (r *Report) OK() bool { return r.Unexpected() == 0 }

// Err returns nil when OK, otherwise an ErrViolation-wrapped error
// naming the first unexpected violation and the total count.
func (r *Report) Err() error {
	if r.OK() {
		return nil
	}
	for _, v := range r.Violations {
		if !v.Expected {
			return fmt.Errorf("%w: %s (%d unexpected)", ErrViolation, v, r.Unexpected())
		}
	}
	return nil
}

// WriteText renders the per-task table and any violations,
// deterministically.
func (r *Report) WriteText(w io.Writer) error {
	var b strings.Builder
	fmt.Fprintf(&b, "%-6s %6s %6s %10s %10s %12s %12s\n",
		"task", "jobs", "done", "maxRetry", "f_bound", "maxSojourn", "sojBound")
	for _, tr := range r.Tasks {
		fb, sb := "-", "-"
		if tr.RetryBound >= 0 {
			fb = fmt.Sprintf("%d", tr.RetryBound)
		}
		if tr.SojournBound >= 0 {
			sb = tr.SojournBound.String()
		}
		fmt.Fprintf(&b, "T%-5d %6d %6d %10d %10s %12v %12s\n",
			tr.Task, tr.Jobs, tr.Completed, tr.MaxRetries, fb, tr.MaxSojourn, sb)
	}
	switch {
	case len(r.Violations) == 0:
		b.WriteString("bounds: OK\n")
	case r.OK():
		fmt.Fprintf(&b, "bounds: OK (%d expected violation(s) from fault injection)\n", len(r.Violations))
		for _, v := range r.Violations {
			fmt.Fprintf(&b, "  %s\n", v)
		}
	default:
		fmt.Fprintf(&b, "bounds: %d violation(s), %d unexpected\n", len(r.Violations), r.Unexpected())
		for _, v := range r.Violations {
			fmt.Fprintf(&b, "  %s\n", v)
		}
	}
	_, err := io.WriteString(w, b.String())
	return err
}

// Stream evaluates the configured bounds over spans one at a time, as
// they retire from an online span folder (span.Stream). All bound
// formulas are evaluated once at construction; Observe is pure lookup
// and comparison, so checking is O(1) per span with no per-span
// allocation unless a violation is found. Fed the same spans Check
// sees, in any order, Report returns a byte-identical Report.
type Stream struct {
	cfg             Config
	checkT2         bool
	byID            map[int]int
	retryBound      []int64
	sojournBound    []rtime.Duration
	effRetryBound   []int64
	effSojournBound []rtime.Duration

	rep  *Report
	slot map[int]*TaskReport
	err  error
}

// NewStream precomputes the bounds for tasks under cfg. The error
// return reports evaluation problems (duplicate task ids, invalid
// formula inputs).
func NewStream(tasks []*task.Task, cfg Config) (*Stream, error) {
	byID := make(map[int]int, len(tasks))
	for i, t := range tasks {
		if _, dup := byID[t.ID]; dup {
			return nil, fmt.Errorf("check: duplicate task id %d", t.ID)
		}
		byID[t.ID] = i
	}

	checkT2 := cfg.Theorem2 && !cfg.LockBased
	retryBound, sojournBound, err := boundsFor(tasks, cfg, checkT2)
	if err != nil {
		return nil, err
	}

	// Effective bounds under the declared fault plan's inflated arrival
	// curves: a declared-bound violation inside the effective bound is
	// the injector's doing, not a simulator bug.
	var effRetryBound []int64
	var effSojournBound []rtime.Duration
	if cfg.EffectiveSpecs != nil {
		if len(cfg.EffectiveSpecs) != len(tasks) {
			return nil, fmt.Errorf("check: %d effective specs for %d tasks", len(cfg.EffectiveSpecs), len(tasks))
		}
		effTasks := make([]*task.Task, len(tasks))
		for i, t := range tasks {
			ct := *t
			ct.Arrival = cfg.EffectiveSpecs[i]
			effTasks[i] = &ct
		}
		effRetryBound, effSojournBound, err = boundsFor(effTasks, cfg, checkT2)
		if err != nil {
			return nil, err
		}
	}

	rep := &Report{Tasks: make([]TaskReport, len(tasks))}
	for i, t := range tasks {
		rep.Tasks[i] = TaskReport{Task: t.ID, RetryBound: retryBound[i], SojournBound: sojournBound[i]}
	}
	sort.Slice(rep.Tasks, func(a, b int) bool { return rep.Tasks[a].Task < rep.Tasks[b].Task })
	slot := make(map[int]*TaskReport, len(rep.Tasks))
	for i := range rep.Tasks {
		slot[rep.Tasks[i].Task] = &rep.Tasks[i]
	}

	return &Stream{
		cfg: cfg, checkT2: checkT2, byID: byID,
		retryBound: retryBound, sojournBound: sojournBound,
		effRetryBound: effRetryBound, effSojournBound: effSojournBound,
		rep: rep, slot: slot,
	}, nil
}

// Err returns the first evaluation error (span for an unknown task), if
// any.
func (st *Stream) Err() error { return st.err }

// Observe checks one span and returns the violations it produced (a
// view into the report's violation list, valid until the next call
// appends). After an error the stream is inert.
func (st *Stream) Observe(s *span.JobSpan) []Violation {
	if st.err != nil {
		return nil
	}
	i, ok := st.byID[s.Task]
	if !ok {
		st.err = fmt.Errorf("check: span for unknown task %d", s.Task)
		return nil
	}
	n := len(st.rep.Violations)
	tr := st.slot[s.Task]
	tr.Jobs++
	if s.Retries > tr.MaxRetries {
		tr.MaxRetries = s.Retries
	}
	if st.checkT2 && s.Retries > st.retryBound[i] {
		st.rep.Violations = append(st.rep.Violations, Violation{
			Theorem: 2, Task: s.Task, Seq: s.Seq, Observed: s.Retries, Bound: st.retryBound[i],
			Expected: st.cfg.ExpectedT2 || (st.effRetryBound != nil && s.Retries <= st.effRetryBound[i]),
		})
	}
	if s.Outcome != span.Completed {
		return st.rep.Violations[n:]
	}
	tr.Completed++
	soj := s.Sojourn()
	if soj > tr.MaxSojourn {
		tr.MaxSojourn = soj
	}
	if st.cfg.Theorem3 && soj > st.sojournBound[i] {
		st.rep.Violations = append(st.rep.Violations, Violation{
			Theorem: 3, Task: s.Task, Seq: s.Seq, Observed: soj.Micros(), Bound: st.sojournBound[i].Micros(),
			Expected: st.cfg.ExpectedT3 || (st.effSojournBound != nil && soj <= st.effSojournBound[i]),
		})
	}
	return st.rep.Violations[n:]
}

// Report sorts the accumulated violations into the order Check promises
// — ascending (task, seq), theorem 2 before 3 — and returns the report,
// or the first evaluation error. Spans retire from an online folder in
// departure order, not key order, so the sort re-establishes Check's
// order; per (task, seq) at most one violation of each theorem
// exists, making the order unique.
func (st *Stream) Report() (*Report, error) {
	if st.err != nil {
		return nil, st.err
	}
	v := st.rep.Violations
	sort.Slice(v, func(a, b int) bool {
		if v[a].Task != v[b].Task {
			return v[a].Task < v[b].Task
		}
		if v[a].Seq != v[b].Seq {
			return v[a].Seq < v[b].Seq
		}
		return v[a].Theorem < v[b].Theorem
	})
	return st.rep, nil
}

// Check evaluates the configured bounds over spans produced from a run
// of tasks. Every span's Task id must name a task in tasks; bounds are
// computed from the full task set (sound, if loose, for a partition's
// spans under multi). The error return reports evaluation problems
// (unknown task, invalid formula inputs) — bound violations land in the
// Report, not the error.
func Check(spans []span.JobSpan, tasks []*task.Task, cfg Config) (*Report, error) {
	st, err := NewStream(tasks, cfg)
	if err != nil {
		return nil, err
	}
	for si := range spans {
		st.Observe(&spans[si])
	}
	return st.Report()
}

// boundsFor evaluates the configured analytical bounds for every task;
// -1 marks a bound that was not evaluated.
func boundsFor(tasks []*task.Task, cfg Config, checkT2 bool) ([]int64, []rtime.Duration, error) {
	retryBound := make([]int64, len(tasks))
	sojournBound := make([]rtime.Duration, len(tasks))
	for i := range tasks {
		retryBound[i] = -1
		sojournBound[i] = -1
		if checkT2 {
			fb, err := analysis.RetryBound(i, tasks)
			if err != nil {
				return nil, nil, err
			}
			retryBound[i] = fb
		}
		if cfg.Theorem3 {
			in, err := analysis.InputsFor(i, tasks, cfg.R, cfg.S)
			if err != nil {
				return nil, nil, err
			}
			acc := cfg.S
			if cfg.LockBased {
				acc = cfg.R
			}
			in.I, err = analysis.Interference(i, tasks, acc)
			if err != nil {
				return nil, nil, err
			}
			if cfg.LockBased {
				sojournBound[i] = in.LockBasedSojourn()
			} else {
				sojournBound[i] = in.LockFreeSojourn()
			}
		}
	}
	return retryBound, sojournBound, nil
}
