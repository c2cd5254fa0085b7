// Package experiment builds the paper's evaluation workloads and
// regenerates every table and figure of §6 (plus validation experiments
// for Theorems 2–3 and Lemmas 4–5). Each experiment returns text Tables
// whose rows mirror the series the paper plots; cmd/rtsim prints them,
// and EXPERIMENTS.md records paper-vs-measured shapes.
package experiment

import (
	"fmt"

	"repro/internal/fault"
	"repro/internal/rtime"
	"repro/internal/stoch"
	"repro/internal/task"
	"repro/internal/tuf"
	"repro/internal/uam"
)

// TUFClass selects the paper's two TUF populations (§6.2).
type TUFClass int

// TUF classes.
const (
	// StepTUFs is the homogeneous class: downward steps only.
	StepTUFs TUFClass = iota
	// HeterogeneousTUFs cycles step, parabolic, and linearly-decreasing
	// shapes across the task set.
	HeterogeneousTUFs
)

func (c TUFClass) String() string {
	if c == HeterogeneousTUFs {
		return "heterogeneous"
	}
	return "step"
}

// Canonical task-set sizes shared by the experiments, replacing the
// hard-coded literals that used to be sprinkled per figure. The scale
// sweep composes its task sets out of PaperTasks-sized clusters through
// the same Build path the figures use.
const (
	// PaperTasks is the paper's canonical evaluation set: "10 tasks
	// accessing 10 shared queues, arbitrarily" (§6.1, Figs 8–14).
	PaperTasks = 10
	// ValidationTasks sizes the theorem-validation worlds (Thm 2/3 and
	// the trace-run example), small enough to eyeball per-task rows.
	ValidationTasks = 6
	// BoundsTasks sizes the Lemma 4/5 AUR-bounds world.
	BoundsTasks = 8
	// MultiTasks sizes the multiprocessor sweeps (multicpu/globalcpu):
	// total load ≈ 2.2 spread over pairs sharing private objects.
	MultiTasks = 16
)

// WorkloadSpec parameterizes the canonical evaluation workload: N tasks
// sharing NumObjects queues "arbitrarily", sized to an approximate load
// AL (§6.1's Σ u_i/C_i), with per-task UAM arrival bands.
type WorkloadSpec struct {
	NumTasks   int
	NumObjects int
	// AccessesPerJob is m_i for every task (the x-axis of Figs 10–13 is
	// driven by raising this together with NumObjects).
	AccessesPerJob int
	// MeanExec is the average per-job compute time u_i (excluding object
	// accesses), the x-axis of Fig 9.
	MeanExec rtime.Duration
	// TargetAL is the approximate load Σ u_i/C_i the set is sized to.
	TargetAL float64
	// Class picks the TUF population.
	Class TUFClass
	// MaxArrivals is the per-window UAM burst bound a_i (≥ 1).
	MaxArrivals int
	// AbortCost is the exception-handler execution time (§3.5).
	AbortCost rtime.Duration

	// TaskIDOffset and ObjectIDOffset shift task IDs/names and object
	// IDs, so several Build calls can compose one large task set from
	// disjoint clusters (see ScaleWorkload). Zero offsets reproduce the
	// historical workloads byte-for-byte.
	TaskIDOffset   int
	ObjectIDOffset int

	// SpreadPhases staggers each task's UAM release phase across its own
	// arrival window with a low-discrepancy (Fibonacci-hash) fraction of
	// the global task ID. Without it every ⟨l≥1,·,·⟩ task releases its
	// first job at time 0, so a 10⁵-task set starts as one synchronized
	// burst whose backlog the scheduler pays O(n) per event to drain —
	// and with a=1 the traces stay phase-locked forever. False (the
	// default) reproduces the historical workloads byte-for-byte.
	SpreadPhases bool
}

// phaseFor spreads release phases over [0, win) by the golden-ratio
// multiplicative hash of the task ID: consecutive IDs land maximally far
// apart, so any subset of tasks — even ones sharing the same window — has
// near-uniform phase coverage. 16-bit fraction precision keeps the
// product inside int64 for any representable window.
func phaseFor(id int, win rtime.Duration) rtime.Duration {
	frac := (uint32(id) * 2654435769) >> 16 // Knuth's ⌊2³²/φ⌋, top 16 bits
	return rtime.Duration(int64(win) * int64(frac) >> 16)
}

// Build materializes the workload. Task i gets compute time spread around
// MeanExec (0.5×…1.5×), critical time C_i = N·u_i/AL so that the set's AL
// matches TargetAL exactly, utility 10·(i+1) (so importance and urgency
// are uncorrelated, as the TUF model intends), and accesses cycling over
// the shared objects starting at an offset — the paper's "accessing 10
// shared queues, arbitrarily".
//
// The UAM window is derived so the band's MEAN arrival rate makes the
// long-run processor utilization equal TargetAL: the jittered generator
// paces at (l+a)/(2W) jobs per tick, so W_i = (l_i+a_i)·C_i/2 with
// l_i = max(0, 2−a_i) keeps rate·u summing to AL while honouring the §2
// constraint C_i ≤ W_i. AL therefore reads as real load, as in Fig 9's
// CML axis.
func (w WorkloadSpec) Build() ([]*task.Task, error) {
	if w.NumTasks <= 0 {
		return nil, fmt.Errorf("experiment: NumTasks %d must be positive", w.NumTasks)
	}
	if w.TargetAL <= 0 {
		return nil, fmt.Errorf("experiment: TargetAL %v must be positive", w.TargetAL)
	}
	if w.MeanExec <= 0 {
		return nil, fmt.Errorf("experiment: MeanExec %v must be positive", w.MeanExec)
	}
	if w.AccessesPerJob > 0 && w.NumObjects <= 0 {
		return nil, fmt.Errorf("experiment: accesses requested with no objects")
	}
	a := max(w.MaxArrivals, 1)
	tasks := make([]*task.Task, w.NumTasks)
	for i := range tasks {
		// Spread compute times deterministically in [0.5, 1.5]·MeanExec.
		frac := 0.5 + float64(i)/float64(max(w.NumTasks-1, 1))
		u := rtime.Duration(float64(w.MeanExec) * frac)
		if u < 1 {
			u = 1
		}
		// Per-task load share AL/N ⇒ C_i = u_i·N/AL.
		c := rtime.Duration(float64(u) * float64(w.NumTasks) / w.TargetAL)
		if c <= u {
			c = u + 1
		}
		util := 10 * float64(i+1)
		var f tuf.TUF
		if w.Class == HeterogeneousTUFs {
			switch i % 3 {
			case 0:
				f = tuf.MustStep(util, c)
			case 1:
				f = tuf.MustParabolic(util, c)
			default:
				f = tuf.MustLinear(util, c)
			}
		} else {
			f = tuf.MustStep(util, c)
		}
		objs := make([]int, max(w.AccessesPerJob, 1))
		for k := range objs {
			objs[k] = w.ObjectIDOffset + (i+k)%max(w.NumObjects, 1)
		}
		l := max(0, 2-a)
		win := rtime.Duration(int64(l+a) * int64(c) / 2)
		if win < c {
			win = c
		}
		id := w.TaskIDOffset + i
		var phase rtime.Duration
		if w.SpreadPhases {
			phase = phaseFor(id, win)
		}
		tasks[i] = &task.Task{
			ID:        id,
			Name:      fmt.Sprintf("T%d", id),
			TUF:       f,
			Arrival:   uam.Spec{L: l, A: a, W: win, Phase: phase},
			Segments:  task.InterleavedSegments(u, w.AccessesPerJob, objs),
			AbortCost: w.AbortCost,
		}
		if err := tasks[i].Validate(); err != nil {
			return nil, err
		}
	}
	return tasks, nil
}

// ScaleObjectsPerCluster is the private object pool each PaperTasks-sized
// cluster of the scale workload shares.
const ScaleObjectsPerCluster = 5

// ScaleWorkload builds an n-task set for the scaling sweep as disjoint
// PaperTasks-sized clusters, each sharing its own ScaleObjectsPerCluster
// objects — the structure of a large dynamic system: total task count
// grows without bound while any individual conflict neighbourhood stays
// paper-sized. Per-cluster load is al·clusterSize/n, so inside Build
// C_i = u_i·clusterSize/(al·clusterSize/n) = u_i·n/al: critical times
// stretch with n, total system load stays al, and the instantaneous live
// set stays O(1) in underload — scheduling passes keep paper-scale cost
// while the event population (every queued arrival) scales with n, which
// is exactly what the timing wheel is for.
func ScaleWorkload(n int, al float64, class TUFClass) ([]*task.Task, error) {
	if n <= 0 {
		return nil, fmt.Errorf("experiment: scale workload size %d must be positive", n)
	}
	tasks := make([]*task.Task, 0, n)
	for off := 0; off < n; off += PaperTasks {
		sz := min(PaperTasks, n-off)
		w := WorkloadSpec{
			NumTasks:       sz,
			NumObjects:     ScaleObjectsPerCluster,
			AccessesPerJob: 2,
			MeanExec:       500 * rtime.Microsecond,
			TargetAL:       al * float64(sz) / float64(n),
			Class:          class,
			MaxArrivals:    1,
			TaskIDOffset:   off,
			ObjectIDOffset: (off / PaperTasks) * ScaleObjectsPerCluster,
			SpreadPhases:   true,
		}
		cluster, err := w.Build()
		if err != nil {
			return nil, err
		}
		tasks = append(tasks, cluster...)
	}
	return tasks, nil
}

// Profile scales experiment sizes: Quick for tests, Full for the CLI and
// EXPERIMENTS.md numbers.
type Profile struct {
	Name        string
	HorizonMult int // horizon = mult · max critical time
	Seeds       []int64

	// Jobs bounds the worker pool the experiment sweeps fan out on
	// (runner.Grid); zero or negative means one worker per CPU. Every
	// simulation run is a pure function of its sim.Config, and results
	// are merged by index, so rendered tables are byte-identical for any
	// Jobs value — see DESIGN.md "Parallel experiment engine".
	Jobs int

	// Fault, when non-nil and active, is injected into every traced run
	// (StreamTrace) and the bound-check suite (CheckBounds): lock-free trace
	// runs get the admission-control RUA variant so sheds appear in the
	// timeline, and bounds are re-checked against the plan's effective
	// (inflated) arrival curves with model-exceeding violations flagged
	// expected. Nil (or a zero plan) leaves every run byte-identical to
	// the fault-free path. Figure runners (Registry) never see this
	// field: a report's figures run with it cleared. See DESIGN.md §5e.
	Fault *fault.Plan

	// Stoch, when non-nil and active, overlays the seeded stochastic
	// scheduler (internal/stoch) on every traced run: drawn quanta force
	// preemptions and random picks (uniprocessor) or ranked-list shuffles
	// (global) perturb dispatch. Like Fault, every decision is a pure
	// hash, so runs stay byte-identical for any worker count; a nil or
	// zero plan is bit-identical to the deterministic scheduler. As with
	// Fault, figure runners never see this field. See DESIGN.md §5h.
	Stoch *stoch.Plan

	// FigMemo, when non-nil, serves a report's figure tables from a
	// cache shared across builds (see FigMemo). Like Jobs it is
	// operational: it never changes a byte, and no flag, spec field or
	// daemon setting sets it — the rtsimd server attaches its own.
	FigMemo *FigMemo
}

// Quick is a small profile for unit tests (one seed, short horizon).
var Quick = Profile{Name: "quick", HorizonMult: 30, Seeds: []int64{1}}

// Full matches the paper's ≥ 5000-arrival scale (long horizon, five
// seeds for the 95 % CI error bars).
var Full = Profile{Name: "full", HorizonMult: 400, Seeds: []int64{1, 2, 3, 4, 5}}

// horizonFor sizes the horizon from the workload's largest critical time.
func horizonFor(tasks []*task.Task, p Profile) rtime.Time {
	var maxC rtime.Duration
	for _, t := range tasks {
		if c := t.CriticalTime(); c > maxC {
			maxC = c
		}
	}
	return rtime.Time(int64(maxC) * int64(p.HorizonMult))
}
