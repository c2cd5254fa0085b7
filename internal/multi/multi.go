// Package multi extends the reproduction toward the paper's §7 future
// work: multiprocessor scheduling. It implements the PARTITIONED
// discipline — tasks are statically assigned to processors and each
// processor runs its own single-CPU RUA instance — which preserves every
// single-processor result (Theorem 2's retry bound, the sojourn and AUR
// analyses) per partition, because each partition IS the paper's model.
// A run is described by the same sim.Config as a uniprocessor run plus a
// CPU count; Run derives each partition's config from it.
//
// The partitioner is object-aware: tasks that share objects are grouped
// into connected components (union-find over shared-object ids) and each
// component is placed whole, so no object is ever shared across
// processors — cross-CPU object sharing would reintroduce true parallel
// conflicts, which the paper's uniprocessor retry analysis does not
// cover, so the partitioned model deliberately avoids it. Components are
// placed by first-fit on decreasing utilization.
package multi

import (
	"errors"
	"fmt"
	"sort"

	"repro/internal/metrics"
	"repro/internal/rtime"
	"repro/internal/rua"
	"repro/internal/sched"
	"repro/internal/sim"
	"repro/internal/task"
	"repro/internal/trace"
)

// ErrConfig reports an invalid multiprocessor configuration.
var ErrConfig = errors.New("multi: invalid config")

// Result aggregates a partitioned run.
type Result struct {
	Assignment []int // task index → CPU
	PerCPU     []sim.Result
	Stats      metrics.RunStats // merged over all CPUs
}

// utilization estimates a task's long-run processor demand.
func utilization(t *task.Task, acc rtime.Duration) float64 {
	return t.Arrival.MeanRate() * float64(t.Demand(acc))
}

// components groups task indices into shared-object connected components
// using union-find.
func components(tasks []*task.Task) [][]int {
	parent := make([]int, len(tasks))
	for i := range parent {
		parent[i] = i
	}
	var find func(int) int
	find = func(x int) int {
		for parent[x] != x {
			parent[x] = parent[parent[x]]
			x = parent[x]
		}
		return x
	}
	union := func(a, b int) {
		ra, rb := find(a), find(b)
		if ra != rb {
			parent[ra] = rb
		}
	}
	byObject := map[int]int{} // object id → first task index seen
	for i, t := range tasks {
		for _, obj := range t.Objects() {
			if first, ok := byObject[obj]; ok {
				union(i, first)
			} else {
				byObject[obj] = i
			}
		}
	}
	groups := map[int][]int{}
	for i := range tasks {
		r := find(i)
		groups[r] = append(groups[r], i)
	}
	out := make([][]int, 0, len(groups))
	for _, g := range groups {
		sort.Ints(g)
		out = append(out, g)
	}
	// Deterministic order: by first member.
	sort.Slice(out, func(a, b int) bool { return out[a][0] < out[b][0] })
	return out
}

// Partition assigns tasks to cpus: shared-object components stay whole;
// components are placed largest-utilization-first onto the least-loaded
// CPU (a first-fit-decreasing/worst-fit hybrid that balances load while
// keeping the assignment deterministic). It returns the per-task CPU
// index.
func Partition(tasks []*task.Task, cpus int, acc rtime.Duration) ([]int, error) {
	if cpus < 1 {
		return nil, fmt.Errorf("%w: %d CPUs", ErrConfig, cpus)
	}
	if len(tasks) == 0 {
		return nil, fmt.Errorf("%w: no tasks", ErrConfig)
	}
	comps := components(tasks)
	type comp struct {
		members []int
		util    float64
	}
	cs := make([]comp, len(comps))
	for i, members := range comps {
		u := 0.0
		for _, ti := range members {
			u += utilization(tasks[ti], acc)
		}
		cs[i] = comp{members: members, util: u}
	}
	sort.SliceStable(cs, func(a, b int) bool { return cs[a].util > cs[b].util })

	load := make([]float64, cpus)
	assign := make([]int, len(tasks))
	for _, c := range cs {
		best := 0
		for cpu := 1; cpu < cpus; cpu++ {
			if load[cpu] < load[best] {
				best = cpu
			}
		}
		for _, ti := range c.members {
			assign[ti] = best
		}
		load[best] += c.util
	}
	return assign, nil
}

// Run partitions cfg.Tasks over cpus processors and executes one
// independent uniprocessor engine per CPU. Task IDs are preserved, so
// per-task analysis (retry bounds etc.) applies within each partition.
//
// Each partition runs a copy of cfg that differs only in Tasks (the
// partition's tasks), Scheduler (a fresh newScheduler() instance:
// schedulers are stateful in principle, so partitions must not share
// one; nil means lock-free RUA for LockFree mode and lock-based RUA
// otherwise), Seed (offset by the CPU index), StochCPU and Observer:
//
//   - Fault is shared unchanged: its decisions are pure hashes of (plan
//     seed, task ID, indices), so a task is perturbed identically
//     whichever CPU it lands on.
//   - Stoch is shared unchanged; each partition folds its CPU index into
//     the decision hashes as StochCPU, so partitions draw independent
//     quanta and picks from one seed.
//   - Observer receives every partition's trace events with Event.CPU
//     rewritten to the partition index. The partition engines are
//     stepped in lockstep (at each step the engine with the earliest
//     pending event, ties broken by ascending CPU, advances one event),
//     so the merged stream is nondecreasing in Event.At and online
//     sinks (internal/obs) fold it without buffering or sorting.
//
// cfg.Scheduler must be nil, since one instance cannot serve every
// partition; cfg.Arrivals must be nil, since traces are indexed by the
// whole task list, not by partition; and cfg.StochCPU must be 0.
func Run(cfg sim.Config, cpus int, newScheduler func() sched.Scheduler) (Result, error) {
	switch {
	case cpus < 1:
		return Result{}, fmt.Errorf("%w: %d CPUs", ErrConfig, cpus)
	case cfg.Scheduler != nil:
		return Result{}, fmt.Errorf("%w: one scheduler instance for every partition; pass a factory", ErrConfig)
	case cfg.Arrivals != nil:
		return Result{}, fmt.Errorf("%w: explicit arrival traces cannot follow tasks into partitions", ErrConfig)
	case cfg.StochCPU != 0:
		return Result{}, fmt.Errorf("%w: StochCPU %d; partitions hash with their own CPU index", ErrConfig, cfg.StochCPU)
	}
	assign, err := Partition(cfg.Tasks, cpus, cfg.Mode.AccessCost(cfg.R, cfg.S))
	if err != nil {
		return Result{}, err
	}
	if newScheduler == nil {
		if cfg.Mode == sim.LockFree {
			newScheduler = func() sched.Scheduler { return rua.NewLockFree() }
		} else {
			newScheduler = func() sched.Scheduler { return rua.NewLockBased() }
		}
	}
	res := Result{Assignment: assign, PerCPU: make([]sim.Result, cpus)}
	// metrics.Analyze reads only the sums; per-CPU counters stay in
	// PerCPU.
	merged := sim.Result{Horizon: cfg.Horizon}

	// Build one stepper engine per non-empty partition. Each engine only
	// emits observer events at the virtual time of the event it is
	// currently processing, so interleaving the engines by earliest
	// NextAt (ties broken by ascending CPU) yields a merged stream
	// nondecreasing in Event.At — equivalent to a stable sort by At of
	// the old sequential per-CPU streams.
	engines := make([]*sim.Engine, cpus)
	for cpu := 0; cpu < cpus; cpu++ {
		var part []*task.Task
		for ti, t := range cfg.Tasks {
			if assign[ti] == cpu {
				part = append(part, t)
			}
		}
		if len(part) == 0 {
			res.PerCPU[cpu] = sim.Result{Horizon: cfg.Horizon}
			continue
		}
		pcfg := cfg
		pcfg.Tasks, pcfg.Scheduler = part, newScheduler()
		pcfg.Seed, pcfg.StochCPU = cfg.Seed+int64(cpu)*104729, cpu
		// The merged sums fold every partition's jobs, CPU by CPU, in
		// one pass: the float sums depend on that order.
		pcfg.KeepJobs = true
		if cfg.Observer != nil {
			pcfg.Observer = func(ev trace.Event) {
				ev.CPU = cpu
				cfg.Observer(ev)
			}
		}
		eng, err := sim.New(pcfg)
		if err != nil {
			return Result{}, fmt.Errorf("multi: cpu %d: %w", cpu, err)
		}
		engines[cpu] = eng
	}

	// Lockstep merge: repeatedly advance the live engine with the
	// earliest pending event.
	for {
		best := -1
		var bestAt rtime.Time
		for cpu, eng := range engines {
			if eng == nil {
				continue
			}
			at, ok := eng.NextAt()
			if !ok {
				if err := eng.Err(); err != nil {
					return Result{}, fmt.Errorf("multi: cpu %d: %w", cpu, err)
				}
				continue
			}
			if best < 0 || at < bestAt {
				best, bestAt = cpu, at
			}
		}
		if best < 0 {
			break
		}
		if !engines[best].StepNext() {
			if err := engines[best].Err(); err != nil {
				return Result{}, fmt.Errorf("multi: cpu %d: %w", best, err)
			}
		}
	}

	for cpu, eng := range engines {
		if eng == nil {
			continue
		}
		r := eng.Finish()
		if r.Err != nil {
			return Result{}, fmt.Errorf("multi: cpu %d: %w", cpu, r.Err)
		}
		res.PerCPU[cpu] = r
		for _, j := range r.Jobs {
			merged.Sums.Fold(j, cfg.Horizon)
		}
	}
	res.Stats = metrics.Analyze(merged)
	return res, nil
}
