package multi

import (
	"errors"
	"reflect"
	"testing"
	"testing/quick"

	"repro/internal/fault"
	"repro/internal/rtime"
	"repro/internal/rua"
	"repro/internal/sim"
	"repro/internal/stoch"
	"repro/internal/task"
	"repro/internal/trace"
	"repro/internal/tuf"
	"repro/internal/uam"
)

func mkTask(id int, u rtime.Duration, c rtime.Duration, m int, objs []int) *task.Task {
	return &task.Task{
		ID:       id,
		TUF:      tuf.MustStep(float64(id+1), c),
		Arrival:  uam.Spec{L: 0, A: 2, W: c},
		Segments: task.InterleavedSegments(u, m, objs),
	}
}

func TestPartitionKeepsSharersTogether(t *testing.T) {
	tasks := []*task.Task{
		mkTask(0, 100, 2000, 2, []int{0}),    // shares obj 0 with task 1
		mkTask(1, 100, 2000, 2, []int{0, 1}), // bridges obj 0 and 1
		mkTask(2, 100, 2000, 2, []int{1}),    // shares obj 1 with task 1
		mkTask(3, 100, 2000, 2, []int{7}),    // independent
		mkTask(4, 100, 2000, 0, nil),         // no objects
	}
	assign, err := Partition(tasks, 3, 5)
	if err != nil {
		t.Fatal(err)
	}
	if assign[0] != assign[1] || assign[1] != assign[2] {
		t.Fatalf("shared-object component split across CPUs: %v", assign)
	}
	for _, a := range assign {
		if a < 0 || a >= 3 {
			t.Fatalf("assignment out of range: %v", assign)
		}
	}
}

func TestPartitionBalances(t *testing.T) {
	var tasks []*task.Task
	for i := 0; i < 8; i++ {
		tasks = append(tasks, mkTask(i, 100, 2000, 0, nil)) // independent, equal util
	}
	assign, err := Partition(tasks, 4, 5)
	if err != nil {
		t.Fatal(err)
	}
	counts := map[int]int{}
	for _, a := range assign {
		counts[a]++
	}
	for cpu := 0; cpu < 4; cpu++ {
		if counts[cpu] != 2 {
			t.Fatalf("unbalanced assignment: %v", counts)
		}
	}
}

func TestPartitionErrors(t *testing.T) {
	tasks := []*task.Task{mkTask(0, 100, 2000, 0, nil)}
	if _, err := Partition(tasks, 0, 5); !errors.Is(err, ErrConfig) {
		t.Fatal("0 CPUs accepted")
	}
	if _, err := Partition(nil, 2, 5); !errors.Is(err, ErrConfig) {
		t.Fatal("empty task set accepted")
	}
}

func TestPartitionDeterministic(t *testing.T) {
	mk := func() []*task.Task {
		var out []*task.Task
		for i := 0; i < 12; i++ {
			out = append(out, mkTask(i, rtime.Duration(50+i*20), 4000, i%3, []int{i % 4}))
		}
		return out
	}
	a1, _ := Partition(mk(), 3, 5)
	a2, _ := Partition(mk(), 3, 5)
	for i := range a1 {
		if a1[i] != a2[i] {
			t.Fatal("partitioning not deterministic")
		}
	}
}

func TestRunSpreadsOverload(t *testing.T) {
	// Total load ≈ 2.0: hopeless on one CPU, comfortable on four.
	mk := func() []*task.Task {
		var out []*task.Task
		for i := 0; i < 8; i++ {
			// Each task: u=500, C=W=2000, a=2, L=0 → util ≈ 0.25.
			out = append(out, mkTask(i, 500, 2000, 2, []int{i}))
		}
		return out
	}
	cfg := sim.Config{
		Tasks: mk(), Mode: sim.LockFree,
		R: 150, S: 5, Horizon: 100_000, ArrivalKind: uam.KindJittered,
		Seed: 3, ConservativeRetry: true,
	}
	one, err := Run(cfg, 1, nil)
	if err != nil {
		t.Fatal(err)
	}
	cfg.Tasks = mk()
	four, err := Run(cfg, 4, nil)
	if err != nil {
		t.Fatal(err)
	}
	if one.Stats.AUR >= 0.9 {
		t.Fatalf("single CPU should be overloaded, AUR=%v", one.Stats.AUR)
	}
	if four.Stats.AUR <= one.Stats.AUR+0.1 {
		t.Fatalf("4 CPUs did not help: %v vs %v", four.Stats.AUR, one.Stats.AUR)
	}
	if len(four.PerCPU) != 4 {
		t.Fatalf("PerCPU len = %d", len(four.PerCPU))
	}
}

func TestRunLockBased(t *testing.T) {
	tasks := []*task.Task{
		mkTask(0, 300, 3000, 2, []int{0}),
		mkTask(1, 300, 3000, 2, []int{0}),
		mkTask(2, 300, 3000, 2, []int{1}),
	}
	res, err := Run(sim.Config{
		Tasks: tasks, Mode: sim.LockBased,
		R: 50, S: 5, Horizon: 60_000, ArrivalKind: uam.KindPeriodic,
		Seed: 1,
	}, 2, nil)
	if err != nil {
		t.Fatal(err)
	}
	if res.Assignment[0] != res.Assignment[1] {
		t.Fatal("tasks sharing object 0 split across CPUs")
	}
	if res.Stats.Released == 0 || res.Stats.Completed == 0 {
		t.Fatalf("nothing ran: %+v", res.Stats)
	}
}

func TestRunRejectsBadConfig(t *testing.T) {
	good := func() sim.Config {
		return sim.Config{
			Tasks: []*task.Task{mkTask(0, 300, 3000, 2, []int{0})},
			Mode:  sim.LockFree, R: 50, S: 5, Horizon: 60_000,
		}
	}
	if _, err := Run(good(), 2, nil); err != nil {
		t.Fatalf("good config rejected: %v", err)
	}
	if _, err := Run(good(), 0, nil); !errors.Is(err, ErrConfig) {
		t.Error("0 CPUs accepted")
	}
	// Fields no partitioned run can honor.
	for name, mut := range map[string]func(*sim.Config){
		"shared-scheduler": func(c *sim.Config) { c.Scheduler = rua.NewLockFree() },
		"arrival-traces":   func(c *sim.Config) { c.Arrivals = []uam.Trace{{0}} },
		"stoch-cpu":        func(c *sim.Config) { c.StochCPU = 1 },
	} {
		c := good()
		mut(&c)
		if _, err := Run(c, 2, nil); !errors.Is(err, ErrConfig) {
			t.Errorf("%s accepted: %v", name, err)
		}
	}
}

// Property: partitioning never splits a shared-object component, covers
// every task, and stays within CPU range.
func TestQuickPartitionInvariants(t *testing.T) {
	f := func(nRaw, cpusRaw, objsRaw uint8, seed int64) bool {
		n := int(nRaw%10) + 1
		cpus := int(cpusRaw%4) + 1
		objSpace := int(objsRaw%4) + 1
		tasks := make([]*task.Task, n)
		for i := range tasks {
			m := i % 3
			objs := []int{(i + int(seed)) % objSpace, (i * 3) % objSpace}
			tasks[i] = mkTask(i, rtime.Duration(50+i*10), 4000, m, objs)
		}
		assign, err := Partition(tasks, cpus, 5)
		if err != nil {
			return false
		}
		if len(assign) != n {
			return false
		}
		objCPU := map[int]int{}
		for ti, t := range tasks {
			if assign[ti] < 0 || assign[ti] >= cpus {
				return false
			}
			for _, obj := range t.Objects() {
				if prev, ok := objCPU[obj]; ok && prev != assign[ti] {
					return false // object shared across CPUs
				}
				objCPU[obj] = assign[ti]
			}
		}
		return true
	}
	if err := quick.Check(f, &quick.Config{MaxCount: 500}); err != nil {
		t.Fatal(err)
	}
}

func TestUtilizationEstimate(t *testing.T) {
	tk := mkTask(0, 100, 2000, 2, []int{0}) // u=100, m=2, A=2 L=0 W=2000
	// rate = (0+2)/(2·2000) = 1/2000; demand(5) = 110; util = 0.055.
	got := utilization(tk, 5)
	if got < 0.0549 || got > 0.0551 {
		t.Fatalf("utilization = %v, want ≈0.055", got)
	}
}

func TestComponentsSingleton(t *testing.T) {
	tasks := []*task.Task{
		mkTask(0, 100, 2000, 0, nil),
		mkTask(1, 100, 2000, 0, nil),
	}
	comps := components(tasks)
	if len(comps) != 2 {
		t.Fatalf("components = %v", comps)
	}
}

// TestQuickSingleCPUMatchesUniprocessorStream: with one CPU the
// partitioned engine is the uniprocessor engine, so its observer stream
// is exactly sim.Run's for the same configuration. Workloads are
// generated with shared objects, in both modes, plain and under the
// heavy fault plan and the geometric stochastic plan.
func TestQuickSingleCPUMatchesUniprocessorStream(t *testing.T) {
	f := func(nRaw, mRaw, objRaw uint8, execRaw, cRaw uint16, lockBased bool, overlay uint8, seed int64) bool {
		mk := func() []*task.Task {
			n := int(nRaw%5) + 2
			tasks := make([]*task.Task, n)
			for i := range tasks {
				u := rtime.Duration(execRaw%600) + 50 + rtime.Duration(i*31)
				c := rtime.Duration(cRaw%3000) + 4*u
				objs := []int{int(objRaw) % 3, (int(objRaw) + i) % 3}
				tasks[i] = mkTask(i, u, c, int(mRaw%3)+i%2, objs)
			}
			return tasks
		}
		mode, newRUA := sim.LockFree, rua.NewLockFree
		if lockBased {
			mode, newRUA = sim.LockBased, rua.NewLockBased
		}
		var fp *fault.Plan
		var sp *stoch.Plan
		switch overlay % 3 {
		case 1:
			fp = fault.Heavy()
		case 2:
			sp = stoch.Geo()
		}
		var maxC rtime.Duration
		for _, tk := range mk() {
			if c := tk.CriticalTime(); c > maxC {
				maxC = c
			}
		}
		horizon := rtime.Time(15 * maxC)
		kind := uam.Kind(uint64(seed) % 3)
		mrec, urec := trace.NewRecorder(0), trace.NewRecorder(0)
		cfg := sim.Config{
			Tasks: mk(), Mode: mode, R: 40, S: 7, OpCost: 0.02,
			Horizon: horizon, ArrivalKind: kind, Seed: seed, ConservativeRetry: true,
			Fault: fp, Stoch: sp, Observer: mrec.Record,
		}
		if _, err := Run(cfg, 1, nil); err != nil {
			t.Logf("multi: %v", err)
			return false
		}
		cfg.Tasks, cfg.Scheduler, cfg.Observer = mk(), newRUA(), urec.Record
		if _, err := sim.Run(cfg); err != nil {
			t.Logf("sim: %v", err)
			return false
		}
		return len(mrec.Events()) > 0 && reflect.DeepEqual(mrec.Events(), urec.Events())
	}
	cfg := &quick.Config{MaxCount: 360}
	if testing.Short() {
		cfg.MaxCount = 60
	}
	if err := quick.Check(f, cfg); err != nil {
		t.Fatal(err)
	}
}
