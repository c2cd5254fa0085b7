package sim

import (
	"repro/internal/fault"
	"repro/internal/rtime"
	"repro/internal/task"
	"repro/internal/uam"
)

// arrivalSource is the kernel's lazy arrival source. Under UAM a task
// has at most a arrivals in any window W, so the run never needs more
// than each task's next release: the source holds one pending release
// per task in a binary min-heap keyed by (time, task index), and popping
// one draws that task's next release from the task's own stream and
// sifts it back in. A task's releases come in invocation order, so the
// pops follow the run's release order (time, task index, invocation).
//
// A task's stream is its explicit trace (Config.Arrivals) or its UAM
// generator, which draws streamBatch arrivals per visit. Under a plan
// that jitters or bursts arrivals, each natural arrival is perturbed as
// it is taken (fault.Plan.PerturbArrival) into a small per-task reorder
// buffer that releases the perturbed trace in its stable time order:
// delays are positive, so a buffered arrival at x is final once the
// task's next natural arrival is at or after x. The buffer holds the
// arrivals of at most one jitter span and their copies, never the
// horizon's.
type arrivalSource struct {
	heap    []pendingRelease // tasks with a release pending, a min-heap on (at, task)
	streams []taskStream     // per task
	reorder []reorderBuf     // per task under an arrival-perturbing plan, else nil

	tasks   []*task.Task
	traces  []uam.Trace // explicit per-task traces, or nil
	kind    uam.Kind
	horizon rtime.Time
	plan    *fault.Plan
}

// pendingRelease is a task's next release: its seq-th, at at.
type pendingRelease struct {
	at   rtime.Time
	task int32
	seq  int32
}

// release is one job to create: the seq-th release of task task, at at;
// inj marks a release a fault plan delayed or injected.
type release struct {
	at   rtime.Time
	task int32
	seq  int32
	inj  bool
}

// taskStream is a task's arrival stream.
type taskStream struct {
	gen *uam.Generator // nil when the task's arrivals are explicit
	// drawn holds the generator's next arrivals, drawn[pos:end]. The
	// generator fills it streamBatch at a time: the pops of one task
	// are far apart, so each visit to its generator's state is a cache
	// miss, and a batch pays it once for several arrivals.
	drawn    [streamBatch]rtime.Time
	pos, end int8
	ended    bool // the generator's trace is over
	// natural counts the natural (unperturbed) arrivals taken: the
	// explicit trace's cursor and the fault plan's arrival index.
	natural int32
	inj     bool // the pending release was perturbed
}

// streamBatch is how many arrivals a generator draws per visit.
const streamBatch = 8

// reorderBuf turns a task's perturbed natural arrivals back into time
// order.
type reorderBuf struct {
	ahead rtime.Time         // the next natural arrival, not yet perturbed
	more  bool               // ahead exists
	buf   []perturbedArrival // perturbed, not yet released, in release order
}

type perturbedArrival struct {
	at  rtime.Time
	inj bool
}

// init sets the source up for cfg's tasks and draws each task's first
// release. cfg must already be validated.
func (a *arrivalSource) init(cfg *Config) error {
	n := len(cfg.Tasks)
	a.tasks, a.traces = cfg.Tasks, cfg.Arrivals
	a.kind, a.horizon = cfg.ArrivalKind, cfg.Horizon
	a.streams = make([]taskStream, n)
	if cfg.Arrivals == nil {
		for i, t := range cfg.Tasks {
			g, err := uam.NewGenerator(t.Arrival, cfg.Seed+int64(i)*7919)
			if err != nil {
				return err
			}
			a.streams[i].gen = g
		}
	}
	if cfg.Fault.PerturbsArrivals() {
		a.plan = cfg.Fault
		a.reorder = make([]reorderBuf, n)
		for i := range a.reorder {
			a.reorder[i].ahead, a.reorder[i].more = a.natural(i)
		}
	}
	a.heap = make([]pendingRelease, 0, n)
	for i := range a.streams {
		if at, inj, ok := a.next(i); ok {
			a.streams[i].inj = inj
			a.heap = append(a.heap, pendingRelease{at: at, task: int32(i)})
		}
	}
	for i := len(a.heap)/2 - 1; i >= 0; i-- {
		a.down(i)
	}
	return nil
}

// peek returns the time of the next release.
//
//rtlint:noalloc reads the heap's top
func (a *arrivalSource) peek() (rtime.Time, bool) {
	if len(a.heap) == 0 {
		return 0, false
	}
	return a.heap[0].at, true
}

// top returns the next release without removing it. The heap must not
// be empty.
func (a *arrivalSource) top() release {
	p := a.heap[0]
	return release{at: p.at, task: p.task, seq: p.seq, inj: a.streams[p.task].inj}
}

// pop removes and returns the next release, replacing it with its
// task's following one. The heap must not be empty.
//
//rtlint:noalloc draws from the task's stream and sifts in place
func (a *arrivalSource) pop() release {
	x := a.top()
	if at, inj, ok := a.next(int(x.task)); ok {
		a.streams[x.task].inj = inj
		a.heap[0] = pendingRelease{at: at, task: x.task, seq: x.seq + 1}
	} else {
		last := len(a.heap) - 1
		a.heap[0] = a.heap[last]
		a.heap = a.heap[:last]
	}
	a.down(0)
	return x
}

// down sifts the heap entry at i down to its place. A popped task's
// next release is usually among the latest pending, so the sift first
// walks the path of earlier children down to a leaf, one comparison a
// level, and then climbs back to the entry's place, which is rarely far.
func (a *arrivalSource) down(i int) {
	h := a.heap
	if i >= len(h) {
		return
	}
	x, top := h[i], i
	for {
		c := 2*i + 1
		if c >= len(h) {
			break
		}
		if c+1 < len(h) && earlier(h[c+1], h[c]) {
			c++
		}
		h[i] = h[c]
		i = c
	}
	for i > top {
		p := (i - 1) / 2
		if !earlier(x, h[p]) {
			break
		}
		h[i] = h[p]
		i = p
	}
	h[i] = x
}

// earlier orders pending releases by (time, task index).
func earlier(x, y pendingRelease) bool {
	return x.at < y.at || (x.at == y.at && x.task < y.task)
}

// next draws task i's next release from its stream: its next natural
// arrival, or under an arrival-perturbing plan the next final entry of
// its reorder buffer.
func (a *arrivalSource) next(i int) (at rtime.Time, inj, ok bool) {
	if a.reorder == nil {
		at, ok = a.natural(i)
		return at, false, ok
	}
	r := &a.reorder[i]
	for {
		if len(r.buf) > 0 && (!r.more || r.buf[0].at <= r.ahead) {
			x := r.buf[0]
			r.buf = r.buf[:copy(r.buf, r.buf[1:])]
			return x.at, x.inj, true
		}
		if !r.more {
			return 0, false, false
		}
		k := int(a.streams[i].natural) - 1 // ahead's arrival index
		at, delayed, copies := a.plan.PerturbArrival(a.tasks[i].ID, k, r.ahead, a.horizon)
		r.insert(perturbedArrival{at: at, inj: delayed}, copies)
		r.ahead, r.more = a.natural(i)
	}
}

// natural draws task i's next natural arrival.
func (a *arrivalSource) natural(i int) (rtime.Time, bool) {
	s := &a.streams[i]
	var at rtime.Time
	if s.gen != nil {
		if s.pos == s.end {
			if s.ended {
				return 0, false
			}
			s.pos, s.end = 0, 0
			for int(s.end) < len(s.drawn) {
				t, ok := s.gen.Next(a.kind, a.horizon)
				if !ok {
					s.ended = true
					break
				}
				s.drawn[s.end] = t
				s.end++
			}
			if s.end == 0 {
				return 0, false
			}
		}
		at = s.drawn[s.pos]
		s.pos++
	} else {
		if i >= len(a.traces) || int(s.natural) >= len(a.traces[i]) {
			return 0, false
		}
		at = a.traces[i][s.natural]
	}
	s.natural++
	return at, true
}

// insert places x and its copies after every buffered arrival at or
// before x.at: the stable time order of the perturbed trace.
func (r *reorderBuf) insert(x perturbedArrival, copies int) {
	p := len(r.buf)
	for p > 0 && r.buf[p-1].at > x.at {
		p--
	}
	for n := 0; n <= copies; n++ {
		//rtlint:ignore noalloc grows to one jitter span's arrivals and their copies; amortized
		r.buf = append(r.buf, perturbedArrival{})
	}
	copy(r.buf[p+1+copies:], r.buf[p:])
	r.buf[p] = x
	for n := 1; n <= copies; n++ {
		r.buf[p+n] = perturbedArrival{at: x.at, inj: true}
	}
}
