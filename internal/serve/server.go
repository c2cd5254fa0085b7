package serve

import (
	"context"
	"fmt"
	"net/http"
	"sync"

	"repro/internal/artifact"
	"repro/internal/obs"
	"repro/internal/report"
	"repro/internal/rtime"
)

// Config sizes the daemon. Zero values select the defaults below.
type Config struct {
	// Queue bounds the admission queue: submissions past this many
	// pending runs are rejected with 429 + Retry-After instead of
	// buffering without limit — the same shedding philosophy the RUA
	// admission controller applies to provably-doomed jobs.
	Queue int // default 16

	// Workers is the number of runs executing concurrently; each run is
	// isolated (its own Profile, recorder, and pipeline — engines share
	// nothing mutable across runs).
	Workers int // default 2

	// Jobs is the per-run worker-pool width handed to the experiment
	// sweeps (rtsim -jobs). Output bytes are identical for any value.
	Jobs int // default 0 = one per CPU

	// Cache bounds the result cache (entries); negative disables
	// caching. Keys are (canonical spec, Version), so hits are exact.
	Cache int // default 64
}

// runState is a run's lifecycle phase.
type runState string

// Run lifecycle states. Every accepted run terminates in StateDone,
// StateFailed, or StateShed — the admission property the stress suite
// asserts.
const (
	StateQueued  runState = "queued"
	StateRunning runState = "running"
	StateDone    runState = "done"
	StateFailed  runState = "failed"
	StateShed    runState = "shed" // drained before execution began
)

// terminal reports whether st is a final state.
func terminal(st runState) bool {
	return st == StateDone || st == StateFailed || st == StateShed
}

// Event is one NDJSON progress record of a run's event feed. Progress
// events carry the obs.Pipeline snapshot fields; the feed is
// deterministic for a given spec (virtual-time paced, no wall clock).
type Event struct {
	Seq  int    `json:"seq"`
	Kind string `json:"kind"` // queued|cached|started|progress|artifact|done|failed|shed

	// Snapshot fields (kind=progress), straight from obs.Snapshot.
	TUS        int64 `json:"t_us,omitempty"`
	Events     int64 `json:"events,omitempty"`
	Commits    int64 `json:"commits,omitempty"`
	Retries    int64 `json:"retries,omitempty"`
	Sheds      int64 `json:"sheds,omitempty"`
	P99Attempt int64 `json:"p99_attempt,omitempty"`
	Live       int   `json:"live,omitempty"`

	Name  string `json:"name,omitempty"`  // artifact name (kind=artifact)
	Error string `json:"error,omitempty"` // failure reason (kind=failed)
}

// Run is one accepted scenario execution.
type Run struct {
	ID   string
	Spec *Spec
	key  string

	mu   sync.Mutex
	cond *sync.Cond

	state    runState
	cacheHit bool
	errMsg   string
	files    []report.File
	events   []Event
}

// newRun builds a run in the queued state.
func newRun(id string, spec *Spec, key string) *Run {
	r := &Run{ID: id, Spec: spec, key: key, state: StateQueued}
	r.cond = sync.NewCond(&r.mu)
	r.events = append(r.events, Event{Seq: 0, Kind: string(StateQueued)})
	return r
}

// addEvent appends one event (assigning its sequence number) and wakes
// streamers.
func (r *Run) addEvent(e Event) {
	r.mu.Lock()
	e.Seq = len(r.events)
	r.events = append(r.events, e)
	r.cond.Broadcast()
	r.mu.Unlock()
}

// setState transitions the run and emits the matching event.
func (r *Run) setState(st runState, errMsg string) {
	r.mu.Lock()
	r.state = st
	r.errMsg = errMsg
	e := Event{Seq: len(r.events), Kind: string(st), Error: errMsg}
	r.events = append(r.events, e)
	r.cond.Broadcast()
	r.mu.Unlock()
}

// snapshot returns the run's state under its lock: state, error,
// artifact names, event count, and the latest progress event (ok=false
// when none yet).
func (r *Run) snapshot() (st runState, errMsg string, names []string, events int, last Event, ok bool) {
	r.mu.Lock()
	defer r.mu.Unlock()
	st, errMsg, events = r.state, r.errMsg, len(r.events)
	for _, f := range r.files {
		names = append(names, f.Name)
	}
	for i := len(r.events) - 1; i >= 0; i-- {
		if r.events[i].Kind == "progress" {
			return st, errMsg, names, events, r.events[i], true
		}
	}
	return st, errMsg, names, events, Event{}, false
}

// artifactData returns a served artifact's bytes by name.
func (r *Run) artifactData(name string) ([]byte, bool) {
	r.mu.Lock()
	defer r.mu.Unlock()
	for _, f := range r.files {
		if f.Name == name {
			return f.Data, true
		}
	}
	return nil, false
}

// CacheStats are the exact result-cache counters.
type CacheStats struct {
	Hits   int64 `json:"hits"`
	Misses int64 `json:"misses"`
	Size   int   `json:"size"`
	Cap    int   `json:"cap"`
}

// Stats is the daemon's introspection surface (/api/v1/statz).
type Stats struct {
	Version  string `json:"version"`
	Accepted int64  `json:"accepted"` // queued or served from cache
	Rejected int64  `json:"rejected"` // 429s
	Done     int64  `json:"done"`
	Failed   int64  `json:"failed"`
	Shed     int64  `json:"shed"`

	QueueDepth    int  `json:"queue_depth"`
	QueueCap      int  `json:"queue_cap"`
	MaxQueueDepth int  `json:"max_queue_depth"` // high-water mark; never exceeds QueueCap
	Running       int  `json:"running"`
	Draining      bool `json:"draining"`

	Cache CacheStats `json:"cache"`
}

// cache is the bounded result cache: FIFO eviction over exact keys.
// Guarded by the server mutex.
type cache struct {
	max     int
	entries map[string][]report.File
	order   []string // insertion order for eviction
	hits    int64
	misses  int64
}

func (c *cache) get(key string) ([]report.File, bool) {
	if c.max <= 0 {
		c.misses++
		return nil, false
	}
	files, ok := c.entries[key]
	if ok {
		c.hits++
		return files, true
	}
	c.misses++
	return nil, false
}

func (c *cache) put(key string, files []report.File) {
	if c.max <= 0 {
		return
	}
	if _, ok := c.entries[key]; ok {
		return
	}
	for len(c.order) >= c.max {
		delete(c.entries, c.order[0])
		c.order = c.order[1:]
	}
	c.entries[key] = files
	c.order = append(c.order, key)
}

// Server is the rtsimd daemon core: admission, execution, caching, and
// the HTTP surface (it implements http.Handler; see http.go).
type Server struct {
	cfg Config
	mux *http.ServeMux

	queue chan *Run
	wg    sync.WaitGroup

	mu       sync.Mutex
	runs     map[string]*Run
	order    []string // run ids in admission order
	seq      int
	draining bool
	shedAll  bool // drain deadline passed: shed instead of execute
	cache    cache

	rejected int64
	done     int64
	failed   int64
	shed     int64
	running  int
	maxDepth int
}

// New builds and starts a server: its workers are live and it is ready
// to ServeHTTP. Stop it with Drain.
func New(cfg Config) *Server {
	if cfg.Queue <= 0 {
		cfg.Queue = 16
	}
	if cfg.Workers <= 0 {
		cfg.Workers = 2
	}
	if cfg.Cache == 0 {
		cfg.Cache = 64
	}
	s := &Server{
		cfg:   cfg,
		queue: make(chan *Run, cfg.Queue),
		runs:  map[string]*Run{},
		cache: cache{max: cfg.Cache, entries: map[string][]report.File{}},
	}
	s.routes()
	s.wg.Add(cfg.Workers)
	for i := 0; i < cfg.Workers; i++ {
		go s.worker()
	}
	return s
}

// Submit admission-controls one canonical spec. Outcomes:
//
//   - cache hit: a run born StateDone with the cached artifacts, 200;
//   - accepted: a queued run, 202;
//   - queue full: nil run, 429 (the caller adds Retry-After);
//   - draining: nil run, 503.
func (s *Server) Submit(spec *Spec) (*Run, int) {
	key := spec.CacheKey()
	s.mu.Lock()
	defer s.mu.Unlock()
	if s.draining {
		return nil, http.StatusServiceUnavailable
	}
	if files, ok := s.cache.get(key); ok {
		run := newRun(s.nextIDLocked(), spec, key)
		run.cacheHit = true
		run.files = files
		run.state = StateDone
		run.events = append(run.events, Event{Seq: 1, Kind: "cached"})
		for _, f := range files {
			run.events = append(run.events, Event{Seq: len(run.events), Kind: "artifact", Name: f.Name})
		}
		run.events = append(run.events, Event{Seq: len(run.events), Kind: string(StateDone)})
		s.registerLocked(run)
		s.done++
		return run, http.StatusOK
	}
	run := newRun(s.nextIDLocked(), spec, key)
	select {
	case s.queue <- run:
		if d := len(s.queue); d > s.maxDepth {
			s.maxDepth = d
		}
		s.registerLocked(run)
		return run, http.StatusAccepted
	default:
		s.rejected++
		return nil, http.StatusTooManyRequests
	}
}

// nextIDLocked mints the next admission-ordered run id.
func (s *Server) nextIDLocked() string {
	s.seq++
	return fmt.Sprintf("r%08d", s.seq)
}

func (s *Server) registerLocked(run *Run) {
	s.runs[run.ID] = run
	s.order = append(s.order, run.ID)
}

// Get returns a run by id.
func (s *Server) Get(id string) (*Run, bool) {
	s.mu.Lock()
	defer s.mu.Unlock()
	run, ok := s.runs[id]
	return run, ok
}

// RunIDs returns every run id in admission order.
func (s *Server) RunIDs() []string {
	s.mu.Lock()
	defer s.mu.Unlock()
	return append([]string(nil), s.order...)
}

// Stats snapshots the daemon counters.
func (s *Server) Stats() Stats {
	s.mu.Lock()
	defer s.mu.Unlock()
	return Stats{
		Version:       Version,
		Accepted:      int64(s.seq),
		Rejected:      s.rejected,
		Done:          s.done,
		Failed:        s.failed,
		Shed:          s.shed,
		QueueDepth:    len(s.queue),
		QueueCap:      s.cfg.Queue,
		MaxQueueDepth: s.maxDepth,
		Running:       s.running,
		Draining:      s.draining,
		Cache: CacheStats{
			Hits: s.cache.hits, Misses: s.cache.misses,
			Size: len(s.cache.entries), Cap: s.cache.max,
		},
	}
}

// Drain stops admission (new submissions see 503), lets in-flight runs
// finish, and executes the queued backlog — unless ctx expires first,
// at which point the remaining backlog is explicitly shed (each shed
// run reaches StateShed; nothing is silently dropped). Always waits
// for the workers to exit; safe to call more than once.
func (s *Server) Drain(ctx context.Context) error {
	s.mu.Lock()
	if !s.draining {
		s.draining = true
		// Submissions hold s.mu and check draining before sending, so
		// closing under the same lock cannot race a send.
		close(s.queue)
	}
	s.mu.Unlock()
	done := make(chan struct{})
	go func() {
		s.wg.Wait()
		close(done)
	}()
	select {
	case <-done:
		return nil
	case <-ctx.Done():
		s.mu.Lock()
		s.shedAll = true
		s.mu.Unlock()
		<-done
		return ctx.Err()
	}
}

// worker executes queued runs until the queue closes at drain.
func (s *Server) worker() {
	defer s.wg.Done()
	for run := range s.queue {
		s.mu.Lock()
		shed := s.shedAll
		if !shed {
			s.running++
		}
		s.mu.Unlock()
		if shed {
			run.setState(StateShed, "")
			s.mu.Lock()
			s.shed++
			s.mu.Unlock()
			continue
		}
		s.execute(run)
		s.mu.Lock()
		s.running--
		s.mu.Unlock()
	}
}

// execute runs one scenario through the shared artifact builders and
// finishes the run. Artifacts land in the cache only on full success.
func (s *Server) execute(run *Run) {
	run.mu.Lock()
	run.state = StateRunning
	run.mu.Unlock()
	run.addEvent(Event{Kind: "started"})

	files, err := s.buildArtifacts(run)
	if err != nil {
		run.mu.Lock()
		run.files = nil
		run.mu.Unlock()
		run.setState(StateFailed, err.Error())
		s.mu.Lock()
		s.failed++
		s.mu.Unlock()
		return
	}
	run.mu.Lock()
	run.files = files
	run.mu.Unlock()
	for _, f := range files {
		run.addEvent(Event{Kind: "artifact", Name: f.Name})
	}
	run.setState(StateDone, "")
	s.mu.Lock()
	s.cache.put(run.key, files)
	s.done++
	s.mu.Unlock()
}

// buildArtifacts renders every artifact the spec requests, in the
// fixed order trace → report → metrics, via the exact builders the
// rtsim CLI runs — the conformance contract.
func (s *Server) buildArtifacts(run *Run) ([]report.File, error) {
	spec := run.Spec
	p, err := spec.BuildProfile(s.cfg.Jobs)
	if err != nil {
		return nil, err
	}
	var files []report.File
	if spec.Trace != nil {
		t := spec.Trace
		o := artifact.TraceOptions{
			Sim: t.Sim, Mode: t.Mode, Format: t.Format,
			Limit: t.Limit, Flight: t.Flight,
			OnProgress: func(mark rtime.Time, snap obs.Snapshot) {
				run.addEvent(Event{
					Kind: "progress", TUS: mark.Micros(),
					Events: snap.Events, Commits: snap.Commits,
					Retries: snap.Retries, Sheds: snap.Sheds,
					P99Attempt: snap.AttemptP99, Live: snap.LiveJobs,
				})
			},
		}
		tr, err := artifact.BuildTrace(p, o)
		if err != nil {
			return nil, err
		}
		name := traceArtifactName(t.Format)
		dumpName := name + ".flight.json"
		files = append(files, report.File{Name: name, Data: tr.Data})
		if tr.FlightDump != nil {
			files = append(files, report.File{Name: dumpName, Data: tr.FlightDump})
		}
		files = append(files, report.File{Name: "trace.summary.txt", Data: []byte(tr.Summary(name, dumpName))})
	}
	if spec.Report != nil {
		set, err := artifact.BuildReportSet(p, spec.Report.Figs, false)
		if err != nil {
			return nil, err
		}
		files = append(files, set.Files...)
	}
	if spec.Metrics {
		digest, err := artifact.BuildMetrics(p, false)
		if err != nil {
			return nil, err
		}
		files = append(files, report.File{Name: "metrics.txt", Data: digest})
	}
	return files, nil
}
