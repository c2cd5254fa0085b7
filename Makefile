GO ?= go

.PHONY: all build test race race-all stress vet lint bench trace-demo \
	check-bounds report metrics bench-baseline bench-diff profile profile-layers \
	fuzz-smoke scale-smoke stoch-smoke obs-smoke serve-smoke full-golden examples

all: build vet lint test

build:
	$(GO) build ./...

test:
	$(GO) test ./...

# Run every examples/ program end to end; the first nonzero exit fails
# the target. `go build` alone would not catch a program that builds but
# errors at run time (examples/multicore drives both multi-CPU engines).
examples:
	@for d in examples/*/; do \
		echo "== $$d"; \
		$(GO) run ./$$d || exit 1; \
	done

# The parallel experiment engine and the sweeps it drives must be
# race-clean: runs share task templates read-only and merge by index.
race:
	$(GO) test -race ./internal/runner/... ./internal/experiment/...

# Full race sweep, twice: -count=2 defeats test caching and shakes out
# order-dependent interleavings in the engines, the fault properties and
# the lock-free queue and register stress tests.
race-all:
	$(GO) test -race -count=2 ./...

# Just the lock-free queue and register stress tests (TestStressQueue,
# TestStressRegister), full-size, under -race.
stress:
	$(GO) test -race -run TestStress -count=2 ./internal/lockfree/

vet:
	$(GO) vet ./...

# rtlint (cmd/rtlint, analyzers in internal/lint) mechanically enforces
# the determinism/atomics/aliasing/allocation invariants the paper's
# event-sequence and zero-alloc claims rest on. Any finding fails the
# build; deliberate exceptions carry a justified //rtlint:ignore
# directive. RTLINT_FORMAT selects the output format:
# `make lint RTLINT_FORMAT=sarif` is what CI archives.
# The gofmt check lists every unformatted Go file outside testdata
# (analyzer fixtures keep their own layout) and dot directories; any
# listed file fails the target.
RTLINT_FORMAT ?= text
GOFMT ?= gofmt
lint: vet
	@unformatted=$$(find . -name '*.go' -not -path '*/testdata/*' -not -path './.*' | xargs $(GOFMT) -l); \
	if [ -n "$$unformatted" ]; then echo "gofmt -l lists:"; echo "$$unformatted"; exit 1; fi
	$(GO) run ./cmd/rtlint -format $(RTLINT_FORMAT) ./...

bench:
	$(GO) test -run NONE -bench . -benchmem .

# One n=10⁴ uniprocessor run on the clustered scale workload (single
# seed, phased arrivals): proves the 10⁴-task configuration completes
# quickly and stays at CMR ≥ 0.9 without paying for the full sweep.
scale-smoke:
	$(GO) test -short -run TestScaleSmoke -v ./internal/experiment/

# Stochastic-scheduler smoke: the seeded stoch sweep (scheduler
# distribution × synchronization discipline × seeds) must be
# byte-identical for any -jobs value, and the throughput predictor must
# fit (the digest carries the per-run alpha/beta/rel_err line). The e2e
# twin is cmd/rtsim's TestStochDeterminismAcrossJobs.
stoch-smoke:
	$(GO) run ./cmd/rtsim -profile quick -jobs 1 -stoch geo -stoch-seed 7 -metrics > stoch-j1.txt
	$(GO) run ./cmd/rtsim -profile quick -jobs 4 -stoch geo -stoch-seed 7 -metrics > stoch-j4.txt
	$(GO) run ./cmd/rtsim -profile quick -jobs 1 stoch >> stoch-j1.txt
	$(GO) run ./cmd/rtsim -profile quick -jobs 4 stoch >> stoch-j4.txt
	cmp stoch-j1.txt stoch-j4.txt
	grep -q "predictor" stoch-j1.txt
	grep -q "pred_rel_err" stoch-j1.txt
	@echo "stoch smoke OK: cross-jobs identical, predictor fitted"

# Observability smoke: (1) a long-horizon n=10⁴ run with the full
# online pipeline attached — flight recorder, deterministic progress
# stream, online span/series folds, no event buffering; (2) the
# -metrics digest at -jobs 4 must be byte-identical to the committed
# golden (cmd/rtsim TestCLIGoldens pins the rest); (3) the steady-state
# sink path must report 0 B/op and 0 allocs/op over a fixed 10^6 events,
# each matched as a whole field (so 10 B/op does not pass). The unit
# twins live in internal/obs and internal/experiment.
obs-smoke:
	$(GO) test -run TestObsSmoke -v ./internal/experiment/
	$(GO) run ./cmd/rtsim -profile quick -jobs 4 -metrics > obs-metrics.txt
	cmp obs-metrics.txt cmd/rtsim/testdata/quick_metrics.txt
	$(GO) test -run NONE -bench BenchmarkPipelineObserve -benchmem -benchtime=1000000x ./internal/obs/ | tee obs-bench.txt
	awk '$$1 ~ /^BenchmarkPipelineObserve/ { n++; for (i = 2; i < NF; i++) { \
	  if ($$i == "0" && $$(i+1) == "B/op") b++; if ($$i == "0" && $$(i+1) == "allocs/op") a++ } } \
	  END { exit !(n > 0 && b == n && a == n) }' obs-bench.txt
	@echo "obs smoke OK: digest byte-identical to the golden, sink path 0 B/op, 0 allocs/op"

# Full-profile byte guard: the whole `all` sweep on the full profile
# must reproduce the committed experiments_full.txt exactly. It takes
# minutes, so it is a manual or nightly check, not part of `make test`;
# cmd/rtsim TestCLIGoldens is the quick twin. Output is identical for
# any -jobs; -jobs 1 keeps the full scale sweep's heap to one n=10^5
# run at a time (at -jobs 4 it outgrew an 8 GB host), and the soft
# GOMEMLIMIT holds that run near 2.5 GB without changing any output.
full-golden:
	GOMEMLIMIT=2500MiB $(GO) run ./cmd/rtsim -profile full -jobs 1 all > full-golden.txt
	cmp full-golden.txt experiments_full.txt
	@echo "full golden OK: full-profile sweep byte-identical to experiments_full.txt"

# Trace the canonical workload on the uniprocessor engine and export it
# in the Chrome trace-event format: drag trace.json onto ui.perfetto.dev
# to browse per-task, per-CPU, and scheduler tracks. Try
# -trace-sim global / -trace-mode lockbased for the other engines, or
# -trace-format spans for a per-job text digest.
trace-demo:
	$(GO) run ./cmd/rtsim -profile quick -trace trace.json -trace-format perfetto
	@echo "wrote trace.json — open it at https://ui.perfetto.dev"

# Overlay the Theorem 2 retry bound and Theorem 3 sojourn composition on
# traced runs of the whole suite; any violation exits non-zero.
check-bounds:
	$(GO) run ./cmd/rtsim -profile quick -check-bounds

# Fold the canonical workload on every simulator × mode and print the
# distribution digest (p50/p95/p99/max next to each mean, Theorem 2/3
# bounds alongside).
metrics:
	$(GO) run ./cmd/rtsim -profile quick -metrics

# Full report: per-distribution and per-window CSVs plus a
# self-contained report/report.html with inline SVG charts. The listed
# experiments become the report's figure sections.
report:
	$(GO) run ./cmd/rtsim -profile quick -report report fig9 fig10 fig11 fig12 fig13 fig14 faults
	@echo "wrote report/report.html — open it in any browser"

# Refresh the committed wall-clock baseline cmd/benchdiff compares CI
# runs against. Absolute seconds are machine-specific; benchdiff
# -normalize compares per-experiment shares, so a baseline from any
# reasonably fast machine works.
bench-baseline:
	$(GO) run ./cmd/rtsim -profile quick -bench-json BENCH_PR8.json all > /dev/null

# Compare a fresh timing run against the committed baseline; exits
# non-zero past a 2x relative regression.
bench-diff:
	$(GO) run ./cmd/rtsim -profile quick -bench-json bench-current.json all > /dev/null
	$(GO) run ./cmd/benchdiff -normalize -min 0.05 -fail 2.0 BENCH_PR8.json bench-current.json

# Short coverage-guided fuzz of every native fuzz target (committed
# corpora under */testdata/fuzz seed each run). Go allows one -fuzz
# target per invocation, so each gets its own line; FUZZTIME scales the
# smoke to budget.
FUZZTIME ?= 10s
fuzz-smoke:
	$(GO) test -run NONE -fuzz '^FuzzParse$$' -fuzztime $(FUZZTIME) ./cmd/benchdiff
	$(GO) test -run NONE -fuzz '^FuzzBuild$$' -fuzztime $(FUZZTIME) ./internal/trace/span
	$(GO) test -run NONE -fuzz '^FuzzStepConservation$$' -fuzztime $(FUZZTIME) ./internal/task
	$(GO) test -run NONE -fuzz '^FuzzValidateNoPanic$$' -fuzztime $(FUZZTIME) ./internal/task
	$(GO) test -run NONE -fuzz '^FuzzGenerateSatisfiesSpec$$' -fuzztime $(FUZZTIME) ./internal/uam
	$(GO) test -run NONE -fuzz '^FuzzCheckTraceNoPanic$$' -fuzztime $(FUZZTIME) ./internal/uam
	$(GO) test -run NONE -fuzz '^FuzzIgnoreDirective$$' -fuzztime $(FUZZTIME) ./internal/lint
	$(GO) test -run NONE -fuzz '^FuzzSpecDecode$$' -fuzztime $(FUZZTIME) ./internal/serve
	$(GO) test -run NONE -fuzz '^FuzzScheduleRollback$$' -fuzztime $(FUZZTIME) ./internal/rua
	$(GO) test -run NONE -fuzz '^FuzzEventOrder$$' -fuzztime $(FUZZTIME) ./internal/sim
	$(GO) test -run NONE -fuzz '^FuzzArrivalStream$$' -fuzztime $(FUZZTIME) ./internal/sim
	$(GO) test -run NONE -fuzz '^FuzzHistMatchesSorted$$' -fuzztime $(FUZZTIME) ./internal/metrics/hist
	$(GO) test -run NONE -fuzz '^FuzzFixedMatchesStrconv$$' -fuzztime $(FUZZTIME) ./internal/report

# Serving-mode smoke: boot rtsimd, submit a fault-injected trace spec
# twice over real HTTP (the second must be an exact cache hit), stream
# the NDJSON feed to completion, download the served artifacts, and
# diff every byte against the batch rtsim invocation of the same
# scenario — the daemon/CLI conformance contract end to end.
serve-smoke:
	$(GO) build -o rtsimd.smoke ./cmd/rtsimd
	$(GO) build -o rtsim.smoke ./cmd/rtsim
	rm -rf serve-smoke-out && mkdir -p serve-smoke-out/served serve-smoke-out/batch
	sh -ec '\
	  ./rtsimd.smoke -addr 127.0.0.1:18089 -workers 1 -drain-timeout 10s > serve-smoke-out/rtsimd.log 2>&1 & pid=$$!; \
	  trap "kill $$pid 2>/dev/null || true" EXIT; \
	  for i in $$(seq 1 50); do curl -fs http://127.0.0.1:18089/healthz >/dev/null 2>&1 && break; sleep 0.2; done; \
	  spec="{\"faults\":\"light\",\"fault_seed\":7,\"trace\":{\"format\":\"perfetto\",\"flight\":256}}"; \
	  curl -fs -X POST -d "$$spec" http://127.0.0.1:18089/api/v1/runs > serve-smoke-out/submit1.json; \
	  curl -fs http://127.0.0.1:18089/api/v1/runs/r00000001/events > serve-smoke-out/events.ndjson; \
	  grep -q "\"kind\":\"done\"" serve-smoke-out/events.ndjson; \
	  curl -fs -X POST -d "$$spec" http://127.0.0.1:18089/api/v1/runs > serve-smoke-out/submit2.json; \
	  grep -q "\"cache\":\"hit\"" serve-smoke-out/submit2.json; \
	  for a in trace.perfetto.json trace.perfetto.json.flight.json trace.summary.txt; do \
	    curl -fs http://127.0.0.1:18089/api/v1/runs/r00000001/artifacts/$$a > serve-smoke-out/served/$$a; \
	  done; \
	  curl -fs http://127.0.0.1:18089/api/v1/statz > serve-smoke-out/statz.json; \
	  grep -q "\"hits\":1" serve-smoke-out/statz.json; \
	  grep -q "\"misses\":1" serve-smoke-out/statz.json'
	cd serve-smoke-out/batch && ../../rtsim.smoke -profile quick -faults light -fault-seed 7 \
	  -flight 256 -trace trace.perfetto.json -trace-format perfetto > trace.summary.txt
	cmp serve-smoke-out/served/trace.perfetto.json serve-smoke-out/batch/trace.perfetto.json
	cmp serve-smoke-out/served/trace.perfetto.json.flight.json serve-smoke-out/batch/trace.perfetto.json.flight.json
	cmp serve-smoke-out/served/trace.summary.txt serve-smoke-out/batch/trace.summary.txt
	@echo "serve smoke OK: served bytes byte-identical to batch, cache counters exact"

# Layer budget of two engine benchmarks: one n=10⁴ uniprocessor run
# (BenchmarkScaleEngineRun/n=10000: arrival setup and the event loop)
# and the overload twin (BenchmarkOverloadEngineRun: ten tasks at AL 1.2
# for 400 windows, both modes, observed: RUA passes and the obs fold).
# Each is CPU- and heap-profiled over 20 runs, and a table per benchmark
# prints, per layer, the share of all CPU samples and of all allocated
# bytes (alloc_space) whose stack passes through it (pprof -top -focus).
# Layers nest (sim.New calls into uam, task and tuf), so shares add up
# to more than 100%. The test binary and profiles stay in the gitignored
# .profile-layers/; inspect them with `go tool pprof
# .profile-layers/repro.test .profile-layers/scale.cpu.pprof` (or a
# mem.pprof with -sample_index=alloc_space).
PROFILE_LAYERS = experiment task tuf uam sim rtime/wheel rua resource obs
profile-layers:
	@mkdir -p .profile-layers
	$(GO) test -c -o .profile-layers/repro.test .
	@share() { $(GO) tool pprof -top -nodefraction=0 -sample_index="$$2" -focus="$$1" .profile-layers/repro.test \
	  .profile-layers/$$3 2>/dev/null | awk '/^Showing nodes accounting for/ { sub(",", "", $$6); print $$6 }'; }; \
	total() { $(GO) tool pprof -top -sample_index="$$1" .profile-layers/repro.test .profile-layers/$$2 2>/dev/null | \
	  awk '/^Showing nodes accounting for/ { print $$8 }'; }; \
	for run in 'scale:^BenchmarkScaleEngineRun$$/^n=10000$$' 'overload:^BenchmarkOverloadEngineRun$$'; do \
	  b=$${run%%:*}; \
	  ./.profile-layers/repro.test -test.run NONE -test.bench "$${run#*:}" -test.benchtime 20x \
	    -test.outputdir .profile-layers -test.cpuprofile $$b.cpu.pprof -test.memprofile $$b.mem.pprof \
	    -test.memprofilerate 4096 > /dev/null || exit 1; \
	  printf '\n%s\n\n| layer | CPU share | alloc_space share |\n|---|---|---|\n' "$$b"; \
	  for l in $(PROFILE_LAYERS); do \
	    printf '| %s | %s | %s |\n' "\`$$l\`" "$$(share "^repro/internal/$$l\." cpu $$b.cpu.pprof)" \
	      "$$(share "^repro/internal/$$l\." alloc_space $$b.mem.pprof)"; \
	  done; \
	  printf '| runtime GC/malloc | %s | — |\n' \
	    "$$(share '^runtime\.(mallocgc|gcBgMarkWorker|gcAssistAlloc|bgsweep|bgscavenge)$$' cpu $$b.cpu.pprof)"; \
	  printf '| total of 20 runs | %s | %s |\n' "$$(total cpu $$b.cpu.pprof)" "$$(total alloc_space $$b.mem.pprof)"; \
	done

# CPU + heap profiles of the canonical metrics fold; inspect with
# `go tool pprof cpu.pprof`.
profile:
	$(GO) run ./cmd/rtsim -profile quick -cpuprofile cpu.pprof -memprofile mem.pprof -metrics > /dev/null
	@echo "wrote cpu.pprof and mem.pprof — inspect with: go tool pprof cpu.pprof"
