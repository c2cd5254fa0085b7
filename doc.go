// Package repro reproduces "Lock-Free Synchronization for Dynamic
// Embedded Real-Time Systems" (Cho, Ravindran, Jensen — DATE 2006 and its
// extended 2007 version): lock-free retry bounds under the unimodal
// arbitrary arrival model with utility-accrual (RUA) scheduling, the
// lock-free vs lock-based sojourn/AUR tradeoffs, and the paper's full
// RTOS evaluation re-run on a deterministic discrete-event substrate.
//
// Layout:
//
//	internal/core        high-level builder API (examples' front door)
//	internal/rua         lock-based and lock-free RUA schedulers (§3, §5)
//	internal/analysis    Theorems 2/3, Lemmas 4/5, interference and
//	                     UAM demand-bound schedulability in closed form
//	internal/sim         discrete-event RTOS substrate: one engine kernel
//	                     under a uniprocessor and a global
//	                     multiprocessor (§7) dispatch policy
//	internal/multi       partitioned multiprocessor extension (§7)
//	internal/tuf,uam     time/utility functions; UAM arrival model
//	internal/task        jobs, segments, lock boundaries, abort handlers
//	internal/resource    lock ownership / commit tracking
//	internal/sched       scheduler interface; EDF, EDF-PIP, LLF, LBESA
//	internal/lockfree    real atomics-based MS queue and MWMR register
//	internal/lockobj     their mutex twins for the Fig 8 microbenchmarks
//	internal/trace       event log, ASCII timelines, JSON export
//	internal/metrics     AUR, CMR, CML, AL, per-task stats, 95% CIs
//	internal/experiment  per-figure regeneration harness + extensions
//	cmd/rtsim            regenerate any figure: rtsim fig9
//	cmd/uamgen           UAM trace generator/validator/statistics
//	cmd/retrybound       analytic bound calculator + schedulability
//	examples/            quickstart, tracker, rover, retrybound,
//	                     timeline, multicore
//
// See DESIGN.md for the system inventory and EXPERIMENTS.md for
// paper-vs-measured results.
package repro
