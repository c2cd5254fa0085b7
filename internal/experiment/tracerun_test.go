package experiment

import (
	"testing"

	"repro/internal/fault"
	"repro/internal/rtime"
	"repro/internal/stoch"
	"repro/internal/trace"
)

// traceProfiles returns the property-suite grid: the plain quick
// profile (two seeds, so cross-seed merges run) plus fault-injected and
// stochastic-scheduler variants, so the online folds face sheds,
// aborts, injected retries, and quantum preemptions — every event kind
// the engines emit.
func traceProfiles(t *testing.T) map[string]Profile {
	t.Helper()
	fp, err := fault.ParsePlan("heavy")
	if err != nil {
		t.Fatal(err)
	}
	sp, err := stoch.ParsePlan("geo")
	if err != nil {
		t.Fatal(err)
	}
	plain := Quick
	plain.Seeds = []int64{1, 2}
	faulty := plain
	faulty.Fault = fp
	stochastic := plain
	stochastic.Stoch = sp
	return map[string]Profile{"plain": plain, "fault": faulty, "stoch": stochastic}
}

// TestObserverStreamsOrdered pins the contract the whole streaming
// pipeline rests on: every engine's observer stream is nondecreasing in
// Event.At — including the partitioned engine, whose per-CPU streams
// are merged in lockstep — under fault injection and stochastic
// scheduling alike.
func TestObserverStreamsOrdered(t *testing.T) {
	for _, simName := range []string{TraceSimUni, TraceSimMulti, TraceSimGlobal} {
		for _, lockBased := range []bool{false, true} {
			for _, prof := range []string{"plain", "fault", "stoch"} {
				p := traceProfiles(t)[prof]
				tasks, horizon, err := TraceSetup(p)
				if err != nil {
					t.Fatal(err)
				}
				var last rtime.Time
				var events int
				bad := 0
				obs := func(e trace.Event) {
					if e.At < last {
						bad++
					}
					last = e.At
					events++
				}
				if err := StreamTrace(p, simName, lockBased, p.Seeds[0], tasks, horizon, obs); err != nil {
					t.Fatalf("%s lb=%v %s: %v", simName, lockBased, prof, err)
				}
				if events == 0 {
					t.Fatalf("%s lb=%v %s: no events", simName, lockBased, prof)
				}
				if bad != 0 {
					t.Fatalf("%s lb=%v %s: %d of %d events out of order", simName, lockBased, prof, bad, events)
				}
			}
		}
	}
}
