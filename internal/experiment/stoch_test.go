package experiment

import (
	"reflect"
	"strconv"
	"strings"
	"testing"

	"repro/internal/stoch"
	"repro/internal/trace"
)

func TestStochSweepShape(t *testing.T) {
	tables, err := StochSweep(Quick)
	if err != nil {
		t.Fatal(err)
	}
	if len(tables) != 1 {
		t.Fatalf("tables = %d", len(tables))
	}
	tb := tables[0]
	if len(tb.Rows) != 9 { // 3 dists × 3 modes
		t.Fatalf("rows = %d, want 9", len(tb.Rows))
	}
	col := func(name string) int {
		for i, c := range tb.Columns {
			if c == name {
				return i
			}
		}
		t.Fatalf("column %q missing", name)
		return -1
	}
	relCol, failCol, distCol, modeCol := col("pred_rel_err"), col("fail_rate"), col("dist"), col("mode")
	p999Col := col("att_p999")
	for _, row := range tb.Rows {
		// Relative error is reported per scenario as "mean ± ci".
		rel := row[relCol]
		if !strings.Contains(rel, "±") && rel == "" {
			t.Fatalf("row %v: empty rel_err", row)
		}
		if row[modeCol] == "private" {
			// Cross-task conflicts are impossible; only the rare
			// same-task successor conflict survives (see stochModes).
			if rate, _ := strconv.ParseFloat(row[failCol], 64); rate > 0.01 {
				t.Fatalf("private-object control fail_rate=%s, want ≈ 0", row[failCol])
			}
			if p999, _ := strconv.ParseInt(row[p999Col], 10, 64); p999 > 2 {
				t.Fatalf("private-object control attempt p999 = %d, want ≤ 2", p999)
			}
		}
		if row[modeCol] == "lockbased" && row[failCol] != "0.0000" {
			t.Fatalf("lock-based rows cannot CAS-fail: fail_rate=%s", row[failCol])
		}
	}
	// The stochastic rows must actually preempt more than the
	// deterministic baseline within each mode.
	pre := map[string]int64{}
	preCol := col("preempts")
	for _, row := range tb.Rows {
		v, err := strconv.ParseInt(row[preCol], 10, 64)
		if err != nil {
			t.Fatalf("preempts cell %q: %v", row[preCol], err)
		}
		pre[row[distCol]+"/"+row[modeCol]] = v
	}
	for _, mode := range stochModes {
		if pre["uni/"+mode] <= pre["off/"+mode] && pre["geo/"+mode] <= pre["off/"+mode] {
			t.Fatalf("stochastic plans added no preemptions for %s: off=%d uni=%d geo=%d",
				mode, pre["off/"+mode], pre["uni/"+mode], pre["geo/"+mode])
		}
	}
}

// TestStochTraceDeterminism is the satellite-3 property at the
// experiment layer: a seeded stochastic profile yields byte-identical
// event streams on repeated runs for every engine, and a nil plan is
// bit-identical to a zero plan (the stochastic field is free until
// armed).
func TestStochTraceDeterminism(t *testing.T) {
	plan := stoch.Geo()
	plan.Seed = 7
	withPlan := Quick
	withPlan.Stoch = plan
	zero := Quick
	zero.Stoch = &stoch.Plan{}
	record := func(p Profile, simName string) []trace.Event {
		t.Helper()
		tasks, horizon, err := TraceSetup(p)
		if err != nil {
			t.Fatal(err)
		}
		rec := trace.NewRecorder(0)
		if err := StreamTrace(p, simName, false, 1, tasks, horizon, rec.Record); err != nil {
			t.Fatal(err)
		}
		return rec.Events()
	}
	for _, simName := range []string{TraceSimUni, TraceSimMulti, TraceSimGlobal} {
		a, b := record(withPlan, simName), record(withPlan, simName)
		if !reflect.DeepEqual(a, b) {
			t.Fatalf("%s: stochastic trace not reproducible", simName)
		}
		base, z := record(Quick, simName), record(zero, simName)
		if !reflect.DeepEqual(base, z) {
			t.Fatalf("%s: zero plan diverged from plan-free trace", simName)
		}
		if reflect.DeepEqual(base, a) {
			t.Fatalf("%s: active plan left the trace unchanged", simName)
		}
	}
}
