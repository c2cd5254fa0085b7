package main

import (
	"encoding/json"
	"os"
	"path/filepath"
	"strings"
	"testing"
)

// TestTraceFlightAndProgress drives the full live-introspection path: a
// fault-injected traced run with a flight recorder and progress
// reporting. The stdout summary (including the flight trigger line), the
// flight dump, and the stderr progress stream must all be deterministic;
// the dump must be valid Perfetto JSON.
func TestTraceFlightAndProgress(t *testing.T) {
	if testing.Short() {
		t.Skip("traced quick-profile runs take a few seconds; skipped with -short")
	}
	runOnce := func(dir string) (stdout, stderr string, dump []byte) {
		t.Helper()
		file := filepath.Join(dir, "trace.out")
		var out, errb strings.Builder
		args := []string{
			"-profile", "quick", "-faults", "heavy",
			"-trace", file, "-flight", "64", "-progress",
		}
		if code := run(args, &out, &errb); code != 0 {
			t.Fatalf("rtsim %v exited %d\nstderr: %s", args, code, errb.String())
		}
		buf, err := os.ReadFile(file + ".flight.json")
		if err != nil {
			t.Fatalf("flight dump missing: %v", err)
		}
		return out.String(), errb.String(), buf
	}
	// Same target path both times: stdout embeds the dump path, so it is
	// a pure function of the flags, not of a fresh temp dir per run.
	dir := t.TempDir()
	out1, err1, dump1 := runOnce(dir)
	out2, err2, dump2 := runOnce(dir)
	if out1 != out2 {
		t.Fatalf("stdout not deterministic:\n%s\n---\n%s", out1, out2)
	}
	if err1 != err2 {
		t.Fatalf("progress stream not deterministic:\n%s\n---\n%s", err1, err2)
	}
	if string(dump1) != string(dump2) {
		t.Fatal("flight dump not deterministic")
	}
	if !strings.Contains(out1, "flight: trigger=") {
		t.Fatalf("no flight trigger line on stdout:\n%s", out1)
	}
	var v any
	if err := json.Unmarshal(dump1, &v); err != nil {
		t.Fatalf("flight dump is not valid JSON: %v", err)
	}
	var progress int
	for _, ln := range strings.Split(strings.TrimSuffix(err1, "\n"), "\n") {
		if strings.HasPrefix(ln, "progress t=") {
			progress++
		}
	}
	if progress == 0 {
		t.Fatalf("no progress lines on stderr:\n%s", err1)
	}
}

// TestTraceLimitDropped: a capped recorder must report exactly how much
// it dropped on stdout — truncation is never silent.
func TestTraceLimitDropped(t *testing.T) {
	if testing.Short() {
		t.Skip("traced quick-profile runs take a few seconds; skipped with -short")
	}
	file := filepath.Join(t.TempDir(), "trace.out")
	var out, errb strings.Builder
	args := []string{"-profile", "quick", "-trace", file, "-trace-limit", "10"}
	if code := run(args, &out, &errb); code != 0 {
		t.Fatalf("rtsim %v exited %d\nstderr: %s", args, code, errb.String())
	}
	if !strings.Contains(out.String(), "events=10 dropped=") {
		t.Fatalf("capped trace did not surface its drop count:\n%s", out.String())
	}
}
