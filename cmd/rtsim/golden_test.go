package main

import (
	"bytes"
	"crypto/sha256"
	"flag"
	"fmt"
	"os"
	"path/filepath"
	"strconv"
	"testing"
)

var update = flag.Bool("update", false, "rewrite the golden files under testdata")

// rtsimStdout runs the CLI on the quick profile with jobs workers and
// returns its stdout; any non-zero exit fails the test.
func rtsimStdout(t *testing.T, jobs int, args ...string) []byte {
	t.Helper()
	args = append([]string{"-profile", "quick", "-jobs", strconv.Itoa(jobs)}, args...)
	var stdout, stderr bytes.Buffer
	if code := run(args, &stdout, &stderr); code != 0 {
		t.Fatalf("rtsim %v exited %d\nstderr: %s", args, code, stderr.String())
	}
	return stdout.Bytes()
}

// reportManifest runs -report into a fresh directory and returns one
// "name sha256" line per written file, in name order.
func reportManifest(t *testing.T, jobs int) []byte {
	t.Helper()
	dir := t.TempDir()
	rtsimStdout(t, jobs, "-report", dir)
	entries, err := os.ReadDir(dir)
	if err != nil {
		t.Fatal(err)
	}
	var b bytes.Buffer
	for _, e := range entries {
		data, err := os.ReadFile(filepath.Join(dir, e.Name()))
		if err != nil {
			t.Fatal(err)
		}
		fmt.Fprintf(&b, "%s %x\n", e.Name(), sha256.Sum256(data))
	}
	return b.Bytes()
}

// traceManifest writes the raw -trace-format json event stream of every
// {uni,multi,global} x {lockfree,lockbased} x {plain, -faults heavy,
// -stoch geo} traced run and returns one "name sha256" line per stream.
// The streams carry every engine emission, so the manifest pins each
// engine's observable behavior byte for byte.
func traceManifest(t *testing.T, jobs int) []byte {
	t.Helper()
	dir := t.TempDir()
	overlays := []struct {
		name string
		args []string
	}{
		{"plain", nil},
		{"faults_heavy", []string{"-faults", "heavy"}},
		{"stoch_geo", []string{"-stoch", "geo"}},
	}
	var b bytes.Buffer
	for _, simName := range []string{"uni", "multi", "global"} {
		for _, mode := range []string{"lockfree", "lockbased"} {
			for _, o := range overlays {
				name := simName + "_" + mode + "_" + o.name + ".json"
				file := filepath.Join(dir, name)
				args := append([]string{"-trace", file, "-trace-format", "json", "-trace-sim", simName, "-trace-mode", mode}, o.args...)
				rtsimStdout(t, jobs, args...)
				data, err := os.ReadFile(file)
				if err != nil {
					t.Fatal(err)
				}
				fmt.Fprintf(&b, "%s %x\n", name, sha256.Sum256(data))
			}
		}
	}
	return b.Bytes()
}

// TestCLIGoldens pins the exact bytes of every folded CLI output — the
// -metrics digest (plain, fault-injected and stochastic), the -report
// file set, the -check-bounds table, the stoch sweep, the whole quick
// `all` sweep and the raw event stream of every traced engine — at
// -jobs 1 and -jobs 4. Any change to a fold, its merge across seeds, or its
// rendering shows up as a golden diff; regenerate deliberately with
//
//	go test ./cmd/rtsim -run TestCLIGoldens -update
func TestCLIGoldens(t *testing.T) {
	cases := []struct {
		file   string
		render func(t *testing.T, jobs int) []byte
	}{
		{"quick_metrics.txt", func(t *testing.T, jobs int) []byte {
			return rtsimStdout(t, jobs, "-metrics")
		}},
		{"quick_metrics_faults_light.txt", func(t *testing.T, jobs int) []byte {
			return rtsimStdout(t, jobs, "-faults", "light", "-metrics")
		}},
		{"quick_metrics_stoch_uni_seed5.txt", func(t *testing.T, jobs int) []byte {
			return rtsimStdout(t, jobs, "-stoch", "uni", "-stoch-seed", "5", "-metrics")
		}},
		{"quick_report.sha256", reportManifest},
		{"quick_check_bounds.txt", func(t *testing.T, jobs int) []byte {
			return rtsimStdout(t, jobs, "-check-bounds")
		}},
		{"quick_stoch.txt", func(t *testing.T, jobs int) []byte {
			return rtsimStdout(t, jobs, "stoch")
		}},
		{"quick_all.txt", func(t *testing.T, jobs int) []byte {
			return rtsimStdout(t, jobs, "all")
		}},
		{"quick_traces.sha256", traceManifest},
	}
	for _, c := range cases {
		t.Run(c.file, func(t *testing.T) {
			path := filepath.Join("testdata", c.file)
			for _, jobs := range []int{1, 4} {
				got := c.render(t, jobs)
				if *update && jobs == 1 {
					if err := os.MkdirAll("testdata", 0o755); err != nil {
						t.Fatal(err)
					}
					if err := os.WriteFile(path, got, 0o644); err != nil {
						t.Fatal(err)
					}
				}
				want, err := os.ReadFile(path)
				if err != nil {
					t.Fatalf("%v (run with -update to create)", err)
				}
				if !bytes.Equal(got, want) {
					t.Errorf("-jobs %d: %s differs from golden (run with -update after a deliberate change)\n--- got ---\n%s",
						jobs, c.file, got)
				}
			}
		})
	}
}
