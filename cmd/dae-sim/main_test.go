package main

import (
	"context"
	"encoding/json"
	"os"
	"path/filepath"
	"slices"
	"strings"
	"testing"

	daesim "repro"
	"repro/internal/workload"
)

// simArgs is the budget the trace and Request tests run at.
var simArgs = []string{"-threads", "2", "-warmup", "2000", "-measure", "8000"}

// runSim runs dae-sim with args and returns its exit code, stdout and
// stderr.
func runSim(args ...string) (int, string, string) {
	var stdout, stderr strings.Builder
	code := run(args, &stdout, &stderr)
	return code, stdout.String(), stderr.String()
}

// mustRunSim runs dae-sim with args followed by extra and fails the test
// unless it exits 0.
func mustRunSim(t *testing.T, args []string, extra ...string) string {
	t.Helper()
	args = slices.Concat(args, extra)
	code, stdout, stderr := runSim(args...)
	if code != 0 {
		t.Fatalf("dae-sim %v: exit %d, stderr: %s", args, code, stderr)
	}
	return stdout
}

// indentJSON encodes v as dae-sim prints it.
func indentJSON(t *testing.T, v any) string {
	t.Helper()
	b, err := json.MarshalIndent(v, "", "  ")
	if err != nil {
		t.Fatal(err)
	}
	return string(b) + "\n"
}

// TestRequestAndJSONAreTheEngineRun pins dae-sim's output for the flat
// machine and a finite shared L2: -hash is the Request's hash, -request
// prints exactly that Request, and -json exactly the report Engine.Run
// returns for it. dae-router's end-to-end test requires the routed report
// to equal that same Engine.Run, so together they pin that a run through
// the fabric reproduces dae-sim -json byte for byte.
func TestRequestAndJSONAreTheEngineRun(t *testing.T) {
	opts := daesim.RunOpts{WarmupInsts: 2_000, MeasureInsts: 8_000}
	cases := []struct {
		name string
		args []string
		req  daesim.Request
	}{
		{"flat", simArgs, daesim.MixRequest(daesim.Figure2(2), opts)},
		{"shared L2", slices.Concat(simArgs, []string{"-l2size", "65536"}),
			daesim.MixRequest(daesim.Figure2(2).WithHierarchy(64, daesim.SharedL2(65536, 8)), opts)},
	}
	for _, c := range cases {
		t.Run(c.name, func(t *testing.T) {
			if got := mustRunSim(t, c.args, "-hash"); got != c.req.Hash()+"\n" {
				t.Errorf("-hash printed %q, want %s", got, c.req.Hash())
			}
			if got, want := mustRunSim(t, c.args, "-request"), indentJSON(t, c.req); got != want {
				t.Errorf("-request differs from the Request:\ngot:  %s\nwant: %s", got, want)
			}
			eng, err := daesim.NewEngine(daesim.EngineOpts{Workers: 1})
			if err != nil {
				t.Fatal(err)
			}
			rep, err := eng.Run(context.Background(), c.req)
			if err != nil {
				t.Fatal(err)
			}
			if got, want := mustRunSim(t, c.args, "-json"), indentJSON(t, rep); got != want {
				t.Errorf("-json differs from Engine.Run's report:\ngot:  %s\nwant: %s", got, want)
			}
		})
	}
}

// TestTraceReplayMatchesGenerator replays an exported swim container:
// the report must be byte-identical to running the generator directly on
// the same machine, which is the acceptance bar for the whole
// trace-ingestion path.
func TestTraceReplayMatchesGenerator(t *testing.T) {
	path := filepath.Join(t.TempDir(), "swim.dct")
	f, err := os.Create(path)
	if err != nil {
		t.Fatal(err)
	}
	swim, err := workload.ByName("swim")
	if err != nil {
		t.Fatal(err)
	}
	if _, err := workload.ExportTrace(f, swim, 2, 0, 100_000, ""); err != nil {
		t.Fatal(err)
	}
	if err := f.Close(); err != nil {
		t.Fatal(err)
	}
	gen := mustRunSim(t, simArgs, "-bench", "swim", "-json")
	replay := mustRunSim(t, simArgs, "-trace", path, "-json")
	if replay != gen {
		t.Errorf("trace replay report differs from the generator's:\nreplay: %s\ngenerator: %s", replay, gen)
	}
}

// TestLegacyTraceRefused: only containers replay. dae-sim refuses the
// committed legacy fixture and names the command that converts it.
func TestLegacyTraceRefused(t *testing.T) {
	legacy := filepath.Join("..", "..", "internal", "traceio", "testdata", "swim-2k.trace")
	code, stdout, stderr := runSim("-trace", legacy)
	if code == 0 {
		t.Fatalf("dae-sim replayed a legacy file: %s", stdout)
	}
	if !strings.Contains(stderr, "dae-trace import") {
		t.Errorf("stderr %q does not name dae-trace import", stderr)
	}
}

// TestCommandLineErrors: a bad flag exits 2 with the flag package's one
// message, -h exits 0, and a request Validate rejects exits 1, its
// reason printed once.
func TestCommandLineErrors(t *testing.T) {
	cases := []struct {
		args []string
		code int
		want string
	}{
		{[]string{"-bogus"}, 2, "flag provided but not defined: -bogus"},
		{[]string{"-h"}, 0, "Usage of dae-sim"},
		{[]string{"-sample-unit", "500"}, 1, "sampling parameters require sampled mode"},
		{[]string{"-trace", "x.dct", "-seed", "3"}, 1, "seed applies only to generator workloads"},
		{[]string{"-bench", "quake3"}, 1, "quake3"},
	}
	for _, c := range cases {
		code, stdout, stderr := runSim(c.args...)
		if code != c.code || stdout != "" || strings.Count(stderr, c.want) != 1 {
			t.Errorf("%v: exit %d, stdout %q, stderr %q; want exit %d and one %q", c.args, code, stdout, stderr, c.code, c.want)
		}
	}
}
