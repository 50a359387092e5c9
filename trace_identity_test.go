package daesim

import (
	"encoding/json"
	"errors"
	"os"
	"path/filepath"
	"strings"
	"testing"

	"repro/internal/traceio"
	"repro/internal/workload"
)

// TestTraceReplayByteIdentity is the trace frontend's acceptance gate: a
// trace exported from a built-in benchmark and re-imported must produce a
// report byte-identical to running the generator directly, on all four
// figure-2/4 machine configurations. Byte equality of the JSON encoding
// is deliberate — every counter, not just IPC, must survive the round
// trip through the container format.
func TestTraceReplayByteIdentity(t *testing.T) {
	const (
		bench     = "swim"
		warmup    = 2_000
		measure   = 8_000
		perStream = 30_000 // covers warmup+measure per context plus fetch run-ahead
	)
	b, err := BenchmarkByName(bench)
	if err != nil {
		t.Fatal(err)
	}
	dir := t.TempDir()
	export := func(contexts int) string {
		path := filepath.Join(dir, "swim.dct")
		f, err := os.Create(path)
		if err != nil {
			t.Fatal(err)
		}
		if _, err := workload.ExportTrace(f, b, contexts, 0, perStream, "identity gate"); err != nil {
			t.Fatal(err)
		}
		if err := f.Close(); err != nil {
			t.Fatal(err)
		}
		return path
	}

	configs := []struct {
		name string
		m    Machine
	}{
		{"t=1 L2=64", Figure2(1)},
		{"t=1 L2=256", Figure2(1).WithL2Latency(256)},
		{"t=4 L2=64", Figure2(4)},
		{"t=4 L2=256", Figure2(4).WithL2Latency(256)},
	}
	opts := RunOpts{WarmupInsts: warmup, MeasureInsts: measure}
	for _, tc := range configs {
		t.Run(tc.name, func(t *testing.T) {
			path := export(tc.m.TotalContexts())
			want, err := runOnce(BenchmarkRequest(bench, tc.m, opts))
			if err != nil {
				t.Fatal(err)
			}
			got, err := runOnce(TraceRequest(path, tc.m, opts))
			if err != nil {
				t.Fatal(err)
			}
			wj, err := json.Marshal(want)
			if err != nil {
				t.Fatal(err)
			}
			gj, err := json.Marshal(got)
			if err != nil {
				t.Fatal(err)
			}
			if string(wj) != string(gj) {
				t.Errorf("trace replay diverged from the generator run\ngenerator: %s\ntrace:     %s", wj, gj)
			}
		})
	}
}

// TestTraceReplayRejectsInvalidRegisters: a container whose loads write
// registers the machine lacks (r64, r100, r254) fails the run with
// traceio.ErrCorrupt instead of crashing the core.
func TestTraceReplayRejectsInvalidRegisters(t *testing.T) {
	path := filepath.Join("internal", "traceio", "testdata", "r64-load.dct")
	for _, m := range []Machine{Figure2(1), Figure2(4)} {
		_, err := runOnce(TraceRequest(path, m, RunOpts{WarmupInsts: 100, MeasureInsts: 500}))
		if !errors.Is(err, traceio.ErrCorrupt) {
			t.Errorf("%d contexts: err = %v, want traceio.ErrCorrupt", m.TotalContexts(), err)
		}
	}
}

// TestTraceReplayRefusesImportOnlyFormats: a text trace is not replayed;
// the error names the command that converts it.
func TestTraceReplayRefusesImportOnlyFormats(t *testing.T) {
	path := filepath.Join(t.TempDir(), "swim.txt")
	if err := os.WriteFile(path, []byte("load 0x1000 f8 r1 - 0x10000020 8\n"), 0o644); err != nil {
		t.Fatal(err)
	}
	_, err := runOnce(TraceRequest(path, Figure2(1), RunOpts{WarmupInsts: 100, MeasureInsts: 500}))
	if !errors.Is(err, traceio.ErrBadMagic) || !strings.Contains(err.Error(), "dae-trace import") {
		t.Fatalf("err = %v, want ErrBadMagic naming dae-trace import", err)
	}
}
