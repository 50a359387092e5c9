package main

import (
	"encoding/json"
	"fmt"
	"os"
	"path/filepath"
	"runtime"
	"strings"
	"testing"

	"repro/internal/experiments"
)

func TestParseArgsDefaults(t *testing.T) {
	opts, err := parseArgs(nil, os.Stderr)
	if err != nil {
		t.Fatal(err)
	}
	if opts.fig != "all" {
		t.Errorf("default fig = %q, want all", opts.fig)
	}
	def := opts.budget
	if def.WarmupPerThread != 150_000 || def.MeasurePerThread != 500_000 {
		t.Errorf("default budget = %d/%d", def.WarmupPerThread, def.MeasurePerThread)
	}
	if opts.cacheDir != "" || opts.csvDir != "" || opts.progress {
		t.Error("cache/csv/progress should default off")
	}
}

func TestParseArgsOverrides(t *testing.T) {
	opts, err := parseArgs([]string{
		"-fig", "4B", "-warmup", "123", "-measure", "456", "-seed", "9",
		"-workers", "3", "-csv", "out", "-cache", "cachedir", "-progress",
	}, os.Stderr)
	if err != nil {
		t.Fatal(err)
	}
	if opts.fig != "4b" {
		t.Errorf("fig not lower-cased: %q", opts.fig)
	}
	b := opts.budget
	if b.WarmupPerThread != 123 || b.MeasurePerThread != 456 || b.Seed != 9 {
		t.Errorf("budget = %+v", b)
	}
	if opts.workers != 3 {
		t.Errorf("workers = %d, want 3", opts.workers)
	}
	if opts.csvDir != "out" || opts.cacheDir != "cachedir" || !opts.progress {
		t.Errorf("opts = %+v", opts)
	}
}

func TestParseArgsRejectsGarbage(t *testing.T) {
	var stderr strings.Builder
	if _, err := parseArgs([]string{"-no-such-flag"}, &stderr); err == nil {
		t.Error("unknown flag accepted")
	}
	if _, err := parseArgs([]string{"positional"}, &stderr); err == nil {
		t.Error("positional argument accepted")
	}
}

func TestFlagErrorsPrintedOnce(t *testing.T) {
	for _, args := range [][]string{{"-no-such-flag"}, {"positional"}} {
		var stdout, stderr strings.Builder
		if code := run(args, &stdout, &stderr); code != 2 {
			t.Errorf("%v: exit code %d, want 2", args, code)
		}
		out := stderr.String()
		for _, msg := range []string{"not defined", "unexpected arguments"} {
			if n := strings.Count(out, msg); n > 1 {
				t.Errorf("%v: error %q printed %d times:\n%s", args, msg, n, out)
			}
		}
	}
}

func TestRunUnknownFigure(t *testing.T) {
	var stdout, stderr strings.Builder
	csvDir := filepath.Join(t.TempDir(), "out")
	cacheDir := filepath.Join(t.TempDir(), "c")
	if code := run([]string{"-fig", "9z", "-csv", csvDir, "-cache", cacheDir}, &stdout, &stderr); code != 1 {
		t.Fatalf("exit code %d, want 1", code)
	}
	// The key is checked before anything touches the file system.
	for _, dir := range []string{csvDir, cacheDir} {
		if _, err := os.Stat(dir); !os.IsNotExist(err) {
			t.Errorf("mistyped -fig left %s behind (stat: %v)", dir, err)
		}
	}
	if !strings.Contains(stderr.String(), `unknown figure "9z"`) {
		t.Errorf("stderr = %q", stderr.String())
	}
	// The error enumerates every known key so the user need not guess.
	for _, key := range []string{"1a", "a7", "i1", "c1", "-fig list"} {
		if !strings.Contains(stderr.String(), key) {
			t.Errorf("unknown-figure error does not mention %q: %q", key, stderr.String())
		}
	}
	if stdout.Len() != 0 {
		t.Errorf("unexpected stdout: %q", stdout.String())
	}
}

func TestRunFigList(t *testing.T) {
	var stdout, stderr strings.Builder
	if code := run([]string{"-fig", "list"}, &stdout, &stderr); code != 0 {
		t.Fatalf("exit code %d, stderr: %s", code, stderr.String())
	}
	out := stdout.String()
	// Every registry panel appears with its description, including the
	// interference study and the catch-all.
	n := 0
	for _, f := range experiments.Figures {
		for _, p := range f.Panels {
			n++
			if !strings.Contains(out, "  "+p.Key+" ") || !strings.Contains(out, p.Desc) {
				t.Errorf("list output missing %q (%s)", p.Key, p.Desc)
			}
		}
	}
	if n != 20 {
		t.Errorf("registry has %d panels, want 20", n)
	}
	if !strings.Contains(out, "all") {
		t.Error("list output missing the 'all' key")
	}
}

func TestRunHelpExitsZero(t *testing.T) {
	var stdout, stderr strings.Builder
	if code := run([]string{"-h"}, &stdout, &stderr); code != 0 {
		t.Fatalf("-h exit code %d, want 0", code)
	}
	if !strings.Contains(stderr.String(), "-fig") {
		t.Error("usage text missing flag documentation")
	}
}

// tinyArgs keeps test sweeps to a few thousand instructions per run.
func tinyArgs(extra ...string) []string {
	return append([]string{"-warmup", "1000", "-measure", "4000"}, extra...)
}

func TestRunAblationOutputShape(t *testing.T) {
	var stdout, stderr strings.Builder
	if code := run(tinyArgs("-fig", "a4"), &stdout, &stderr); code != 0 {
		t.Fatalf("exit code %d, stderr: %s", code, stderr.String())
	}
	out := stdout.String()
	for _, want := range []string{"Ablation A4", "config", "IPC", "bypass only (paper)", "forwarding"} {
		if !strings.Contains(out, want) {
			t.Errorf("output missing %q:\n%s", want, out)
		}
	}
}

func TestRunInterferenceOutputShape(t *testing.T) {
	var stdout, stderr strings.Builder
	if code := run(tinyArgs("-fig", "i1"), &stdout, &stderr); code != 0 {
		t.Fatalf("exit code %d, stderr: %s", code, stderr.String())
	}
	out := stdout.String()
	for _, want := range []string{"Ablation I1", "L2 miss", "mem-bus", "64KB", "1024KB", "6T"} {
		if !strings.Contains(out, want) {
			t.Errorf("output missing %q:\n%s", want, out)
		}
	}
}

func TestRunCachedRerunIsBitIdentical(t *testing.T) {
	cache := t.TempDir()
	csvDir := t.TempDir()
	args := tinyArgs("-fig", "a2", "-cache", cache, "-csv", csvDir, "-progress")

	var out1, err1 strings.Builder
	if code := run(args, &out1, &err1); code != 0 {
		t.Fatalf("first run failed: %s", err1.String())
	}
	csv1, err := os.ReadFile(filepath.Join(csvDir, "a2.csv"))
	if err != nil {
		t.Fatal(err)
	}
	entries, err := os.ReadDir(cache)
	if err != nil {
		t.Fatal(err)
	}
	if len(entries) != 2 { // ICOUNT and round-robin points
		t.Fatalf("%d cache entries after A2, want 2", len(entries))
	}
	if !strings.Contains(err1.String(), "2 simulated, 0 cache hits") {
		t.Errorf("first-run progress summary: %q", err1.String())
	}

	var out2, err2 strings.Builder
	if code := run(args, &out2, &err2); code != 0 {
		t.Fatalf("second run failed: %s", err2.String())
	}
	if out1.String() != out2.String() {
		t.Errorf("cached re-run changed stdout:\n--- first\n%s--- second\n%s", out1.String(), out2.String())
	}
	csv2, err := os.ReadFile(filepath.Join(csvDir, "a2.csv"))
	if err != nil {
		t.Fatal(err)
	}
	if string(csv1) != string(csv2) {
		t.Error("cached re-run changed the CSV output")
	}
	if !strings.Contains(err2.String(), "0 simulated, 2 cache hits") {
		t.Errorf("re-run progress summary: %q", err2.String())
	}
}

func TestRunFigure3Table(t *testing.T) {
	var stdout, stderr strings.Builder
	if code := run(tinyArgs("-fig", "3", "-workers", "2"), &stdout, &stderr); code != 0 {
		t.Fatalf("exit code %d, stderr: %s", code, stderr.String())
	}
	out := stdout.String()
	for _, want := range []string{"Figure 3", "threads", "speedup 1→3 threads"} {
		if !strings.Contains(out, want) {
			t.Errorf("output missing %q:\n%s", want, out)
		}
	}
}

// TestJSONStreamKeepsStdoutMachineParseable is the stream-separation
// gate: with -json and -progress together, every stdout line must parse
// as a point record while all human diagnostics land on stderr.
func TestJSONStreamKeepsStdoutMachineParseable(t *testing.T) {
	var stdout, stderr strings.Builder
	if code := run(tinyArgs("-fig", "3", "-json", "-progress"), &stdout, &stderr); code != 0 {
		t.Fatalf("exit %d: %s", code, stderr.String())
	}
	lines := strings.Split(strings.TrimSpace(stdout.String()), "\n")
	if len(lines) != 6 {
		t.Fatalf("%d stdout records for fig3's 6 points", len(lines))
	}
	for i, line := range lines {
		var rec pointRecord
		if err := json.Unmarshal([]byte(line), &rec); err != nil {
			t.Fatalf("stdout line %d is not JSON: %v\n%s", i, err, line)
		}
		if rec.Key == "" || rec.Hash == "" || rec.Report == nil || rec.Error != "" {
			t.Errorf("record %d incomplete: %+v", i, rec)
		}
		if rec.Report.Graduated == 0 {
			t.Errorf("record %d carries an empty report", i)
		}
	}
	// Progress went to stderr, not stdout.
	if !strings.Contains(stderr.String(), "[1/6]") {
		t.Error("-progress output missing from stderr")
	}
	if strings.Contains(stdout.String(), "[1/6]") {
		t.Error("-progress output leaked onto stdout")
	}
	// And without -json the tables appear; with it they are suppressed.
	if strings.Contains(stdout.String(), "Figure 3") {
		t.Error("text table leaked into the JSON stream")
	}
}

// TestProgressNeverWritesStdout pins the satellite contract directly:
// -progress alone must leave stdout exactly as table output (no
// progress lines), keeping piped output clean.
func TestProgressNeverWritesStdout(t *testing.T) {
	var plain, withProgress, stderr1, stderr2 strings.Builder
	if code := run(tinyArgs("-fig", "3"), &plain, &stderr1); code != 0 {
		t.Fatalf("exit %d: %s", code, stderr1.String())
	}
	if code := run(tinyArgs("-fig", "3", "-progress"), &withProgress, &stderr2); code != 0 {
		t.Fatalf("exit %d: %s", code, stderr2.String())
	}
	if plain.String() != withProgress.String() {
		t.Error("-progress changed stdout")
	}
	if !strings.Contains(stderr2.String(), "done") {
		t.Error("progress lines missing from stderr")
	}
}

func TestRunC1OutputShape(t *testing.T) {
	csvDir := t.TempDir()
	var stdout, stderr strings.Builder
	if code := run(tinyArgs("-fig", "c1", "-csv", csvDir), &stdout, &stderr); code != 0 {
		t.Fatalf("exit code %d, stderr: %s", code, stderr.String())
	}
	out := stdout.String()
	for _, want := range []string{"Figure C1", "cores", "shared", "private", "256KB", "invals"} {
		if !strings.Contains(out, want) {
			t.Errorf("output missing %q:\n%s", want, out)
		}
	}
	b, err := os.ReadFile(filepath.Join(csvDir, "c1.csv"))
	if err != nil {
		t.Fatal(err)
	}
	if !strings.HasPrefix(string(b), "cores,contexts,l2_bytes,private") {
		t.Errorf("c1.csv header: %q", string(b[:60]))
	}
}

// hashSweep runs one sweep with -hashfile and returns the file and
// stderr.
func hashSweep(t *testing.T, args ...string) (string, string) {
	t.Helper()
	path := filepath.Join(t.TempDir(), "hashes.txt")
	var stdout, stderr strings.Builder
	if code := run(tinyArgs(append(args, "-progress", "-hashfile", path)...), &stdout, &stderr); code != 0 {
		t.Fatalf("exit code %d, stderr: %s", code, stderr.String())
	}
	raw, err := os.ReadFile(path)
	if err != nil {
		t.Fatal(err)
	}
	return string(raw), stderr.String()
}

// TestWriteHashesDeterministic is the in-process determinism gate: two
// independent sweeps of the same figure, at different worker counts,
// must write byte-identical hash files with one line per simulated
// point.
func TestWriteHashesDeterministic(t *testing.T) {
	first, stderr := hashSweep(t, "-fig", "3", "-workers", "1")
	second, _ := hashSweep(t, "-fig", "3", "-workers", "3")
	if first != second {
		t.Fatalf("hash files differ between identical sweeps:\n%s\nvs\n%s", first, second)
	}
	lines := strings.Split(strings.TrimSpace(first), "\n")
	if want := fmt.Sprintf("sweep: %d simulated, 0 cache hits", len(lines)); !strings.Contains(stderr, want) {
		t.Fatalf("%d hash lines, stderr %q", len(lines), stderr)
	}
	for _, line := range lines {
		if fields := strings.Fields(line); len(fields) < 3 || len(fields[0]) != 64 || len(fields[1]) != 64 {
			t.Fatalf("malformed hash line %q", line)
		}
	}
}

// TestWriteHashesCoversCacheHits ensures served-from-cache results are
// listed too: a re-run served wholly from the disk cache writes the same
// hash file as the run that simulated.
func TestWriteHashesCoversCacheHits(t *testing.T) {
	cache := t.TempDir()
	first, _ := hashSweep(t, "-fig", "a2", "-cache", cache)
	second, stderr := hashSweep(t, "-fig", "a2", "-cache", cache)
	if !strings.Contains(stderr, "0 simulated, 2 cache hits") {
		t.Fatalf("re-run was not served from the cache: %q", stderr)
	}
	if first != second || strings.Count(second, "\n") != 2 {
		t.Fatalf("cache-served sweep changed the hash file:\n%s\nvs\n%s", first, second)
	}
}

// TestC1HashesIndependentOfGOMAXPROCS: a chip is simulated on one
// goroutine, so GOMAXPROCS may change only which sweep jobs run
// concurrently (and, with -workers 0, how many), never a result. Figure
// C1 at the golden budget must write the same -hashfile under
// GOMAXPROCS 1 and 4, and each of its job and result hash pairs must be
// one the -fig all golden (testdata/hashes.txt) pins. A divergence means
// shared mutable state leaked between per-job simulations.
func TestC1HashesIndependentOfGOMAXPROCS(t *testing.T) {
	defer runtime.GOMAXPROCS(runtime.GOMAXPROCS(0))
	hashes := func(procs int) string {
		runtime.GOMAXPROCS(procs)
		path := filepath.Join(t.TempDir(), "hashes.txt")
		var stdout, stderr strings.Builder
		if code := run([]string{"-fig", "c1", "-warmup", "2000", "-measure", "8000", "-hashfile", path}, &stdout, &stderr); code != 0 {
			t.Fatalf("GOMAXPROCS=%d: exit code %d, stderr: %s", procs, code, stderr.String())
		}
		raw, err := os.ReadFile(path)
		if err != nil {
			t.Fatal(err)
		}
		return string(raw)
	}
	p1, p4 := hashes(1), hashes(4)
	if p1 != p4 {
		t.Fatalf("c1 hashes depend on GOMAXPROCS:\n1: %s\n4: %s", p1, p4)
	}
	golden, err := os.ReadFile(filepath.Join("testdata", "hashes.txt"))
	if err != nil {
		t.Fatal(err)
	}
	pinned := map[string]bool{}
	for _, line := range strings.Split(string(golden), "\n") {
		if f := strings.Fields(line); len(f) >= 2 {
			pinned[f[0]+" "+f[1]] = true
		}
	}
	lines := strings.Split(strings.TrimSpace(p1), "\n")
	for _, line := range lines {
		if f := strings.Fields(line); len(f) < 2 || !pinned[f[0]+" "+f[1]] {
			t.Errorf("c1 point %q is not in testdata/hashes.txt", line)
		}
	}
	if len(lines) != 14 {
		t.Errorf("c1 wrote %d hash lines, want 14", len(lines))
	}
}
