package main

import (
	"bytes"
	"io"
	"os"
	"path/filepath"
	"strings"
	"testing"
)

// runTrace runs dae-trace with args and stdin and fails the test unless
// it exits 0; it returns stdout.
func runTrace(t *testing.T, stdin io.Reader, args ...string) string {
	t.Helper()
	var stdout, stderr strings.Builder
	if code := run(args, stdin, &stdout, &stderr); code != 0 {
		t.Fatalf("dae-trace %v: exit %d, stderr: %s", args, code, stderr.String())
	}
	return stdout.String()
}

// TestExportStatReimport exports a two-stream swim container, stats it,
// and re-imports it: container → container must be a byte-identical
// re-encode.
func TestExportStatReimport(t *testing.T) {
	dir := t.TempDir()
	swim, reimport := filepath.Join(dir, "swim.dct"), filepath.Join(dir, "swim-reimport.dct")
	if out := runTrace(t, nil, "export", "-bench", "swim", "-t", "2", "-n", "100000", "-o", swim); !strings.HasPrefix(out, "wrote 200000 records (2 streams × 100000)") {
		t.Errorf("export printed %q", out)
	}
	stat := runTrace(t, nil, "stat", "-i", swim)
	for _, want := range []string{"streams:      2\n", "instructions: 200000\n"} {
		if !strings.Contains(stat, want) {
			t.Errorf("stat output lacks %q:\n%s", want, stat)
		}
	}
	runTrace(t, nil, "import", "-i", swim, "-o", reimport)
	a, err := os.ReadFile(swim)
	if err != nil {
		t.Fatal(err)
	}
	b, err := os.ReadFile(reimport)
	if err != nil {
		t.Fatal(err)
	}
	if !bytes.Equal(a, b) {
		t.Errorf("re-imported container differs from the export (%d vs %d bytes)", len(b), len(a))
	}
}

// TestImportLegacyFromStdin converts the committed legacy fixture
// (swim's first 2000 seed-0 records) read from stdin, its format
// sniffed from the magic bytes, and stats the container.
func TestImportLegacyFromStdin(t *testing.T) {
	legacy, err := os.Open(filepath.Join("..", "..", "internal", "traceio", "testdata", "swim-2k.trace"))
	if err != nil {
		t.Fatal(err)
	}
	defer legacy.Close()
	out := filepath.Join(t.TempDir(), "swim-legacy.dct")
	runTrace(t, legacy, "import", "-i", "-", "-o", out)
	if stat := runTrace(t, nil, "stat", "-i", out); !strings.Contains("\n"+stat, "\ninstructions: 2000\n") {
		t.Errorf("stat of the imported fixture lacks \"instructions: 2000\":\n%s", stat)
	}
}

// TestCommandLineErrors: no or an unknown subcommand prints the usage and
// exits 2, a bad flag exits 2 with the flag package's one message, -h
// exits 0, and a failing subcommand exits 1, its error printed once.
func TestCommandLineErrors(t *testing.T) {
	cases := []struct {
		args []string
		code int
		want string
	}{
		{nil, 2, "usage: dae-trace"},
		{[]string{"convert"}, 2, "usage: dae-trace"},
		{[]string{"stat", "-bogus"}, 2, "flag provided but not defined: -bogus"},
		{[]string{"stat", "-h"}, 0, "Usage of stat"},
		{[]string{"stat"}, 1, "dae-trace: stat requires -i or -bench"},
		{[]string{"export", "-bench", "quake3", "-o", filepath.Join(t.TempDir(), "x.dct")}, 1, "quake3"},
	}
	for _, c := range cases {
		var stdout, stderr strings.Builder
		code := run(c.args, nil, &stdout, &stderr)
		if code != c.code || stdout.Len() != 0 || strings.Count(stderr.String(), c.want) != 1 {
			t.Errorf("%v: exit %d, stdout %q, stderr %q; want exit %d and one %q", c.args, code, stdout.String(), stderr.String(), c.code, c.want)
		}
	}
}
