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

// TestImportLegacyFromStdin: import reads a text trace from stdin, and
// a file of the retired legacy (DAETRACE) or binary (DAEBIN01) format
// read from stdin fails loudly as text at line 1, exit 1.
func TestImportLegacyFromStdin(t *testing.T) {
	dir := t.TempDir()
	out := filepath.Join(dir, "ext.dct")
	text := "# a hand-written trace\nload 0x1000 f8 r1 - 0x10000020 8\nfp 0x1004 f9 f8 f8\nbranch 0x1008 - r1 - taken\n"
	runTrace(t, strings.NewReader(text), "import", "-i", "-", "-o", out)
	if stat := runTrace(t, nil, "stat", "-i", out); !strings.Contains("\n"+stat, "\ninstructions: 3\n") {
		t.Errorf("stat of the imported text trace lacks \"instructions: 3\":\n%s", stat)
	}
	for _, magic := range []string{"DAETRACE\x01", "DAEBIN01"} {
		var stdout, stderr strings.Builder
		legacy := strings.NewReader(magic + "\x00\x10\x01\xff\xff")
		code := run([]string{"import", "-i", "-", "-o", filepath.Join(dir, "legacy.dct")}, legacy, &stdout, &stderr)
		if code != 1 || !strings.Contains(stderr.String(), "text line 1:") {
			t.Errorf("%q from stdin: exit %d, stderr %q; want exit 1 at text line 1", magic, code, stderr.String())
		}
	}
}

// TestDumpImportRoundTrip: dump prints the text format, so its output
// piped into import re-creates a one-stream container's records (the
// header's name and note are not part of the dump).
func TestDumpImportRoundTrip(t *testing.T) {
	dir := t.TempDir()
	one, back := filepath.Join(dir, "one.dct"), filepath.Join(dir, "back.dct")
	runTrace(t, nil, "export", "-bench", "su2cor", "-n", "3000", "-o", one)
	dump := runTrace(t, nil, "dump", "-n", "3000", "-i", one)
	if first, _, _ := strings.Cut(dump, "\n"); !strings.HasSuffix(first, " # s0 0") {
		t.Errorf("first dump line %q lacks its \"# s0 0\" comment", first)
	}
	runTrace(t, strings.NewReader(dump), "import", "-i", "-", "-o", back)
	if again := runTrace(t, nil, "dump", "-n", "3000", "-i", back); again != dump {
		t.Error("dump of the re-imported container differs from the original's")
	}
}

// TestDumpImportKeepsStreams: dump tags every line with its stream, and
// import reads the tags back, so a two-stream container survives dump →
// import with its streams and records; a trace that tags only some
// records fails loudly.
func TestDumpImportKeepsStreams(t *testing.T) {
	dir := t.TempDir()
	two, back := filepath.Join(dir, "two.dct"), filepath.Join(dir, "back.dct")
	runTrace(t, nil, "export", "-bench", "swim", "-t", "2", "-n", "50", "-o", two)
	dump := runTrace(t, nil, "dump", "-n", "100", "-i", two)
	if out := runTrace(t, strings.NewReader(dump), "import", "-i", "-", "-o", back); !strings.HasPrefix(out, "imported 100 records (2 streams)") {
		t.Errorf("import printed %q", out)
	}
	if stat := runTrace(t, nil, "stat", "-i", back); !strings.Contains(stat, "streams:      2\n") {
		t.Errorf("stat of the re-imported container lacks \"streams: 2\":\n%s", stat)
	}
	if again := runTrace(t, nil, "dump", "-n", "100", "-i", back); again != dump {
		t.Error("dump of the re-imported container differs from the original's")
	}
	var stdout, stderr strings.Builder
	mixed := strings.NewReader("int 0x4 r1 r2 - # s0 0\nint 0x8 r1 r2 -\n")
	if code := run([]string{"import", "-i", "-", "-o", filepath.Join(dir, "mixed.dct")}, mixed, &stdout, &stderr); code != 1 || !strings.Contains(stderr.String(), "text line 2:") {
		t.Errorf("partly tagged trace: exit %d, stderr %q; want exit 1 at text line 2", code, stderr.String())
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
		{[]string{"import", "-format", "text", "-o", "x.dct"}, 2, "flag provided but not defined: -format"},
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
