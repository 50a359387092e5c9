package traceio

import (
	"bufio"
	"bytes"
	"encoding/binary"
	"errors"
	"fmt"
	"io"
	"strings"
	"testing"

	"repro/internal/isa"
	"repro/internal/trace"
)

// The text and binary formats are import-only: the program never writes
// them. WriteText and WriteBinary produce them for the round-trip tests
// and FuzzDecode's seeds.

// WriteText encodes r in the text format and returns the record count.
func WriteText(w io.Writer, r interface{ Next(*isa.Inst) bool }) (int64, error) {
	bw := bufio.NewWriterSize(w, 1<<16)
	var in isa.Inst
	var n int64
	for r.Next(&in) {
		var line string
		switch {
		case in.IsMem():
			line = fmt.Sprintf("%s 0x%x %s %s %s 0x%x %d", in.Op, in.PC, in.Dest, in.Src1, in.Src2, in.Addr, in.Size)
		case in.IsBranch():
			outcome := "not-taken"
			if in.Taken {
				outcome = "taken"
			}
			line = fmt.Sprintf("%s 0x%x %s %s %s %s", in.Op, in.PC, in.Dest, in.Src1, in.Src2, outcome)
		default:
			line = fmt.Sprintf("%s 0x%x %s %s %s", in.Op, in.PC, in.Dest, in.Src1, in.Src2)
		}
		if _, err := fmt.Fprintln(bw, line); err != nil {
			return n, fmt.Errorf("traceio: writing text trace: %w", err)
		}
		n++
	}
	return n, bw.Flush()
}

// WriteBinary encodes r in the binary format and returns the record
// count.
func WriteBinary(w io.Writer, r interface{ Next(*isa.Inst) bool }) (int64, error) {
	bw := bufio.NewWriterSize(w, 1<<16)
	if _, err := bw.Write(BinaryMagic[:]); err != nil {
		return 0, fmt.Errorf("traceio: writing binary magic: %w", err)
	}
	var in isa.Inst
	var rec [binaryRecordLen]byte
	var n int64
	for r.Next(&in) {
		binary.LittleEndian.PutUint64(rec[0:8], in.PC)
		binary.LittleEndian.PutUint64(rec[8:16], in.Addr)
		rec[16] = byte(in.Op)
		rec[17] = byte(in.Dest)
		rec[18] = byte(in.Src1)
		rec[19] = byte(in.Src2)
		rec[20] = in.Size
		rec[21] = 0
		if in.Taken {
			rec[21] = 1
		}
		rec[22], rec[23] = 0, 0
		if _, err := bw.Write(rec[:]); err != nil {
			return n, fmt.Errorf("traceio: writing binary record: %w", err)
		}
		n++
	}
	return n, bw.Flush()
}

// TestTextRoundTrip: write → parse reproduces the exact records.
func TestTextRoundTrip(t *testing.T) {
	want := testStream(31, 500)
	var buf bytes.Buffer
	n, err := WriteText(&buf, trace.Slice(want))
	if err != nil || n != int64(len(want)) {
		t.Fatalf("WriteText: n=%d err=%v", n, err)
	}
	got, err := ParseText(&buf)
	if err != nil {
		t.Fatal(err)
	}
	if len(got) != len(want) {
		t.Fatalf("got %d records, want %d", len(got), len(want))
	}
	for i := range want {
		if got[i] != want[i] {
			t.Fatalf("record %d: got %+v want %+v", i, got[i], want[i])
		}
	}
}

// TestTextComments: comments and blank lines are skipped; errors carry
// line numbers.
func TestTextComments(t *testing.T) {
	src := "# header comment\n\nint 0x10 r1 r2 -  # trailing comment\n"
	got, err := ParseText(strings.NewReader(src))
	if err != nil {
		t.Fatal(err)
	}
	if len(got) != 1 || got[0].Op != isa.OpIntALU || got[0].PC != 0x10 {
		t.Fatalf("parsed %+v", got)
	}
}

// TestTextErrors: malformed lines are rejected with the offending line
// number in the message.
func TestTextErrors(t *testing.T) {
	cases := []struct{ name, src string }{
		{"unknown op", "jump 0x10 r1 r2 -\n"},
		{"bad pc", "int zz r1 r2 -\n"},
		{"bad reg", "int 0x10 r99 r2 -\n"},
		{"load missing addr", "load 0x10 f1 r2 -\n"},
		{"branch missing outcome", "branch 0x10 - r2 -\n"},
		{"bad outcome", "branch 0x10 - r2 - maybe\n"},
		{"taken on non-branch", "int 0x10 r1 r2 - taken\n"},
		{"zero size", "load 0x10 f1 r2 - 0x20 0\n"},
	}
	for _, c := range cases {
		if _, err := ParseText(strings.NewReader(c.src)); err == nil {
			t.Errorf("%s: accepted %q", c.name, c.src)
		}
	}
}

// TestBinaryRoundTrip: write → parse reproduces the exact records.
func TestBinaryRoundTrip(t *testing.T) {
	want := testStream(37, 500)
	var buf bytes.Buffer
	n, err := WriteBinary(&buf, trace.Slice(want))
	if err != nil || n != int64(len(want)) {
		t.Fatalf("WriteBinary: n=%d err=%v", n, err)
	}
	got, err := ParseBinary(&buf)
	if err != nil {
		t.Fatal(err)
	}
	if len(got) != len(want) {
		t.Fatalf("got %d records, want %d", len(got), len(want))
	}
	for i := range want {
		if got[i] != want[i] {
			t.Fatalf("record %d: got %+v want %+v", i, got[i], want[i])
		}
	}
}

// TestBinaryErrors: bad magic, truncated record, reserved bytes and
// invalid ops are all rejected.
func TestBinaryErrors(t *testing.T) {
	var ok bytes.Buffer
	if _, err := WriteBinary(&ok, trace.Slice(testStream(41, 3))); err != nil {
		t.Fatal(err)
	}
	data := ok.Bytes()

	if _, err := ParseBinary(bytes.NewReader([]byte("XXXXXXXX"))); !errors.Is(err, ErrBadMagic) {
		t.Errorf("bad magic: got %v", err)
	}
	if _, err := ParseBinary(bytes.NewReader(data[:len(data)-7])); err == nil {
		t.Error("truncated record accepted")
	}
	reserved := append([]byte(nil), data...)
	reserved[8+23] ^= 1 // first record's reserved byte
	if _, err := ParseBinary(bytes.NewReader(reserved)); err == nil {
		t.Error("nonzero reserved byte accepted")
	}
	badOp := append([]byte(nil), data...)
	badOp[8+16] = 9 // first record's op byte
	if _, err := ParseBinary(bytes.NewReader(badOp)); err == nil {
		t.Error("invalid op accepted")
	}
}

// TestDetect: the sniffer classifies all three magics and falls back to
// text, without consuming input.
func TestDetect(t *testing.T) {
	var container bytes.Buffer
	w, err := NewWriter(&container, Header{Streams: 1})
	if err != nil {
		t.Fatal(err)
	}
	if err := w.Close(); err != nil {
		t.Fatal(err)
	}
	var bin bytes.Buffer
	if _, err := WriteBinary(&bin, trace.Slice(nil)); err != nil {
		t.Fatal(err)
	}
	cases := []struct {
		data []byte
		want Format
	}{
		{container.Bytes(), FormatContainer},
		{bin.Bytes(), FormatBinary},
		{[]byte("DAETRACE\x01"), FormatLegacy},
		{[]byte("int 0x10 r1 r2 -\n"), FormatText},
		{nil, FormatText},
	}
	for _, c := range cases {
		br := bufio.NewReader(bytes.NewReader(c.data))
		got, err := Detect(br)
		if err != nil || got != c.want {
			t.Errorf("Detect(%q...) = %v, %v; want %v", c.data[:min(8, len(c.data))], got, err, c.want)
		}
		// Detection must not consume: the payload must still parse.
		if c.want == FormatContainer {
			if _, _, err := ReadAll(br); err != nil {
				t.Errorf("container unreadable after Detect: %v", err)
			}
		}
	}
}

// TestParseFormat: user-facing names resolve, junk is rejected.
func TestParseFormat(t *testing.T) {
	for s, want := range map[string]Format{
		"": FormatAuto, "auto": FormatAuto, "container": FormatContainer,
		"legacy": FormatLegacy, "bin": FormatBinary, "TEXT": FormatText,
	} {
		got, err := ParseFormat(s)
		if err != nil || got != want {
			t.Errorf("ParseFormat(%q) = %v, %v; want %v", s, got, err, want)
		}
	}
	if _, err := ParseFormat("elf"); err == nil {
		t.Error("unknown format accepted")
	}
}
