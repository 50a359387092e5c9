package traceio

import (
	"bytes"
	"errors"
	"strings"
	"testing"
	"testing/iotest"

	"repro/internal/isa"
)

// textOf prints insts in the text format, one isa.Inst.String line each.
func textOf(insts []isa.Inst) []byte {
	var b strings.Builder
	for i := range insts {
		b.WriteString(insts[i].String())
		b.WriteByte('\n')
	}
	return []byte(b.String())
}

// TestTextRoundTrip: String → ParseText reproduces the exact records.
func TestTextRoundTrip(t *testing.T) {
	want := testStream(31, 500)
	streams, err := ParseText(bytes.NewReader(textOf(want)))
	if err != nil {
		t.Fatal(err)
	}
	if len(streams) != 1 {
		t.Fatalf("an untagged trace parsed to %d streams", len(streams))
	}
	got := streams[0]
	sameInsts(t, got, want)
}

// TestTextComments: comments and blank lines are skipped; errors carry
// line numbers.
func TestTextComments(t *testing.T) {
	src := "# header comment\n\nint 0x10 r1 r2 -  # trailing comment\n"
	streams, err := ParseText(strings.NewReader(src))
	if err != nil {
		t.Fatal(err)
	}
	if len(streams) != 1 {
		t.Fatalf("an untagged trace parsed to %d streams", len(streams))
	}
	got := streams[0]
	if len(got) != 1 || got[0].Op != isa.OpIntALU || got[0].PC != 0x10 {
		t.Fatalf("parsed %+v", got)
	}
}

// TestTextNumbers: pc, addr and size are decimal, or hex after 0x or 0X.
func TestTextNumbers(t *testing.T) {
	streams, err := ParseText(strings.NewReader("load 16 f1 r2 - 0X1f 8\nstore 0 - f1 r2 0 255\n"))
	if err != nil {
		t.Fatal(err)
	}
	if len(streams) != 1 {
		t.Fatalf("an untagged trace parsed to %d streams", len(streams))
	}
	got := streams[0]
	if got[0].PC != 16 || got[0].Addr != 0x1f || got[1].PC != 0 || got[1].Addr != 0 || got[1].Size != 255 {
		t.Fatalf("parsed %+v", got)
	}
}

// TestTextErrors: malformed lines are rejected with the offending line
// number in the message.
func TestTextErrors(t *testing.T) {
	cases := []struct{ name, src string }{
		{"unknown op", "jump 0x10 r1 r2 -"},
		{"bad pc", "int zz r1 r2 -"},
		{"bad reg", "int 0x10 r99 r2 -"},
		{"load missing addr", "load 0x10 f1 r2 -"},
		{"branch missing outcome", "branch 0x10 - r2 -"},
		{"bad outcome", "branch 0x10 - r2 - maybe"},
		{"taken on non-branch", "int 0x10 r1 r2 - taken"},
		{"zero size", "load 0x10 f1 r2 - 0x20 0"},
		{"octal pc", "int 0100 r1 r1 -"},
		{"octal addr", "load 0x10 f1 r2 - 010 8"},
		{"octal size", "load 0x10 f1 r2 - 0x20 010"},
		{"0b pc", "int 0b11 r1 r1 -"},
		{"0o pc", "int 0o17 r1 r1 -"},
		{"underscore pc", "int 1_000 r1 r1 -"},
		{"underscore hex addr", "load 0x10 f1 r2 - 0x_20 8"},
		{"bare 0x", "int 0x r1 r1 -"},
		{"signed pc", "int +16 r1 r1 -"},
		{"size over a byte", "load 0x10 f1 r2 - 0x20 256"},
	}
	for _, c := range cases {
		_, err := ParseText(strings.NewReader("int 0x4 r1 r2 -\n" + c.src + "\n"))
		if err == nil || !strings.Contains(err.Error(), "text line 2:") {
			t.Errorf("%s: %q gave %v, want an error at text line 2", c.name, c.src, err)
		}
	}
}

// retiredMagicFails checks that a file of a retired binary format is
// no container and fails loudly as text at line 1.
func retiredMagicFails(t *testing.T, data []byte) {
	t.Helper()
	if _, _, err := ReadAll(bytes.NewReader(data)); !errors.Is(err, ErrBadMagic) {
		t.Errorf("ReadAll: err = %v, want ErrBadMagic", err)
	}
	if _, _, err := Decode(bytes.NewReader(data)); err == nil || !strings.Contains(err.Error(), "text line 1:") {
		t.Errorf("Decode: err = %v, want a failure at text line 1", err)
	}
}

// legacyFile encodes insts as the retired DAETRACE format did: magic,
// version 1, then the container's record encoding back to back.
func legacyFile(insts []isa.Inst) []byte {
	data := []byte("DAETRACE\x01")
	for i := range insts {
		data = appendRecord(data, &insts[i])
	}
	return data
}

// TestLegacyBadMagic: the retired DAETRACE single-stream format has no
// decoder; a legacy file fails as text.
func TestLegacyBadMagic(t *testing.T) {
	retiredMagicFails(t, legacyFile(testStream(43, 20)))
}

// TestBinaryErrors: the retired DAEBIN01 fixed-width format has no
// decoder; a binary file fails as text.
func TestBinaryErrors(t *testing.T) {
	retiredMagicFails(t, append([]byte("DAEBIN01"), make([]byte, 3*24)...))
}

// TestDetect: Decode tells a container from text by the magic alone,
// without consuming it, so a byte-at-a-time pipe decodes like a file.
func TestDetect(t *testing.T) {
	want := testStream(5, 300)
	h := Header{Streams: 1, Name: "detect"}
	for name, data := range map[string][]byte{
		"container": encodeContainer(t, h, [][]isa.Inst{want}),
		"text":      textOf(want),
	} {
		gotH, streams, err := Decode(iotest.OneByteReader(bytes.NewReader(data)))
		if err != nil {
			t.Fatalf("%s: %v", name, err)
		}
		if name == "container" && gotH != h {
			t.Errorf("container header %+v, want %+v", gotH, h)
		}
		if len(streams) != 1 {
			t.Fatalf("%s: %d streams", name, len(streams))
		}
		sameInsts(t, streams[0], want)
	}
	if h, streams, err := Decode(bytes.NewReader(nil)); err != nil || h.Streams != 1 || len(streams[0]) != 0 {
		t.Errorf("empty input: %+v, %v, %v; want one empty text stream", h, streams, err)
	}
}

// TestTextStreamTags: `# s<stream> <index>` comments place records in
// their streams; any other comment leaves a record untagged; tags out of
// order, out of range or on only some records fail with the line.
func TestTextStreamTags(t *testing.T) {
	src := "int 0x4 r1 r2 - # s1 0\nint 0x8 r1 r2 - # s0 0\nint 0xc r1 r2 - # s1 1\n"
	streams, err := ParseText(strings.NewReader(src))
	if err != nil {
		t.Fatal(err)
	}
	if len(streams) != 2 || len(streams[0]) != 1 || len(streams[1]) != 2 || streams[1][1].PC != 0xc {
		t.Fatalf("parsed %+v", streams)
	}
	for _, c := range []string{"# s1", "# sx 0", "# s0 x", "# note 0", "# s0 0 extra"} {
		streams, err := ParseText(strings.NewReader("int 0x4 r1 r2 - " + c + "\n"))
		if err != nil || len(streams) != 1 || len(streams[0]) != 1 {
			t.Errorf("%q: a comment that is no stream tag: %v, %d streams", c, err, len(streams))
		}
	}
	for _, c := range []struct{ name, src string }{
		{"out of order", "int 0x4 r1 r2 - # s0 0\nint 0x8 r1 r2 - # s0 2\n"},
		{"out of range", "int 0x4 r1 r2 - # s0 0\nint 0x8 r1 r2 - # s65536 0\n"},
		{"partly tagged", "int 0x4 r1 r2 - # s0 0\nint 0x8 r1 r2 -\n"},
		{"tagged late", "int 0x4 r1 r2 -\nint 0x8 r1 r2 - # s0 1\n"},
	} {
		if _, err := ParseText(strings.NewReader(c.src)); err == nil || !strings.Contains(err.Error(), "text line 2:") {
			t.Errorf("%s: err %v, want a failure at text line 2", c.name, err)
		}
	}
}
