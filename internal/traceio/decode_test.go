package traceio

import (
	"bytes"
	"errors"
	"os"
	"strings"
	"testing"

	"repro/internal/isa"
)

// r64Path is a one-stream container whose loads write registers the
// machine does not have; r64Container regenerates it.
const r64Path = "testdata/r64-load.dct"

// r64Container is the hostile input behind r64Path: every fourth record
// is a load into r64, r100 or r254, which the core would index its
// register file with. The Writer encodes what it is given, so the file
// can be built; decoding must refuse it.
func r64Container(t testing.TB) []byte {
	bad := []isa.Reg{64, 100, 254}
	var buf bytes.Buffer
	w, err := NewWriter(&buf, Header{Streams: 1, Name: "r64-load"})
	if err != nil {
		t.Fatal(err)
	}
	for i := 0; i < 1000; i++ {
		in := isa.Inst{PC: 0x1000 + uint64(i%32)*4, Op: isa.OpIntALU, Dest: isa.IntReg(1 + i%8), Src1: isa.IntReg(9), Src2: isa.NoReg}
		if i%4 == 0 {
			in = isa.Inst{PC: in.PC, Op: isa.OpLoad, Dest: bad[i/4%3], Src1: isa.IntReg(1), Src2: isa.NoReg, Addr: 0x40000 + uint64(i)*8, Size: 8}
		}
		if err := w.Append(0, &in); err != nil {
			t.Fatal(err)
		}
	}
	if err := w.Close(); err != nil {
		t.Fatal(err)
	}
	return buf.Bytes()
}

// TestR64FixturePinned: the committed hostile fixture is exactly what
// r64Container builds.
func TestR64FixturePinned(t *testing.T) {
	got, err := os.ReadFile(r64Path)
	if err != nil {
		t.Fatal(err)
	}
	if !bytes.Equal(got, r64Container(t)) {
		t.Fatalf("%s differs from r64Container's output", r64Path)
	}
}

// TestDecodeRejectsInvalidRegisters: a record naming a register outside
// the architectural file fails in both decoders, so it never reaches the
// core.
func TestDecodeRejectsInvalidRegisters(t *testing.T) {
	if _, _, err := ReadAll(bytes.NewReader(r64Container(t))); !errors.Is(err, ErrCorrupt) {
		t.Errorf("r64 container: ReadAll err = %v, want ErrCorrupt", err)
	}
	if _, _, err := Decode(bytes.NewReader(r64Container(t))); !errors.Is(err, ErrCorrupt) {
		t.Errorf("r64 container: Decode err = %v, want ErrCorrupt", err)
	}
	if _, _, err := Decode(strings.NewReader("int 0x10 r1 r2 -\nload 0x14 r64 r1 - 0x40000 8\n")); err == nil ||
		!strings.Contains(err.Error(), "text line 2: bad register") {
		t.Errorf("r64 text: err = %v, want a bad register at text line 2", err)
	}
}

func sameInsts(t *testing.T, got, want []isa.Inst) {
	t.Helper()
	if len(got) != len(want) {
		t.Fatalf("got %d records, want %d", len(got), len(want))
	}
	for i := range want {
		if got[i] != want[i] {
			t.Fatalf("record %d: got %+v want %+v", i, got[i], want[i])
		}
	}
}

// TestDecodeFormatsAgree: the container and text encodings of one
// stream decode to the same records.
func TestDecodeFormatsAgree(t *testing.T) {
	want := testStream(3, 200)
	for name, data := range map[string][]byte{
		"container": encodeContainer(t, Header{Streams: 1}, [][]isa.Inst{want}),
		"text":      textOf(want),
	} {
		h, streams, err := Decode(bytes.NewReader(data))
		if err != nil {
			t.Fatalf("%s: %v", name, err)
		}
		if h.Streams != 1 || len(streams) != 1 {
			t.Fatalf("%s: %d streams", name, len(streams))
		}
		sameInsts(t, streams[0], want)
	}
}

// FuzzDecode feeds arbitrary bytes through the sniffing decoder that
// `dae-trace import` uses: it must never panic, and every record it
// returns must pass the isa mapping rules the core relies on. The seeds
// are a container, a file of the retired legacy format, a text trace, a
// file of the retired binary format and the hostile r64 container.
func FuzzDecode(f *testing.F) {
	insts := testStream(11, 8)
	for _, data := range [][]byte{
		encodeContainer(f, Header{Streams: 1}, [][]isa.Inst{insts}),
		legacyFile(insts),
		textOf(insts),
		append([]byte("DAEBIN01"), make([]byte, 8*24)...),
		r64Container(f),
	} {
		f.Add(data)
	}
	f.Fuzz(func(t *testing.T, data []byte) {
		h, streams, err := Decode(bytes.NewReader(data))
		if err != nil {
			return
		}
		if len(streams) != h.Streams {
			t.Fatalf("header declares %d streams, decoded %d", h.Streams, len(streams))
		}
		for s := range streams {
			for i := range streams[s] {
				if err := validateRecord(&streams[s][i]); err != nil {
					t.Fatalf("stream %d record %d: %v", s, i, err)
				}
			}
		}
	})
}
