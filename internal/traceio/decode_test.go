package traceio

import (
	"bytes"
	"errors"
	"os"
	"strings"
	"testing"

	"repro/internal/isa"
	"repro/internal/trace"
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
// the architectural file is ErrCorrupt in every decoder, so it never
// reaches the core.
func TestDecodeRejectsInvalidRegisters(t *testing.T) {
	if _, _, err := ReadAll(bytes.NewReader(r64Container(t))); !errors.Is(err, ErrCorrupt) {
		t.Errorf("r64 container: ReadAll err = %v, want ErrCorrupt", err)
	}
	bad := legacySample()
	bad[1].Dest = 64
	if _, err := ParseLegacy(bytes.NewReader(legacyBytes(bad))); !errors.Is(err, ErrCorrupt) {
		t.Errorf("r64 legacy: err = %v, want ErrCorrupt", err)
	}
	bad[1].Dest, bad[2].Src2 = isa.FPReg(0), 200
	if _, _, err := Decode(bytes.NewReader(legacyBytes(bad)), FormatAuto); !errors.Is(err, ErrCorrupt) {
		t.Errorf("r200 source: err = %v, want ErrCorrupt", err)
	}
}

// encodeAll writes want in every format Decode reads.
func encodeAll(t testing.TB, want []isa.Inst) map[Format][]byte {
	var bin, text bytes.Buffer
	if _, err := WriteBinary(&bin, trace.Slice(want)); err != nil {
		t.Fatal(err)
	}
	if _, err := WriteText(&text, trace.Slice(want)); err != nil {
		t.Fatal(err)
	}
	return map[Format][]byte{
		FormatContainer: encodeContainer(t, Header{Streams: 1}, [][]isa.Inst{want}),
		FormatLegacy:    legacyBytes(want),
		FormatBinary:    bin.Bytes(),
		FormatText:      text.Bytes(),
	}
}

// TestDecodeFormatsAgree: container, legacy, bin and text encodings of
// one stream decode to the same records, sniffed or named.
func TestDecodeFormatsAgree(t *testing.T) {
	want := testStream(3, 200)
	for f, data := range encodeAll(t, want) {
		for _, as := range []Format{FormatAuto, f} {
			h, streams, err := Decode(bytes.NewReader(data), as)
			if err != nil {
				t.Fatalf("%s as %s: %v", f, as, err)
			}
			if h.Streams != 1 || len(streams) != 1 {
				t.Fatalf("%s as %s: %d streams", f, as, len(streams))
			}
			sameInsts(t, streams[0], want)
		}
	}
	if _, _, err := Decode(bytes.NewReader(nil), Format("elf")); err == nil {
		t.Error("unknown format decoded")
	}
}

// TestCheckReplayFormat: only containers replay; the import-only
// formats name the converter.
func TestCheckReplayFormat(t *testing.T) {
	for _, s := range []string{"", "auto", "container", "Container"} {
		if err := CheckReplayFormat(s); err != nil {
			t.Errorf("%q rejected: %v", s, err)
		}
	}
	for _, s := range []string{"legacy", "bin", "text"} {
		err := CheckReplayFormat(s)
		if err == nil || !strings.Contains(err.Error(), "dae-trace import") {
			t.Errorf("%q: err = %v, want one naming dae-trace import", s, err)
		}
	}
	if err := CheckReplayFormat("pcap"); err == nil {
		t.Error("unknown format accepted")
	}
}

// FuzzDecode feeds arbitrary bytes through the sniffing decoder that
// `dae-trace import` uses: it must never panic, and every record it
// returns must pass the isa mapping rules the core relies on.
func FuzzDecode(f *testing.F) {
	legacy, err := os.ReadFile("testdata/swim-2k.trace")
	if err != nil {
		f.Fatal(err)
	}
	seeds := encodeAll(f, testStream(11, 8))
	for _, data := range [][]byte{
		seeds[FormatContainer], legacy, seeds[FormatBinary], seeds[FormatText], r64Container(f),
	} {
		f.Add(data)
	}
	f.Fuzz(func(t *testing.T, data []byte) {
		h, streams, err := Decode(bytes.NewReader(data), FormatAuto)
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
