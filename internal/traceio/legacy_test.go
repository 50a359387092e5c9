package traceio

import (
	"bytes"
	"encoding/binary"
	"errors"
	"testing"
	"testing/quick"

	"repro/internal/isa"
)

// legacyBytes encodes insts in the legacy single-stream format.
func legacyBytes(insts []isa.Inst) []byte {
	buf := binary.AppendUvarint(append([]byte(nil), legacyMagic[:]...), legacyVersion)
	for i := range insts {
		buf = appendRecord(buf, &insts[i])
	}
	return buf
}

// legacySample covers every op class and both branch outcomes.
func legacySample() []isa.Inst {
	return []isa.Inst{
		{PC: 0x1000, Op: isa.OpIntALU, Dest: isa.IntReg(1), Src1: isa.IntReg(2), Src2: isa.IntReg(3)},
		{PC: 0x1004, Op: isa.OpLoad, Dest: isa.FPReg(0), Src1: isa.IntReg(1), Src2: isa.NoReg, Addr: 0xdeadbeef, Size: 8},
		{PC: 0x1008, Op: isa.OpFPALU, Dest: isa.FPReg(1), Src1: isa.FPReg(0), Src2: isa.FPReg(2)},
		{PC: 0x100c, Op: isa.OpStore, Dest: isa.NoReg, Src1: isa.FPReg(1), Src2: isa.IntReg(1), Addr: 0x8000, Size: 8},
		{PC: 0x1010, Op: isa.OpBranch, Dest: isa.NoReg, Src1: isa.IntReg(4), Src2: isa.NoReg, Taken: true},
		{PC: 0x1014, Op: isa.OpBranch, Dest: isa.NoReg, Src1: isa.IntReg(4), Src2: isa.NoReg, Taken: false},
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

func TestLegacyRoundTrip(t *testing.T) {
	want := legacySample()
	got, err := ParseLegacy(bytes.NewReader(legacyBytes(want)))
	if err != nil {
		t.Fatal(err)
	}
	sameInsts(t, got, want)
}

func TestLegacyBadMagic(t *testing.T) {
	_, err := ParseLegacy(bytes.NewReader([]byte("NOTATRACEFILE...")))
	if !errors.Is(err, ErrBadMagic) {
		t.Fatalf("err = %v, want ErrBadMagic", err)
	}
}

func TestLegacyTruncatedHeader(t *testing.T) {
	for _, data := range []string{"DAE", "DAETRACE"} {
		if _, err := ParseLegacy(bytes.NewReader([]byte(data))); !errors.Is(err, ErrTruncated) {
			t.Errorf("%q: err = %v, want ErrTruncated", data, err)
		}
	}
}

func TestLegacyBadVersion(t *testing.T) {
	_, err := ParseLegacy(bytes.NewReader([]byte("DAETRACE\x63"))) // version 99
	if !errors.Is(err, ErrBadVersion) {
		t.Fatalf("err = %v, want ErrBadVersion", err)
	}
}

func TestLegacyTruncatedRecord(t *testing.T) {
	data := legacyBytes(legacySample())
	if _, err := ParseLegacy(bytes.NewReader(data[:len(data)-2])); !errors.Is(err, ErrCorrupt) {
		t.Fatalf("truncated record: err = %v, want ErrCorrupt", err)
	}
}

// Property: any generated instruction survives an encode/decode round trip.
func TestLegacyQuickRoundTrip(t *testing.T) {
	f := func(pcs []uint64, opRaw []uint8) bool {
		n := min(len(pcs), len(opRaw))
		insts := make([]isa.Inst, 0, n)
		for i := 0; i < n; i++ {
			op := isa.Op(opRaw[i] % uint8(isa.NumOps))
			in := isa.Inst{PC: pcs[i], Op: op, Dest: isa.NoReg, Src1: isa.NoReg, Src2: isa.NoReg}
			switch op {
			case isa.OpIntALU:
				in.Dest = isa.IntReg(int(opRaw[i]) % 32)
			case isa.OpFPALU:
				in.Dest = isa.FPReg(int(opRaw[i]) % 32)
			case isa.OpLoad:
				in.Dest = isa.FPReg(int(opRaw[i]) % 32)
				in.Addr = pcs[i] * 3
				in.Size = 8
			case isa.OpStore:
				in.Addr = pcs[i] * 5
				in.Size = 4
			case isa.OpBranch:
				in.Taken = opRaw[i]&1 == 1
			}
			insts = append(insts, in)
		}
		got, err := ParseLegacy(bytes.NewReader(legacyBytes(insts)))
		if err != nil || len(got) != len(insts) {
			return false
		}
		for i := range insts {
			if got[i] != insts[i] {
				return false
			}
		}
		return true
	}
	if err := quick.Check(f, &quick.Config{MaxCount: 50}); err != nil {
		t.Fatal(err)
	}
}
