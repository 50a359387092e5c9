package trace

import (
	"testing"

	"repro/internal/isa"
)

func sampleInsts() []isa.Inst {
	return []isa.Inst{
		{PC: 0x1000, Op: isa.OpIntALU, Dest: isa.IntReg(1), Src1: isa.IntReg(2), Src2: isa.IntReg(3)},
		{PC: 0x1004, Op: isa.OpLoad, Dest: isa.FPReg(0), Src1: isa.IntReg(1), Src2: isa.NoReg, Addr: 0xdeadbeef, Size: 8},
		{PC: 0x1008, Op: isa.OpFPALU, Dest: isa.FPReg(1), Src1: isa.FPReg(0), Src2: isa.FPReg(2)},
		{PC: 0x100c, Op: isa.OpStore, Dest: isa.NoReg, Src1: isa.FPReg(1), Src2: isa.IntReg(1), Addr: 0x8000, Size: 8},
		{PC: 0x1010, Op: isa.OpBranch, Dest: isa.NoReg, Src1: isa.IntReg(4), Src2: isa.NoReg, Taken: true},
		{PC: 0x1014, Op: isa.OpBranch, Dest: isa.NoReg, Src1: isa.IntReg(4), Src2: isa.NoReg, Taken: false},
	}
}

func TestSliceReader(t *testing.T) {
	insts := sampleInsts()
	r := Slice(insts)
	var got isa.Inst
	for i := range insts {
		if !r.Next(&got) {
			t.Fatalf("Next returned false at %d", i)
		}
		if got != insts[i] {
			t.Fatalf("record %d: got %+v want %+v", i, got, insts[i])
		}
	}
	if r.Next(&got) {
		t.Fatal("reader yielded past end")
	}
	if r.Next(&got) {
		t.Fatal("exhausted reader yielded again")
	}
}

func TestLimit(t *testing.T) {
	insts := sampleInsts()
	if n := Count(Limit(Slice(insts), 3)); n != 3 {
		t.Fatalf("Limit(3) yielded %d", n)
	}
	if n := Count(Limit(Slice(insts), 100)); n != int64(len(insts)) {
		t.Fatalf("Limit(100) yielded %d", n)
	}
	if n := Count(Limit(Slice(insts), 0)); n != 0 {
		t.Fatalf("Limit(0) yielded %d", n)
	}
}

func TestConcat(t *testing.T) {
	a := sampleInsts()[:2]
	b := sampleInsts()[2:]
	r := Concat(Slice(a), Slice(b))
	if n := Count(r); n != int64(len(a)+len(b)) {
		t.Fatalf("Concat yielded %d records", n)
	}
	// Order must be preserved across the seam.
	r = Concat(Slice(a), Slice(b))
	var got isa.Inst
	all := sampleInsts()
	for i := range all {
		r.Next(&got)
		if got.PC != all[i].PC {
			t.Fatalf("record %d: pc %#x want %#x", i, got.PC, all[i].PC)
		}
	}
}

func TestConcatEmpty(t *testing.T) {
	if n := Count(Concat()); n != 0 {
		t.Fatal("empty Concat yielded records")
	}
	if n := Count(Concat(Slice(nil), Slice(sampleInsts()))); n != int64(len(sampleInsts())) {
		t.Fatal("Concat with empty first reader lost records")
	}
}

func TestSkip(t *testing.T) {
	r := Skip(Slice(sampleInsts()), 2)
	var got isa.Inst
	if !r.Next(&got) || got.PC != 0x1008 {
		t.Fatalf("Skip(2) first record pc = %#x", got.PC)
	}
	// Skipping past the end leaves an exhausted reader.
	r = Skip(Slice(sampleInsts()), 100)
	if r.Next(&got) {
		t.Fatal("Skip past end still yields")
	}
}

func TestInterleave(t *testing.T) {
	a := []isa.Inst{{PC: 1, Op: isa.OpIntALU}, {PC: 2, Op: isa.OpIntALU}, {PC: 3, Op: isa.OpIntALU}}
	b := []isa.Inst{{PC: 10, Op: isa.OpFPALU}}
	r := Interleave(Slice(a), Slice(b))
	var got []uint64
	var in isa.Inst
	for r.Next(&in) {
		got = append(got, in.PC)
	}
	want := []uint64{1, 10, 2, 3}
	if len(got) != len(want) {
		t.Fatalf("got %v, want %v", got, want)
	}
	for i := range want {
		if got[i] != want[i] {
			t.Fatalf("got %v, want %v", got, want)
		}
	}
}

func TestInterleaveEmpty(t *testing.T) {
	var in isa.Inst
	if Interleave().Next(&in) {
		t.Fatal("empty interleave yielded")
	}
	if Interleave(Slice(nil), Slice(nil)).Next(&in) {
		t.Fatal("interleave of empty readers yielded")
	}
}
