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
