package isa

import (
	"testing"
	"testing/quick"
	"unsafe"
)

// TestInstSize: the record packs into three words. Interned chunks and
// the core's lookahead batches hold Insts by value, so a padding byte
// added by a field reorder costs memory bandwidth everywhere.
func TestInstSize(t *testing.T) {
	if got := unsafe.Sizeof(Inst{}); got != 24 {
		t.Fatalf("isa.Inst is %d bytes, want 24", got)
	}
}

func TestOpString(t *testing.T) {
	cases := map[Op]string{
		OpIntALU: "int",
		OpFPALU:  "fp",
		OpLoad:   "load",
		OpStore:  "store",
		OpBranch: "branch",
		Op(200):  "op(200)",
	}
	for op, want := range cases {
		if got := op.String(); got != want {
			t.Errorf("Op(%d).String() = %q, want %q", op, got, want)
		}
	}
}

func TestOpValid(t *testing.T) {
	for i := 0; i < NumOps; i++ {
		if !Op(i).Valid() {
			t.Errorf("Op(%d) should be valid", i)
		}
	}
	if Op(NumOps).Valid() {
		t.Error("Op(NumOps) should be invalid")
	}
}

func TestRegConstructors(t *testing.T) {
	r := IntReg(5)
	if !r.IsInt() || r.IsFP() || !r.Valid() {
		t.Errorf("IntReg(5) classification wrong: %v", r)
	}
	f := FPReg(5)
	if f.IsInt() || !f.IsFP() || !f.Valid() {
		t.Errorf("FPReg(5) classification wrong: %v", f)
	}
	if r == f {
		t.Error("IntReg(5) and FPReg(5) must differ")
	}
}

func TestRegOutOfRangePanics(t *testing.T) {
	for _, fn := range []func(){
		func() { IntReg(-1) },
		func() { IntReg(32) },
		func() { FPReg(-1) },
		func() { FPReg(32) },
	} {
		func() {
			defer func() {
				if recover() == nil {
					t.Error("expected panic for out-of-range register")
				}
			}()
			fn()
		}()
	}
}

func TestNoReg(t *testing.T) {
	if NoReg.Valid() {
		t.Error("NoReg must not be valid")
	}
	if NoReg.IsInt() || NoReg.IsFP() {
		t.Error("NoReg must have no class")
	}
	if NoReg.String() != "-" {
		t.Errorf("NoReg.String() = %q", NoReg.String())
	}
}

func TestRegString(t *testing.T) {
	if got := IntReg(3).String(); got != "r3" {
		t.Errorf("IntReg(3).String() = %q", got)
	}
	if got := FPReg(7).String(); got != "f7" {
		t.Errorf("FPReg(7).String() = %q", got)
	}
}

func TestSteering(t *testing.T) {
	cases := []struct {
		inst Inst
		want Unit
	}{
		{Inst{Op: OpIntALU}, AP},
		{Inst{Op: OpFPALU}, EP},
		{Inst{Op: OpLoad, Dest: FPReg(0)}, AP}, // fp load still executes in AP
		{Inst{Op: OpLoad, Dest: IntReg(0)}, AP},
		{Inst{Op: OpStore}, AP},
		{Inst{Op: OpBranch}, AP},
	}
	for _, c := range cases {
		if got := Steer(&c.inst); got != c.want {
			t.Errorf("Steer(%v) = %v, want %v", c.inst.Op, got, c.want)
		}
	}
}

func TestDestUnit(t *testing.T) {
	fpLoad := Inst{Op: OpLoad, Dest: FPReg(2)}
	if DestUnit(&fpLoad) != EP {
		t.Error("fp load destination must live in the EP file")
	}
	intLoad := Inst{Op: OpLoad, Dest: IntReg(2)}
	if DestUnit(&intLoad) != AP {
		t.Error("int load destination must live in the AP file")
	}
	noDest := Inst{Op: OpStore, Dest: NoReg}
	if DestUnit(&noDest) != AP {
		t.Error("no-destination instructions default to AP")
	}
}

func TestRegUnit(t *testing.T) {
	if RegUnit(IntReg(0)) != AP || RegUnit(FPReg(0)) != EP {
		t.Error("RegUnit misclassifies registers")
	}
}

func TestInstPredicates(t *testing.T) {
	ld := Inst{Op: OpLoad}
	st := Inst{Op: OpStore}
	br := Inst{Op: OpBranch}
	alu := Inst{Op: OpIntALU}
	if !ld.IsMem() || !ld.IsLoad() || ld.IsStore() || ld.IsBranch() {
		t.Error("load predicates wrong")
	}
	if !st.IsMem() || !st.IsStore() || st.IsLoad() {
		t.Error("store predicates wrong")
	}
	if br.IsMem() || !br.IsBranch() {
		t.Error("branch predicates wrong")
	}
	if alu.IsMem() || alu.IsLoad() || alu.IsStore() || alu.IsBranch() {
		t.Error("alu predicates wrong")
	}
}

// TestInstString pins the text-trace line each op class prints.
func TestInstString(t *testing.T) {
	cases := []struct {
		in   Inst
		want string
	}{
		{Inst{Op: OpIntALU, PC: 4, Dest: IntReg(1), Src1: IntReg(2), Src2: NoReg}, "int 0x4 r1 r2 -"},
		{Inst{Op: OpFPALU, PC: 8, Dest: FPReg(1), Src1: FPReg(2), Src2: FPReg(3)}, "fp 0x8 f1 f2 f3"},
		{Inst{Op: OpLoad, PC: 0x1000, Dest: FPReg(8), Src1: IntReg(1), Src2: NoReg, Addr: 0x10000020, Size: 8}, "load 0x1000 f8 r1 - 0x10000020 8"},
		{Inst{Op: OpStore, PC: 16, Dest: NoReg, Src1: FPReg(0), Src2: IntReg(2), Addr: 0, Size: 4}, "store 0x10 - f0 r2 0x0 4"},
		{Inst{Op: OpBranch, PC: 0x1040, Dest: NoReg, Src1: IntReg(15), Src2: NoReg, Taken: true}, "branch 0x1040 - r15 - taken"},
		{Inst{Op: OpBranch, PC: 24, Dest: NoReg, Src1: IntReg(4), Src2: NoReg}, "branch 0x18 - r4 - not-taken"},
	}
	for _, c := range cases {
		if got := c.in.String(); got != c.want {
			t.Errorf("String() = %q, want %q", got, c.want)
		}
	}
}

func TestUnitString(t *testing.T) {
	if AP.String() != "AP" || EP.String() != "EP" {
		t.Error("Unit.String wrong")
	}
}

// Property: every valid register is classified into exactly one unit and
// class.
func TestQuickRegClassification(t *testing.T) {
	f := func(raw uint8) bool {
		r := Reg(raw)
		if r.Valid() {
			return r.IsInt() != r.IsFP() // exactly one class
		}
		return !r.IsInt() && !r.IsFP()
	}
	if err := quick.Check(f, nil); err != nil {
		t.Fatal(err)
	}
}

// Property: Steer and DestUnit agree for every non-load instruction: the
// only instructions that execute in one unit but write the other's file
// are loads.
func TestQuickSteerDestConsistency(t *testing.T) {
	f := func(opRaw, destRaw uint8) bool {
		op := Op(opRaw % uint8(NumOps))
		dest := Reg(destRaw % uint8(NumRegs))
		// Construct the combinations the workload generator can emit:
		// FP ALU writes FP regs, int ALU writes int regs, loads write
		// either, stores/branches write nothing.
		in := Inst{Op: op, Dest: dest}
		switch op {
		case OpFPALU:
			if !dest.IsFP() {
				return true // generator never emits this; skip
			}
		case OpIntALU:
			if !dest.IsInt() {
				return true
			}
		case OpStore, OpBranch:
			in.Dest = NoReg
		}
		if op == OpLoad {
			return Steer(&in) == AP
		}
		return Steer(&in) == DestUnit(&in)
	}
	if err := quick.Check(f, nil); err != nil {
		t.Fatal(err)
	}
}
