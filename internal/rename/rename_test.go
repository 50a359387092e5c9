package rename

import (
	"testing"

	"repro/internal/isa"
	"repro/internal/regfile"
)

func TestNewTableUnmapped(t *testing.T) {
	tb := NewTable()
	if mapped(tb) != 0 {
		t.Fatalf("fresh table has %d mappings", mapped(tb))
	}
	if tb.Get(isa.IntReg(0)) != regfile.None {
		t.Fatal("unmapped register returned a mapping")
	}
}

func TestInitMapsEverything(t *testing.T) {
	ap := regfile.New(64)
	ep := regfile.New(96)
	tb := NewTable()
	if err := tb.Init(ap, ep); err != nil {
		t.Fatal(err)
	}
	if mapped(tb) != isa.NumRegs {
		t.Fatalf("mapped = %d, want %d", mapped(tb), isa.NumRegs)
	}
	// 32 integer mappings from AP, 32 FP mappings from EP.
	if inUse(ap) != isa.NumIntRegs {
		t.Fatalf("AP in use = %d", inUse(ap))
	}
	if inUse(ep) != isa.NumFPRegs {
		t.Fatalf("EP in use = %d", inUse(ep))
	}
	// All initial mappings are ready at cycle 0.
	for r := 0; r < isa.NumRegs; r++ {
		reg := isa.Reg(r)
		file := ap
		if reg.IsFP() {
			file = ep
		}
		if !file.Ready(tb.Get(reg), 0) {
			t.Fatalf("initial mapping of %v not ready", reg)
		}
	}
}

func TestInitFailsOnSmallFile(t *testing.T) {
	ap := regfile.New(16) // < 32 integer registers
	ep := regfile.New(96)
	tb := NewTable()
	if err := tb.Init(ap, ep); err == nil {
		t.Fatal("Init accepted an undersized AP file")
	}
	ap = regfile.New(64)
	ep = regfile.New(8)
	tb = NewTable()
	if err := tb.Init(ap, ep); err == nil {
		t.Fatal("Init accepted an undersized EP file")
	}
}

func TestSetReturnsPrevious(t *testing.T) {
	ap := regfile.New(64)
	ep := regfile.New(96)
	tb := NewTable()
	if err := tb.Init(ap, ep); err != nil {
		t.Fatal(err)
	}
	r := isa.FPReg(3)
	old := tb.Get(r)
	p, _ := ep.Alloc()
	prev := tb.Set(r, p)
	if prev != old {
		t.Fatalf("Set returned %d, want previous %d", prev, old)
	}
	if tb.Get(r) != p {
		t.Fatal("new mapping not installed")
	}
	// Other registers untouched.
	if tb.Get(isa.FPReg(4)) == p {
		t.Fatal("Set leaked into another register")
	}
}

func TestGetNoReg(t *testing.T) {
	tb := NewTable()
	if tb.Get(isa.NoReg) != regfile.None {
		t.Fatal("Get(NoReg) != None")
	}
}

func TestSetInvalidPanics(t *testing.T) {
	tb := NewTable()
	defer func() {
		if recover() == nil {
			t.Fatal("Set(NoReg) did not panic")
		}
	}()
	tb.Set(isa.NoReg, 0)
}

func TestRenameChainModelsWAW(t *testing.T) {
	// Two writes to the same architectural register must allocate distinct
	// physical registers, and freeing the first (as its overwriter
	// graduates) must make it reusable.
	ap := regfile.New(64)
	ep := regfile.New(96)
	tb := NewTable()
	if err := tb.Init(ap, ep); err != nil {
		t.Fatal(err)
	}
	r := isa.IntReg(5)
	p1, _ := ap.Alloc()
	old1 := tb.Set(r, p1)
	p2, _ := ap.Alloc()
	old2 := tb.Set(r, p2)
	if old2 != p1 {
		t.Fatalf("second Set returned %d, want %d", old2, p1)
	}
	if p1 == p2 {
		t.Fatal("WAW writes shared a physical register")
	}
	ap.Free(old1) // first writer graduates, freeing the initial mapping
	ap.Free(old2) // second writer graduates, freeing p1
	// Live: 31 untouched initial mappings + p2.
	if inUse(ap) != isa.NumIntRegs {
		t.Fatalf("AP in use = %d, want %d", inUse(ap), isa.NumIntRegs)
	}
}

// inUse returns the number of allocated registers in f.
func inUse(f *regfile.File) int { return f.Size() - f.FreeCount() }

// mapped returns the number of architectural registers with a valid
// mapping in tb.
func mapped(tb *Table) int {
	n := 0
	for _, p := range tb.mapping {
		if p.Valid() {
			n++
		}
	}
	return n
}
