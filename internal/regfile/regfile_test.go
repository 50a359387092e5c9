package regfile

import (
	"testing"
	"testing/quick"
)

func TestNewValidation(t *testing.T) {
	defer func() {
		if recover() == nil {
			t.Fatal("New(0) did not panic")
		}
	}()
	New(0)
}

func TestAllocUntilExhausted(t *testing.T) {
	f := New(4)
	seen := map[PhysReg]bool{}
	for i := 0; i < 4; i++ {
		p, ok := f.Alloc()
		if !ok {
			t.Fatalf("alloc %d failed", i)
		}
		if seen[p] {
			t.Fatalf("register %d allocated twice", p)
		}
		seen[p] = true
	}
	if _, ok := f.Alloc(); ok {
		t.Fatal("alloc succeeded on exhausted file")
	}
	if f.FreeCount() != 0 {
		t.Fatalf("%d registers free after exhaustion", f.FreeCount())
	}
}

func TestAllocDeterministicOrder(t *testing.T) {
	a, b := New(8), New(8)
	for i := 0; i < 8; i++ {
		pa, _ := a.Alloc()
		pb, _ := b.Alloc()
		if pa != pb {
			t.Fatalf("allocation order differs at %d: %d vs %d", i, pa, pb)
		}
	}
}

func TestFreeRecycles(t *testing.T) {
	f := New(2)
	p1, _ := f.Alloc()
	p2, _ := f.Alloc()
	f.Free(p1)
	p3, ok := f.Alloc()
	if !ok || p3 != p1 {
		t.Fatalf("recycled register = %d, want %d", p3, p1)
	}
	_ = p2
}

func TestFreeNoneIsNoop(t *testing.T) {
	f := New(2)
	f.Free(None) // must not panic or change state
	if f.FreeCount() != 2 {
		t.Fatal("Free(None) changed state")
	}
}

func TestDoubleFreePanics(t *testing.T) {
	f := New(2)
	p, _ := f.Alloc()
	f.Free(p)
	defer func() {
		if recover() == nil {
			t.Fatal("double free did not panic")
		}
	}()
	f.Free(p)
}

func TestReadiness(t *testing.T) {
	f := New(4)
	p, _ := f.Alloc()
	if f.Ready(p, 1<<40) {
		t.Fatal("freshly allocated register is ready")
	}
	f.SetReadyAt(p, 100)
	if f.Ready(p, 99) {
		t.Fatal("ready before its time")
	}
	if !f.Ready(p, 100) {
		t.Fatal("not ready at its time")
	}
	if got := f.ReadyAt(p); got != 100 {
		t.Fatalf("ReadyAt = %d", got)
	}
}

func TestNoneAlwaysReady(t *testing.T) {
	f := New(1)
	if !f.Ready(None, 0) {
		t.Fatal("None not ready")
	}
}

func TestAllocReady(t *testing.T) {
	f := New(2)
	p, ok := f.AllocReady(5)
	if !ok {
		t.Fatal("AllocReady failed")
	}
	if !f.Ready(p, 5) || f.Ready(p, 4) {
		t.Fatal("AllocReady readiness wrong")
	}
}

func TestOutOfRangePanics(t *testing.T) {
	f := New(2)
	for _, p := range []PhysReg{2, 100, -5} {
		func() {
			defer func() {
				if recover() == nil {
					t.Errorf("ReadyAt(%d) did not panic", p)
				}
			}()
			f.ReadyAt(p)
		}()
	}
}

func TestPhysRegValid(t *testing.T) {
	if None.Valid() {
		t.Fatal("None is valid")
	}
	if !PhysReg(0).Valid() {
		t.Fatal("register 0 invalid")
	}
}

// Property: alloc/free conservation — free count + in-use always equals
// the file size, and allocation never hands out a register twice without
// an intervening free.
func TestQuickConservation(t *testing.T) {
	f := func(ops []bool, sizeRaw uint8) bool {
		size := int(sizeRaw%32) + 1
		file := New(size)
		var live []PhysReg
		for _, alloc := range ops {
			if alloc {
				p, ok := file.Alloc()
				if ok != (len(live) < size) {
					return false
				}
				if ok {
					for _, q := range live {
						if q == p {
							return false // duplicate allocation
						}
					}
					live = append(live, p)
				}
			} else if len(live) > 0 {
				file.Free(live[len(live)-1])
				live = live[:len(live)-1]
			}
			if file.FreeCount() != size-len(live) {
				return false
			}
		}
		return true
	}
	if err := quick.Check(f, &quick.Config{MaxCount: 100}); err != nil {
		t.Fatal(err)
	}
}

func BenchmarkAllocFree(b *testing.B) {
	f := New(96)
	for i := 0; i < b.N; i++ {
		p, _ := f.Alloc()
		f.Free(p)
	}
}
