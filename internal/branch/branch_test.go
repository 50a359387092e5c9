package branch

import (
	"testing"
	"testing/quick"
)

func TestCounterSaturation(t *testing.T) {
	c := counter(0)
	for i := 0; i < 10; i++ {
		c = c.update(false)
	}
	if c != 0 {
		t.Fatalf("counter underflowed to %d", c)
	}
	for i := 0; i < 10; i++ {
		c = c.update(true)
	}
	if c != 3 {
		t.Fatalf("counter did not saturate at 3: %d", c)
	}
}

func TestCounterHysteresis(t *testing.T) {
	// From strongly-taken, one not-taken must not flip the prediction.
	c := counter(3)
	c = c.update(false)
	if !c.taken() {
		t.Fatal("single not-taken flipped a strong counter")
	}
	c = c.update(false)
	if c.taken() {
		t.Fatal("two not-takens should flip the prediction")
	}
}

func TestNewBHTValidation(t *testing.T) {
	for _, n := range []int{0, -4, 3, 100} {
		func() {
			defer func() {
				if recover() == nil {
					t.Errorf("NewBHT(%d) did not panic", n)
				}
			}()
			NewBHT(n)
		}()
	}
	if b := NewBHT(2048); len(b.table) != 2048 {
		t.Fatal("Entries mismatch")
	}
}

func TestBHTLearnsLoopBranch(t *testing.T) {
	b := NewBHT(2048)
	pc := uint64(0x1000)
	// A loop back-edge taken 99 times then not taken once: after warmup
	// the predictor must predict taken.
	for i := 0; i < 4; i++ {
		b.Update(pc, true)
	}
	mispredicts := 0
	for iter := 0; iter < 100; iter++ {
		taken := iter != 99
		if b.Predict(pc) != taken {
			mispredicts++
		}
		b.Update(pc, taken)
	}
	if mispredicts > 1 {
		t.Fatalf("BHT mispredicted a simple loop %d times", mispredicts)
	}
}

func TestBHTAliasing(t *testing.T) {
	// PCs exactly table-size*4 apart must collide (direct indexing).
	b := NewBHT(16)
	pcA := uint64(0x100)
	pcB := pcA + 16*4
	for i := 0; i < 4; i++ {
		b.Update(pcA, true)
	}
	if !b.Predict(pcB) {
		t.Fatal("aliased PCs must share a counter")
	}
	// Nearby distinct PCs must not collide.
	pcC := pcA + 4
	if b.Predict(pcC) {
		t.Fatal("adjacent branch unexpectedly aliased")
	}
}

func TestBHTColdStartNotTaken(t *testing.T) {
	b := NewBHT(64)
	if b.Predict(0x4000) {
		t.Fatal("cold BHT should predict weakly not-taken")
	}
}

func TestGshareLearnsAlternatingPattern(t *testing.T) {
	// A strictly alternating branch defeats a 2-bit BHT but is learnable
	// with global history.
	g := NewGshare(4096, 8)
	pc := uint64(0x2000)
	// Warm up.
	for i := 0; i < 200; i++ {
		g.Update(pc, i%2 == 0)
	}
	mispredicts := 0
	for i := 200; i < 400; i++ {
		taken := i%2 == 0
		if g.Predict(pc) != taken {
			mispredicts++
		}
		g.Update(pc, taken)
	}
	if mispredicts > 4 {
		t.Fatalf("gshare failed to learn alternation: %d mispredicts", mispredicts)
	}
}

func TestGshareValidation(t *testing.T) {
	defer func() {
		if recover() == nil {
			t.Error("NewGshare with non-power-of-two did not panic")
		}
	}()
	NewGshare(100, 8)
}

func TestStatic(t *testing.T) {
	alwaysT := Static{Taken: true}
	alwaysNT := Static{}
	if !alwaysT.Predict(0) || alwaysNT.Predict(0) {
		t.Fatal("static predictors wrong")
	}
	alwaysT.Update(0, false) // must be a no-op
	if !alwaysT.Predict(0) {
		t.Fatal("static predictor trained")
	}
}

func TestNewByKind(t *testing.T) {
	for _, k := range []Kind{KindBHT, KindGshare, KindTaken, KindNotTaken, ""} {
		p, err := New(k, 2048)
		if err != nil || p == nil {
			t.Errorf("New(%q) = %v, %v", k, p, err)
		}
	}
	if _, err := New("bogus", 2048); err == nil {
		t.Error("unknown kind accepted")
	}
}

// Property: BHT prediction is always a deterministic function of the
// update history for a single PC; replaying the same history gives the
// same predictions.
func TestQuickBHTDeterminism(t *testing.T) {
	f := func(pc uint64, outcomes []bool) bool {
		a, b := NewBHT(2048), NewBHT(2048)
		for _, taken := range outcomes {
			if a.Predict(pc) != b.Predict(pc) {
				return false
			}
			a.Update(pc, taken)
			b.Update(pc, taken)
		}
		return a.Predict(pc) == b.Predict(pc)
	}
	if err := quick.Check(f, nil); err != nil {
		t.Fatal(err)
	}
}

// Property: after k>=2 consecutive identical outcomes, the BHT predicts
// that outcome (saturating counter convergence).
func TestQuickBHTConvergence(t *testing.T) {
	f := func(pc uint64, taken bool) bool {
		b := NewBHT(2048)
		for i := 0; i < 3; i++ {
			b.Update(pc, taken)
		}
		return b.Predict(pc) == taken
	}
	if err := quick.Check(f, nil); err != nil {
		t.Fatal(err)
	}
}

func BenchmarkBHTPredictUpdate(b *testing.B) {
	p := NewBHT(2048)
	for i := 0; i < b.N; i++ {
		pc := uint64(i*4) & 0xffff
		taken := p.Predict(pc)
		p.Update(pc, !taken)
	}
}
