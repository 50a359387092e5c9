package rng

import (
	"math"
	"testing"
	"testing/quick"
)

func TestDeterminism(t *testing.T) {
	a, b := newSource(42), newSource(42)
	for i := 0; i < 1000; i++ {
		if a.Uint64() != b.Uint64() {
			t.Fatalf("streams diverged at step %d", i)
		}
	}
}

func TestKnownValues(t *testing.T) {
	// SplitMix64 reference values for seed 0 (from the public reference
	// implementation). Guards against accidental algorithm changes.
	s := newSource(0)
	want := []uint64{
		0xe220a8397b1dcdaf,
		0x6e789e6aa1b965f4,
		0x06c45d188009454f,
	}
	for i, w := range want {
		if got := s.Uint64(); got != w {
			t.Errorf("value %d: got %#x want %#x", i, got, w)
		}
	}
}

func TestSeedReset(t *testing.T) {
	s := newSource(7)
	first := s.Uint64()
	s.Uint64()
	s.Seed(7)
	if got := s.Uint64(); got != first {
		t.Fatalf("after reseed got %#x want %#x", got, first)
	}
}

func TestIntnRange(t *testing.T) {
	s := newSource(1)
	for n := 1; n < 40; n++ {
		for i := 0; i < 100; i++ {
			v := s.Intn(n)
			if v < 0 || v >= n {
				t.Fatalf("Intn(%d) = %d out of range", n, v)
			}
		}
	}
}

func TestIntnPanicsOnNonPositive(t *testing.T) {
	defer func() {
		if recover() == nil {
			t.Fatal("Intn(0) did not panic")
		}
	}()
	newSource(1).Intn(0)
}

func TestFloat64Range(t *testing.T) {
	s := newSource(3)
	for i := 0; i < 10000; i++ {
		f := s.Float64()
		if f < 0 || f >= 1 {
			t.Fatalf("Float64() = %v out of [0,1)", f)
		}
	}
}

func TestFloat64Mean(t *testing.T) {
	s := newSource(5)
	sum := 0.0
	const n = 200000
	for i := 0; i < n; i++ {
		sum += s.Float64()
	}
	mean := sum / n
	if math.Abs(mean-0.5) > 0.01 {
		t.Fatalf("mean = %v, want ~0.5", mean)
	}
}

func TestBoolEdges(t *testing.T) {
	s := newSource(9)
	for i := 0; i < 100; i++ {
		if s.Bool(0) {
			t.Fatal("Bool(0) returned true")
		}
		if !s.Bool(1) {
			t.Fatal("Bool(1) returned false")
		}
		if s.Bool(-1) {
			t.Fatal("Bool(-1) returned true")
		}
		if !s.Bool(2) {
			t.Fatal("Bool(2) returned false")
		}
	}
}

func TestBoolProbability(t *testing.T) {
	s := newSource(11)
	const n = 100000
	hits := 0
	for i := 0; i < n; i++ {
		if s.Bool(0.3) {
			hits++
		}
	}
	frac := float64(hits) / n
	if math.Abs(frac-0.3) > 0.02 {
		t.Fatalf("Bool(0.3) frequency = %v", frac)
	}
}

func TestZeroValueUsable(t *testing.T) {
	var s Source
	_ = s.Uint64() // must not panic
}

// Property: Intn output is always within range for arbitrary seeds and n.
func TestQuickIntnWithinRange(t *testing.T) {
	f := func(seed uint64, nRaw uint16) bool {
		n := int(nRaw%1000) + 1
		s := newSource(seed)
		for i := 0; i < 50; i++ {
			v := s.Intn(n)
			if v < 0 || v >= n {
				return false
			}
		}
		return true
	}
	if err := quick.Check(f, nil); err != nil {
		t.Fatal(err)
	}
}

// Property: same seed ⇒ same stream prefix.
func TestQuickDeterminism(t *testing.T) {
	f := func(seed uint64) bool {
		a, b := newSource(seed), newSource(seed)
		for i := 0; i < 16; i++ {
			if a.Uint64() != b.Uint64() {
				return false
			}
		}
		return true
	}
	if err := quick.Check(f, nil); err != nil {
		t.Fatal(err)
	}
}

func BenchmarkUint64(b *testing.B) {
	s := newSource(1)
	for i := 0; i < b.N; i++ {
		_ = s.Uint64()
	}
}

// newSource returns a Source seeded with seed.
func newSource(seed uint64) *Source { return &Source{state: seed} }

// Intn returns a pseudo-random int in [0, n). It panics if n <= 0.
func (s *Source) Intn(n int) int {
	if n <= 0 {
		panic("rng: Intn with non-positive n")
	}
	// Lemire's multiply-shift rejection-free reduction is not needed here;
	// modulo bias is negligible for the small n used by workloads, but we
	// use the high bits which have better equidistribution.
	return int((s.Uint64() >> 11) % uint64(n))
}
