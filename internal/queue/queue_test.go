package queue

import (
	"testing"
	"testing/quick"
)

func TestNewPanicsOnBadCapacity(t *testing.T) {
	for _, c := range []int{0, -1, -100} {
		func() {
			defer func() {
				if recover() == nil {
					t.Errorf("New(%d) did not panic", c)
				}
			}()
			New[int](c)
		}()
	}
}

func TestPushPopFIFO(t *testing.T) {
	q := New[int](4)
	for i := 1; i <= 4; i++ {
		if !q.Push(i) {
			t.Fatalf("push %d failed", i)
		}
	}
	for i := 1; i <= 4; i++ {
		v, ok := q.Pop()
		if !ok || v != i {
			t.Fatalf("pop = (%d,%v), want (%d,true)", v, ok, i)
		}
	}
	if _, ok := q.Pop(); ok {
		t.Fatal("pop from empty queue succeeded")
	}
}

func TestFullRejectsPush(t *testing.T) {
	q := New[string](2)
	q.Push("a")
	q.Push("b")
	if q.Push("c") {
		t.Fatal("push into full queue succeeded")
	}
	if !q.Full() || q.Free() != 0 {
		t.Fatal("Full/Free inconsistent")
	}
}

func TestWrapAround(t *testing.T) {
	q := New[int](3)
	// Drive head around the buffer several times.
	next := 0
	popped := 0
	for round := 0; round < 10; round++ {
		for q.Push(next) {
			next++
		}
		for q.Len() > 1 {
			v, ok := q.Pop()
			if !ok || v != popped {
				t.Fatalf("round %d: pop = (%d,%v), want %d", round, v, ok, popped)
			}
			popped++
		}
	}
}

func TestPeek(t *testing.T) {
	q := New[int](2)
	if _, ok := q.Peek(); ok {
		t.Fatal("peek on empty queue succeeded")
	}
	q.Push(42)
	v, ok := q.Peek()
	if !ok || v != 42 {
		t.Fatalf("peek = (%d,%v)", v, ok)
	}
	if q.Len() != 1 {
		t.Fatal("peek consumed the element")
	}
}

func TestAtAndSet(t *testing.T) {
	q := New[int](4)
	q.Push(10)
	q.Push(20)
	q.Push(30)
	q.Pop() // head now at 20, with wraparound potential
	q.Push(40)
	q.Push(50)
	want := []int{20, 30, 40, 50}
	for i, w := range want {
		if got := q.At(i); got != w {
			t.Errorf("At(%d) = %d, want %d", i, got, w)
		}
	}
	q.Set(2, 99)
	if q.At(2) != 99 {
		t.Error("Set did not stick")
	}
}

func TestAtPanicsOutOfRange(t *testing.T) {
	q := New[int](2)
	q.Push(1)
	for _, i := range []int{-1, 1, 2} {
		func() {
			defer func() {
				if recover() == nil {
					t.Errorf("At(%d) did not panic", i)
				}
			}()
			q.At(i)
		}()
	}
}

func TestSetPanicsOutOfRange(t *testing.T) {
	q := New[int](2)
	q.Push(1)
	defer func() {
		if recover() == nil {
			t.Error("Set out of range did not panic")
		}
	}()
	q.Set(1, 5)
}

func TestLenCapFreeInvariant(t *testing.T) {
	q := New[int](5)
	check := func() {
		if q.Len()+q.Free() != len(q.buf) {
			t.Fatalf("Len(%d)+Free(%d) != capacity %d", q.Len(), q.Free(), len(q.buf))
		}
	}
	check()
	for i := 0; i < 5; i++ {
		q.Push(i)
		check()
	}
	for q.Len() != 0 {
		q.Pop()
		check()
	}
}

// Property: a ring behaves exactly like a bounded slice-backed FIFO for an
// arbitrary sequence of operations.
func TestQuickModelEquivalence(t *testing.T) {
	f := func(capRaw uint8, ops []byte) bool {
		capacity := int(capRaw%16) + 1
		q := New[int](capacity)
		var model []int
		next := 0
		for _, op := range ops {
			switch op % 3 {
			case 0: // push
				ok := q.Push(next)
				wantOK := len(model) < capacity
				if ok != wantOK {
					return false
				}
				if ok {
					model = append(model, next)
				}
				next++
			case 1: // pop
				v, ok := q.Pop()
				if ok != (len(model) > 0) {
					return false
				}
				if ok {
					if v != model[0] {
						return false
					}
					model = model[1:]
				}
			case 2: // verify full state
				if q.Len() != len(model) {
					return false
				}
				for i, w := range model {
					if q.At(i) != w {
						return false
					}
				}
			}
		}
		return true
	}
	if err := quick.Check(f, &quick.Config{MaxCount: 200}); err != nil {
		t.Fatal(err)
	}
}

func BenchmarkPushPop(b *testing.B) {
	q := New[int](64)
	for i := 0; i < b.N; i++ {
		q.Push(i)
		if q.Full() {
			for q.Len() != 0 {
				q.Pop()
			}
		}
	}
}

func TestScanVisitsHeadToTail(t *testing.T) {
	q := New[int](4)
	// Wrap the ring: push 4, pop 2, push 2 more so elements straddle the
	// buffer end.
	for i := 0; i < 4; i++ {
		q.Push(i)
	}
	q.Pop()
	q.Pop()
	q.Push(4)
	q.Push(5)
	var got []int
	q.Scan(func(v int) bool {
		got = append(got, v)
		return true
	})
	want := []int{2, 3, 4, 5}
	if len(got) != len(want) {
		t.Fatalf("scanned %v, want %v", got, want)
	}
	for i := range want {
		if got[i] != want[i] {
			t.Fatalf("scanned %v, want %v", got, want)
		}
	}
	// Early stop.
	n := 0
	q.Scan(func(int) bool { n++; return n < 2 })
	if n != 2 {
		t.Fatalf("early-stop scan visited %d elements", n)
	}
}
