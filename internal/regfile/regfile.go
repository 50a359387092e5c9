// Package regfile models a physical register file with an explicit free
// list and per-register result timing, as required by the paper's renaming
// scheme (Figure 2: 64 AP physical registers and 96 EP physical registers
// per thread).
//
// The timing model never stores architectural values — only *when* each
// physical register's value becomes available, which is all in-order issue
// needs to decide whether an instruction's operands are ready.
package regfile

import "fmt"

// PhysReg names a physical register within one file. None means "no
// register" (absent operand or no destination).
type PhysReg int32

// None is the absent physical register.
const None PhysReg = -1

// Valid reports whether p names a register.
func (p PhysReg) Valid() bool { return p >= 0 }

// NeverReady is a ready time beyond any simulated cycle, used for
// registers whose producing instruction has not yet computed its result
// delivery time (e.g. a load that has not been accepted by the cache).
// ReadyAt returns it for such registers.
const NeverReady = int64(1) << 62

// Entry is one physical register's state: the cycle its value becomes
// available, plus the classification flags the core's stall accounting
// and perceived-latency sampling maintain per register. Timing and flags
// share one entry so the issue stage's ready check and the sampling that
// follows touch a single cache line.
type Entry struct {
	// ReadyAt is the cycle the value is available (NeverReady while the
	// producer's delivery time is unknown).
	ReadyAt int64
	// MissedLoad marks that the value is produced by a load that missed
	// in L1 (or is queued behind a full MSHR file and will almost
	// certainly miss).
	MissedLoad bool
	// Sampled marks that the perceived-latency sample for that load has
	// been recorded (one sample per missed load, at its first consumer).
	Sampled bool
}

// File is a physical register file. Create with New.
type File struct {
	entries []Entry
	free    []PhysReg // stack of free registers
	inFree  []bool    // per-register free-list membership (O(1) double-free check)
}

// New returns a file with n physical registers, all free. n must be
// positive.
func New(n int) *File {
	if n <= 0 {
		panic(fmt.Sprintf("regfile: size %d must be positive", n))
	}
	f := &File{
		entries: make([]Entry, n),
		free:    make([]PhysReg, n),
		inFree:  make([]bool, n),
	}
	// Pop order is ascending register number for determinism.
	for i := 0; i < n; i++ {
		f.free[i] = PhysReg(n - 1 - i)
		f.inFree[i] = true
	}
	return f
}

// Size returns the total number of physical registers.
func (f *File) Size() int { return len(f.entries) }

// FreeCount returns the number of free registers.
func (f *File) FreeCount() int { return len(f.free) }

// Alloc takes a register from the free list. It reports failure when the
// file is exhausted (dispatch must stall). A fresh register is not ready
// until the producer calls SetReadyAt, and its classification flags are
// cleared.
func (f *File) Alloc() (PhysReg, bool) {
	if len(f.free) == 0 {
		return None, false
	}
	p := f.free[len(f.free)-1]
	f.free = f.free[:len(f.free)-1]
	f.inFree[p] = false
	f.entries[p] = Entry{ReadyAt: NeverReady}
	return p, true
}

// AllocReady allocates a register whose value is ready at the given cycle.
// Used for the initial architectural mappings (ready since "before time").
func (f *File) AllocReady(cycle int64) (PhysReg, bool) {
	p, ok := f.Alloc()
	if ok {
		f.SetReadyAt(p, cycle)
	}
	return p, ok
}

// Free returns p to the free list. Freeing None is a no-op. Double frees
// are a programming error and panic (they would corrupt the free list and
// silently break renaming).
func (f *File) Free(p PhysReg) {
	if p == None {
		return
	}
	if f.inFree[p] {
		panic(fmt.Sprintf("regfile: double free of p%d", p))
	}
	f.inFree[p] = true
	f.free = append(f.free, p)
}

// SetReadyAt records that p's value becomes available at the given cycle.
// It sits on the simulator's hottest path: range errors surface as the
// runtime's bounds panic rather than a bespoke check. Result-delivery
// *events* are not tracked here — the core inserts every known delivery
// time into its event calendar at the call sites that compute them.
func (f *File) SetReadyAt(p PhysReg, cycle int64) {
	f.entries[p].ReadyAt = cycle
}

// ReadyAt returns the cycle p's value becomes available (a very large
// sentinel if unknown yet).
func (f *File) ReadyAt(p PhysReg) int64 {
	return f.entries[p].ReadyAt
}

// Ready reports whether p's value is available at cycle now. The absent
// register None is always ready.
func (f *File) Ready(p PhysReg, now int64) bool {
	if p == None {
		return true
	}
	return f.entries[p].ReadyAt <= now
}

// RegReady is Ready for callers that have already excluded None — the
// per-cycle issue classification — saving the sentinel branch.
func (f *File) RegReady(p PhysReg, now int64) bool {
	return f.entries[p].ReadyAt <= now
}

// Entry returns p's state for in-place reads and flag updates. The
// pointer is valid until the file is garbage collected; entries are
// never reallocated.
func (f *File) Entry(p PhysReg) *Entry {
	return &f.entries[p]
}
