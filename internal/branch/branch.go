// Package branch implements the branch predictors used by the simulator.
//
// The paper's machine gives every hardware context a private Branch History
// Table of 2K entries × 2-bit saturating counters (Figure 2), indexed by the
// branch PC. That predictor is BHT. A global-history gshare predictor is
// also provided for the predictor-sensitivity ablation; it is not part of
// the paper's configuration.
package branch

import "fmt"

// Predictor is a conditional branch direction predictor. Implementations
// are per-hardware-context (the paper replicates the BHT per thread).
type Predictor interface {
	// Predict returns the predicted direction for the branch at pc.
	Predict(pc uint64) bool
	// Update trains the predictor with the resolved direction of the
	// branch at pc. The paper's machine updates at branch execution.
	Update(pc uint64, taken bool)
}

// counter is a 2-bit saturating counter: 0,1 predict not-taken; 2,3
// predict taken.
type counter uint8

func (c counter) taken() bool { return c >= 2 }

func (c counter) update(taken bool) counter {
	if taken {
		if c < 3 {
			return c + 1
		}
		return c
	}
	if c > 0 {
		return c - 1
	}
	return c
}

// BHT is a direct-indexed table of 2-bit saturating counters, the paper's
// per-thread predictor (2K entries in Figure 2).
type BHT struct {
	table []counter
	mask  uint64
}

// NewBHT returns a BHT with the given number of entries, which must be a
// positive power of two. Counters initialise to weakly-not-taken (01),
// matching the usual cold-start convention.
func NewBHT(entries int) *BHT {
	if entries <= 0 || entries&(entries-1) != 0 {
		panic(fmt.Sprintf("branch: BHT entries %d must be a positive power of two", entries))
	}
	t := make([]counter, entries)
	for i := range t {
		t[i] = 1
	}
	return &BHT{table: t, mask: uint64(entries - 1)}
}

func (b *BHT) index(pc uint64) uint64 {
	// Instructions are 4-byte aligned; drop the low bits so consecutive
	// branches map to distinct entries.
	return (pc >> 2) & b.mask
}

// Predict implements Predictor.
func (b *BHT) Predict(pc uint64) bool {
	return b.table[b.index(pc)].taken()
}

// Update implements Predictor.
func (b *BHT) Update(pc uint64, taken bool) {
	i := b.index(pc)
	b.table[i] = b.table[i].update(taken)
}

// Gshare is a global-history predictor: the PC is XOR-folded with a
// global branch history register to index the counter table. Provided for
// the predictor ablation (the paper itself uses a plain BHT).
type Gshare struct {
	table   []counter
	mask    uint64
	history uint64
	bits    uint
}

// NewGshare returns a gshare predictor with the given table size (positive
// power of two) and history length in bits.
func NewGshare(entries int, historyBits uint) *Gshare {
	if entries <= 0 || entries&(entries-1) != 0 {
		panic(fmt.Sprintf("branch: gshare entries %d must be a positive power of two", entries))
	}
	if historyBits > 32 {
		panic("branch: gshare history too long")
	}
	t := make([]counter, entries)
	for i := range t {
		t[i] = 1
	}
	return &Gshare{table: t, mask: uint64(entries - 1), bits: historyBits}
}

func (g *Gshare) index(pc uint64) uint64 {
	return ((pc >> 2) ^ g.history) & g.mask
}

// Predict implements Predictor.
func (g *Gshare) Predict(pc uint64) bool {
	return g.table[g.index(pc)].taken()
}

// Update implements Predictor. It trains the indexed counter and shifts
// the outcome into the global history register.
func (g *Gshare) Update(pc uint64, taken bool) {
	i := g.index(pc)
	g.table[i] = g.table[i].update(taken)
	g.history <<= 1
	if taken {
		g.history |= 1
	}
	g.history &= (1 << g.bits) - 1
}

// Static is a trivial always-taken or always-not-taken predictor, useful
// as a lower bound in the predictor ablation and in unit tests.
type Static struct {
	// Taken is the fixed prediction.
	Taken bool
}

// Predict implements Predictor.
func (s Static) Predict(uint64) bool { return s.Taken }

// Update implements Predictor (no-op).
func (s Static) Update(uint64, bool) {}

// Kind selects a predictor implementation by name.
type Kind string

const (
	// KindBHT is the paper's per-thread 2-bit BHT.
	KindBHT Kind = "bht"
	// KindGshare is the global-history ablation predictor.
	KindGshare Kind = "gshare"
	// KindTaken is static always-taken.
	KindTaken Kind = "taken"
	// KindNotTaken is static always-not-taken.
	KindNotTaken Kind = "nottaken"
)

// New builds a predictor of the given kind with the given table size.
// Unknown kinds return an error.
func New(kind Kind, entries int) (Predictor, error) {
	switch kind {
	case KindBHT, "":
		return NewBHT(entries), nil
	case KindGshare:
		return NewGshare(entries, 12), nil
	case KindTaken:
		return Static{Taken: true}, nil
	case KindNotTaken:
		return Static{}, nil
	default:
		return nil, fmt.Errorf("branch: unknown predictor kind %q", kind)
	}
}
