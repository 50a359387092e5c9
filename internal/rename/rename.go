// Package rename implements the per-thread register map table that
// translates architectural registers to physical registers at dispatch.
//
// The paper's machine renames into two separate physical files — integer
// registers into the AP file, floating-point registers into the EP file
// (Figure 2: 64 + 96 physical registers per thread). The map table itself
// is a flat array over the 64 architectural registers; which file a
// mapping points into is implied by the architectural register's class
// (isa.RegUnit).
//
// Because the simulator is trace driven and stalls fetch on mispredicted
// branches (no wrong-path dispatch ever happens), the table needs no
// checkpoint/rollback machinery; mappings only advance in program order.
package rename

import (
	"fmt"

	"repro/internal/isa"
	"repro/internal/regfile"
)

// Table maps architectural registers to physical registers for one
// hardware context.
type Table struct {
	mapping [isa.NumRegs]regfile.PhysReg
}

// NewTable returns a table with every architectural register unmapped.
// Callers establish the initial mappings with Init.
func NewTable() *Table {
	t := &Table{}
	for i := range t.mapping {
		t.mapping[i] = regfile.None
	}
	return t
}

// Init allocates an initial, value-ready physical register for every
// architectural register: integer registers from ap, floating-point
// registers from ep. It returns an error if either file is too small to
// host the architectural state.
func (t *Table) Init(ap, ep *regfile.File) error {
	for r := 0; r < isa.NumRegs; r++ {
		file := ap
		if isa.Reg(r).IsFP() {
			file = ep
		}
		p, ok := file.AllocReady(0)
		if !ok {
			return fmt.Errorf("rename: %s file too small for architectural state", isa.RegUnit(isa.Reg(r)))
		}
		t.mapping[r] = p
	}
	return nil
}

// Get returns the current physical mapping of r, or regfile.None when r is
// isa.NoReg (absent operand).
func (t *Table) Get(r isa.Reg) regfile.PhysReg {
	if !r.Valid() {
		return regfile.None
	}
	return t.mapping[r]
}

// Set installs a new mapping for r and returns the previous one (which the
// instruction's graduation will free). r must be a valid register.
func (t *Table) Set(r isa.Reg, p regfile.PhysReg) (prev regfile.PhysReg) {
	if !r.Valid() {
		panic(fmt.Sprintf("rename: Set of invalid register %v", r))
	}
	prev = t.mapping[r]
	t.mapping[r] = p
	return prev
}
