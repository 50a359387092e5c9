// Package isa defines the Alpha-like instruction set abstraction consumed
// by the trace-driven simulator.
//
// The paper's experiments are trace driven: the timing model never needs
// instruction semantics, only (operation class, register operands, effective
// address, branch outcome) tuples. This package defines that tuple (Inst),
// the logical register file split (32 integer + 32 floating-point registers,
// mirroring the DEC Alpha ISA the paper instruments with ATOM), and the
// access/execute steering rule from Section 2 of the paper: integer
// computation, all memory operations and branches go to the Address
// Processor (AP); floating-point computation goes to the Execute Processor
// (EP).
package isa

import "fmt"

// Op is the operation class of an instruction. The timing model only
// distinguishes classes; within a class all operations share a latency
// (paper Figure 2: AP functional units latency 1, EP latency 4).
type Op uint8

const (
	// OpIntALU is integer computation (add, logic, shifts, address
	// arithmetic, integer compare). Executes in the AP, latency 1.
	OpIntALU Op = iota
	// OpFPALU is floating-point computation (add, mul, div approximated
	// with the same pipelined latency, compare). Executes in the EP,
	// latency 4.
	OpFPALU
	// OpLoad is a memory load. The address computation executes in the AP;
	// the destination register may live in either unit's file (an integer
	// load targets the AP file, a floating-point load targets the EP file
	// — the latter is the decoupling conduit).
	OpLoad
	// OpStore is a memory store. The address computation executes in the
	// AP; the data operand may come from either file.
	OpStore
	// OpBranch is a conditional branch, resolved in the AP. Its source
	// operand is normally an integer condition register; a branch whose
	// condition comes from the EP file models the FP-compare-driven
	// branches that cause loss-of-decoupling events.
	OpBranch
	numOps
)

// NumOps is the number of operation classes.
const NumOps = int(numOps)

func (o Op) String() string {
	switch o {
	case OpIntALU:
		return "int"
	case OpFPALU:
		return "fp"
	case OpLoad:
		return "load"
	case OpStore:
		return "store"
	case OpBranch:
		return "branch"
	default:
		return fmt.Sprintf("op(%d)", uint8(o))
	}
}

// Valid reports whether o is a defined operation class.
func (o Op) Valid() bool { return o < numOps }

// Reg is a logical register number. 0..31 are integer registers (R0..R31),
// 32..63 are floating-point registers (F0..F31). NoReg means "no operand".
type Reg uint8

const (
	// NumIntRegs is the number of architectural integer registers.
	NumIntRegs = 32
	// NumFPRegs is the number of architectural floating-point registers.
	NumFPRegs = 32
	// NumRegs is the total number of architectural registers.
	NumRegs = NumIntRegs + NumFPRegs
	// NoReg marks an absent operand.
	NoReg Reg = 0xFF
)

// IntReg returns the Reg for integer register n (0..31).
func IntReg(n int) Reg {
	if n < 0 || n >= NumIntRegs {
		panic(fmt.Sprintf("isa: integer register %d out of range", n))
	}
	return Reg(n)
}

// FPReg returns the Reg for floating-point register n (0..31).
func FPReg(n int) Reg {
	if n < 0 || n >= NumFPRegs {
		panic(fmt.Sprintf("isa: fp register %d out of range", n))
	}
	return Reg(NumIntRegs + n)
}

// IsInt reports whether r names an integer register.
func (r Reg) IsInt() bool { return r < NumIntRegs }

// IsFP reports whether r names a floating-point register.
func (r Reg) IsFP() bool { return r >= NumIntRegs && r < NumRegs }

// Valid reports whether r names a register (i.e. is not NoReg and in range).
func (r Reg) Valid() bool { return r < NumRegs }

func (r Reg) String() string {
	switch {
	case r.IsInt():
		return fmt.Sprintf("r%d", int(r))
	case r.IsFP():
		return fmt.Sprintf("f%d", int(r)-NumIntRegs)
	case r == NoReg:
		return "-"
	default:
		return fmt.Sprintf("reg(%d)", uint8(r))
	}
}

// Unit identifies one of the two decoupled processing units.
type Unit uint8

const (
	// AP is the Address Processor: integer ops, memory ops, branches.
	AP Unit = iota
	// EP is the Execute Processor: floating-point ops.
	EP
	numUnits
)

// NumUnits is the number of processing units.
const NumUnits = int(numUnits)

func (u Unit) String() string {
	if u == AP {
		return "AP"
	}
	return "EP"
}

// Inst is one dynamic instruction record, the unit of the trace format.
// It is a value type; the simulator copies it into its in-flight state.
// The two words lead and the six byte fields pack behind them, so a
// record is 24 bytes.
type Inst struct {
	// PC is the instruction address. Static instructions keep stable PCs
	// across loop iterations so branch-predictor indexing behaves
	// realistically.
	PC uint64
	// Addr is the effective byte address for loads and stores.
	Addr uint64
	// Op is the operation class.
	Op Op
	// Dest is the destination register, or NoReg.
	Dest Reg
	// Src1, Src2 are source registers, or NoReg. For loads Src1/Src2 are
	// the address operands. For stores Src1 is the data operand and
	// Src2 (plus implicitly the address) the address operand.
	Src1, Src2 Reg
	// Size is the access size in bytes for loads and stores (typically 8).
	Size uint8
	// Taken is the branch outcome for OpBranch records.
	Taken bool
}

// IsMem reports whether the instruction accesses memory.
func (i *Inst) IsMem() bool { return i.Op == OpLoad || i.Op == OpStore }

// IsLoad reports whether the instruction is a load.
func (i *Inst) IsLoad() bool { return i.Op == OpLoad }

// IsStore reports whether the instruction is a store.
func (i *Inst) IsStore() bool { return i.Op == OpStore }

// IsBranch reports whether the instruction is a conditional branch.
func (i *Inst) IsBranch() bool { return i.Op == OpBranch }

// Classification tables. Steering, destination-file and register-file
// lookups run once per fetched instruction (several calls each in the
// fetch/rename path), so they are 256-entry tables indexed by the raw
// byte: branch-free, bounds-check-free (every uint8 is in range), and
// shared by every core of a CMP.
var (
	// steerTable maps Op → executing unit (only OpFPALU steers EP).
	steerTable = [256]Unit{OpFPALU: EP}
	// regUnitTable maps Reg → hosting file: EP for F0..F31, AP for the
	// integer registers and for NoReg/invalid encodings (matching the
	// "AP unless a valid FP register" rule the branchy code spelled out).
	regUnitTable = buildRegUnitTable()
)

func buildRegUnitTable() [256]Unit {
	var t [256]Unit
	for r := NumIntRegs; r < NumRegs; r++ {
		t[r] = EP
	}
	return t
}

// Steer returns the unit the instruction is dispatched to under the
// paper's data-type steering: memory instructions and branches go to the
// AP, floating-point computation to the EP, everything else to the AP.
func Steer(i *Inst) Unit { return steerTable[i.Op] }

// DestUnit returns the unit whose physical register file hosts the
// destination register: EP for floating-point destinations, AP otherwise.
// A floating-point load therefore executes in the AP but writes an EP
// register — the mechanism that lets the AP run ahead of the EP.
func DestUnit(i *Inst) Unit { return regUnitTable[i.Dest] }

// RegUnit returns the unit whose file hosts logical register r.
func RegUnit(r Reg) Unit { return regUnitTable[r] }

// String prints the instruction as one line of the text trace format
// (see package traceio), e.g. "load 0x1000 f8 r1 - 0x10000020 8" or
// "branch 0x1040 - r15 - taken", so printed records import back.
func (i *Inst) String() string {
	switch {
	case i.IsMem():
		return fmt.Sprintf("%s %#x %s %s %s %#x %d", i.Op, i.PC, i.Dest, i.Src1, i.Src2, i.Addr, i.Size)
	case i.IsBranch():
		outcome := "not-taken"
		if i.Taken {
			outcome = "taken"
		}
		return fmt.Sprintf("%s %#x %s %s %s %s", i.Op, i.PC, i.Dest, i.Src1, i.Src2, outcome)
	default:
		return fmt.Sprintf("%s %#x %s %s %s", i.Op, i.PC, i.Dest, i.Src1, i.Src2)
	}
}
