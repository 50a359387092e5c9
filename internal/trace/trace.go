// Package trace defines the dynamic instruction stream abstraction that
// feeds the simulator, together with combinators (limit, concatenation,
// repetition) and a compact binary file format.
//
// The paper's methodology is trace-driven simulation: DEC Alpha binaries
// instrumented with ATOM produce per-benchmark instruction traces which the
// timing simulator replays. This repository replaces the proprietary traces
// with synthetic generators (package workload) that implement the same
// Reader interface, so the simulator is indifferent to whether a stream
// comes from a generator or from a file produced by cmd/dae-trace.
package trace

import (
	"bufio"
	"encoding/binary"
	"errors"
	"fmt"
	"io"

	"repro/internal/isa"
)

// Reader is a stream of dynamic instructions. Next fills *inst with the
// next record and reports whether one was available; after it returns
// false the stream is exhausted and subsequent calls must keep returning
// false.
type Reader interface {
	Next(inst *isa.Inst) bool
}

// Peeker is an optional Reader extension for zero-copy lookahead.
// PeekNext returns a pointer to the next record without consuming it —
// valid only until the next PeekNext/Consume/Next call, and read-only —
// and Consume advances past it. Interned workload streams implement it.
// The core does not use it (it reads every source through its own
// lookahead batch, filled by Filler where available); the benchmark's
// timing wrapper still names it.
type Peeker interface {
	Reader
	PeekNext() (*isa.Inst, bool)
	Consume()
}

// Filler is an optional Reader extension for bulk reads: Fill writes the
// next records of the stream into dst and returns how many it wrote,
// exactly the records len(dst) Next calls would have produced. It returns
// fewer than len(dst) only when the stream ends. Workload generators and
// interned replays implement it so the core fills its per-context
// lookahead batch with one call instead of one interface call per
// instruction.
type Filler interface {
	Reader
	Fill(dst []isa.Inst) int
}

// Func adapts a function to the Reader interface.
type Func func(inst *isa.Inst) bool

// Next implements Reader.
func (f Func) Next(inst *isa.Inst) bool { return f(inst) }

// Slice returns a Reader that yields the given instructions in order.
// The slice is not copied; the caller must not mutate it while reading.
func Slice(insts []isa.Inst) Reader {
	i := 0
	return Func(func(out *isa.Inst) bool {
		if i >= len(insts) {
			return false
		}
		*out = insts[i]
		i++
		return true
	})
}

// Limit returns a Reader that yields at most n instructions from r.
func Limit(r Reader, n int64) Reader {
	remaining := n
	return Func(func(out *isa.Inst) bool {
		if remaining <= 0 {
			return false
		}
		if !r.Next(out) {
			remaining = 0
			return false
		}
		remaining--
		return true
	})
}

// Concat returns a Reader that yields all instructions from each reader in
// turn.
func Concat(readers ...Reader) Reader {
	idx := 0
	return Func(func(out *isa.Inst) bool {
		for idx < len(readers) {
			if readers[idx].Next(out) {
				return true
			}
			idx++
		}
		return false
	})
}

// Interleave returns a Reader that alternates between the given readers
// instruction by instruction (round-robin), dropping exhausted readers.
// Useful for building custom multiprogrammed streams for a single
// context.
func Interleave(readers ...Reader) Reader {
	live := append([]Reader(nil), readers...)
	next := 0
	return Func(func(out *isa.Inst) bool {
		for len(live) > 0 {
			if next >= len(live) {
				next = 0
			}
			if live[next].Next(out) {
				next++
				return true
			}
			live = append(live[:next], live[next+1:]...)
		}
		return false
	})
}

// Skip discards the first n instructions of r (the paper skips each
// benchmark's start-up phase before measuring) and returns r.
func Skip(r Reader, n int64) Reader {
	var tmp isa.Inst
	for i := int64(0); i < n; i++ {
		if !r.Next(&tmp) {
			break
		}
	}
	return r
}

// Count drains r and returns the number of instructions it yielded.
func Count(r Reader) int64 {
	var tmp isa.Inst
	var n int64
	for r.Next(&tmp) {
		n++
	}
	return n
}

// ----------------------------------------------------------------------------
// Binary file format.
//
// Layout: 8-byte magic "DAETRACE", uvarint version, then one record per
// instruction:
//
//	byte   flags: bits 0-2 op, bit 3 taken, bit 4 has-addr
//	uvarint pc
//	byte   dest, src1, src2 (0xFF = none)
//	if has-addr: uvarint addr, byte size
//
// The format is self-delimiting; readers detect truncation.

var magic = [8]byte{'D', 'A', 'E', 'T', 'R', 'A', 'C', 'E'}

// FormatVersion is the current trace file format version.
const FormatVersion = 1

// ErrBadMagic is returned when a trace file does not start with the
// expected magic bytes.
var ErrBadMagic = errors.New("trace: bad magic (not a DAE trace file)")

// ErrBadVersion is returned for unsupported format versions.
var ErrBadVersion = errors.New("trace: unsupported format version")

// Writer encodes instructions to an io.Writer in the binary format.
type Writer struct {
	w   *bufio.Writer
	n   int64
	err error
}

// NewWriter writes the file header and returns a Writer. The caller must
// call Flush when done.
func NewWriter(w io.Writer) (*Writer, error) {
	bw := bufio.NewWriterSize(w, 1<<16)
	if _, err := bw.Write(magic[:]); err != nil {
		return nil, fmt.Errorf("trace: writing magic: %w", err)
	}
	var buf [binary.MaxVarintLen64]byte
	n := binary.PutUvarint(buf[:], FormatVersion)
	if _, err := bw.Write(buf[:n]); err != nil {
		return nil, fmt.Errorf("trace: writing version: %w", err)
	}
	return &Writer{w: bw}, nil
}

// Write encodes one instruction record.
func (w *Writer) Write(inst *isa.Inst) error {
	if w.err != nil {
		return w.err
	}
	flags := byte(inst.Op) & 0x7
	if inst.Taken {
		flags |= 1 << 3
	}
	hasAddr := inst.IsMem()
	if hasAddr {
		flags |= 1 << 4
	}
	var buf [2 + 2*binary.MaxVarintLen64 + 4]byte
	i := 0
	buf[i] = flags
	i++
	i += binary.PutUvarint(buf[i:], inst.PC)
	buf[i] = byte(inst.Dest)
	buf[i+1] = byte(inst.Src1)
	buf[i+2] = byte(inst.Src2)
	i += 3
	if hasAddr {
		i += binary.PutUvarint(buf[i:], inst.Addr)
		buf[i] = inst.Size
		i++
	}
	if _, err := w.w.Write(buf[:i]); err != nil {
		w.err = fmt.Errorf("trace: writing record: %w", err)
		return w.err
	}
	w.n++
	return nil
}

// WriteAll drains r into the writer and returns the number of records
// written.
func (w *Writer) WriteAll(r Reader) (int64, error) {
	var inst isa.Inst
	var n int64
	for r.Next(&inst) {
		if err := w.Write(&inst); err != nil {
			return n, err
		}
		n++
	}
	return n, nil
}

// Count returns the number of records written so far.
func (w *Writer) Count() int64 { return w.n }

// Flush writes any buffered data to the underlying writer.
func (w *Writer) Flush() error {
	if w.err != nil {
		return w.err
	}
	return w.w.Flush()
}

// FileReader decodes a trace file. It implements Reader; decoding errors
// terminate the stream and are reported by Err.
type FileReader struct {
	r   *bufio.Reader
	err error
	n   int64
}

// NewFileReader validates the header and returns a FileReader.
func NewFileReader(r io.Reader) (*FileReader, error) {
	br := bufio.NewReaderSize(r, 1<<16)
	var got [8]byte
	if _, err := io.ReadFull(br, got[:]); err != nil {
		return nil, fmt.Errorf("trace: reading magic: %w", err)
	}
	if got != magic {
		return nil, ErrBadMagic
	}
	v, err := binary.ReadUvarint(br)
	if err != nil {
		return nil, fmt.Errorf("trace: reading version: %w", err)
	}
	if v != FormatVersion {
		return nil, fmt.Errorf("%w: %d", ErrBadVersion, v)
	}
	return &FileReader{r: br}, nil
}

// Next implements Reader.
func (fr *FileReader) Next(inst *isa.Inst) bool {
	if fr.err != nil {
		return false
	}
	flags, err := fr.r.ReadByte()
	if err != nil {
		if err != io.EOF {
			fr.err = fmt.Errorf("trace: record %d: %w", fr.n, err)
		}
		return false
	}
	op := isa.Op(flags & 0x7)
	if !op.Valid() {
		fr.err = fmt.Errorf("trace: record %d: invalid op %d", fr.n, op)
		return false
	}
	pc, err := binary.ReadUvarint(fr.r)
	if err != nil {
		fr.err = fmt.Errorf("trace: record %d: truncated pc: %w", fr.n, err)
		return false
	}
	var regs [3]byte
	if _, err := io.ReadFull(fr.r, regs[:]); err != nil {
		fr.err = fmt.Errorf("trace: record %d: truncated regs: %w", fr.n, err)
		return false
	}
	*inst = isa.Inst{
		PC:    pc,
		Op:    op,
		Dest:  isa.Reg(regs[0]),
		Src1:  isa.Reg(regs[1]),
		Src2:  isa.Reg(regs[2]),
		Taken: flags&(1<<3) != 0,
	}
	if flags&(1<<4) != 0 {
		addr, err := binary.ReadUvarint(fr.r)
		if err != nil {
			fr.err = fmt.Errorf("trace: record %d: truncated addr: %w", fr.n, err)
			return false
		}
		size, err := fr.r.ReadByte()
		if err != nil {
			fr.err = fmt.Errorf("trace: record %d: truncated size: %w", fr.n, err)
			return false
		}
		inst.Addr = addr
		inst.Size = size
	}
	fr.n++
	return true
}

// Count returns the number of records decoded so far.
func (fr *FileReader) Count() int64 { return fr.n }

// Err returns the first decoding error encountered, if any. io.EOF at a
// record boundary is a clean end of stream and is not an error.
func (fr *FileReader) Err() error { return fr.err }
