package traceio

// The text format, the one import-only format, and Decode, which tells
// it from a container by the magic. The simulator replays containers
// only (ReadAll); `dae-trace import` converts text through Decode.
//
// Text format: one record per line, '#' starts a comment, fields are
// whitespace-separated:
//
//	<op> <pc> <dest> <src1> <src2>            op ∈ int,fp,load,store,branch
//	load/store lines append:  <addr> <size>
//	branch lines append:      taken | not-taken
//
// Registers are r0..r31 (integer), f0..f31 (floating point) or '-'
// (absent); pc, addr and size are decimal or 0x-prefixed hex. The line
// is exactly what isa.Inst.String prints, so `dae-trace dump` output
// imports back.
//
// A record whose comment is a stream tag, `# s<stream> <index>` as
// `dae-trace dump` prints it, belongs to that stream at that index, so a
// dump of a multi-stream container imports back stream by stream. Either
// every record carries a tag or none does; a tagged record must be the
// next of its stream. An untagged trace is one stream. Mapping rule: records land on
// the isa.Inst model verbatim — op class, register split and mem/branch
// payloads are validated (validateRecord), everything else (pipeline
// behaviour, steering) derives from the isa tables exactly as for
// generated workloads.

import (
	"bufio"
	"bytes"
	"fmt"
	"io"
	"strconv"
	"strings"

	"repro/internal/isa"
)

// Decode reads a whole trace into per-stream slices: an input that
// starts with the container magic goes to ReadAll, anything else to
// ParseText, which reports a synthesized one-stream header. It never
// seeks, so it works on pipes and stdin. Every record passes
// validateRecord.
func Decode(r io.Reader) (Header, [][]isa.Inst, error) {
	br := bufio.NewReaderSize(r, 1<<16)
	head, err := br.Peek(len(Magic))
	if err != nil && err != io.EOF {
		return Header{}, nil, fmt.Errorf("traceio: sniffing format: %w", err)
	}
	if bytes.Equal(head, Magic[:]) {
		return ReadAll(br)
	}
	streams, err := ParseText(br)
	if err != nil {
		return Header{}, nil, err
	}
	return Header{Streams: len(streams)}, streams, nil
}

// validateRecord enforces the isa mapping rules every decoder shares.
// Registers must exist on the machine, non-memory records must not
// carry an address payload and only branches may carry an outcome, so
// a re-export round-trips.
func validateRecord(in *isa.Inst) error {
	if !in.Op.Valid() {
		return fmt.Errorf("invalid op %d", in.Op)
	}
	for _, r := range []isa.Reg{in.Dest, in.Src1, in.Src2} {
		if r != isa.NoReg && !r.Valid() {
			return fmt.Errorf("invalid register %d", r)
		}
	}
	if in.IsMem() {
		if in.Size == 0 {
			return fmt.Errorf("memory access with size 0")
		}
	} else if in.Addr != 0 || in.Size != 0 {
		return fmt.Errorf("address payload on non-memory op %s", in.Op)
	}
	if in.Taken && !in.IsBranch() {
		return fmt.Errorf("taken flag on non-branch op %s", in.Op)
	}
	return nil
}

// parseReg parses r<N>, f<N> or '-'.
func parseReg(s string) (isa.Reg, error) {
	if s == "-" {
		return isa.NoReg, nil
	}
	if len(s) < 2 || (s[0] != 'r' && s[0] != 'f') {
		return isa.NoReg, fmt.Errorf("bad register %q", s)
	}
	n, err := strconv.Atoi(s[1:])
	if err != nil || n < 0 || n >= isa.NumIntRegs {
		return isa.NoReg, fmt.Errorf("bad register %q", s)
	}
	if s[0] == 'r' {
		return isa.IntReg(n), nil
	}
	return isa.FPReg(n), nil
}

// parseOp maps a text mnemonic onto an op class.
func parseOp(s string) (isa.Op, error) {
	switch s {
	case "int":
		return isa.OpIntALU, nil
	case "fp":
		return isa.OpFPALU, nil
	case "load":
		return isa.OpLoad, nil
	case "store":
		return isa.OpStore, nil
	case "branch":
		return isa.OpBranch, nil
	default:
		return 0, fmt.Errorf("unknown op %q", s)
	}
}

// parseNum parses a bits-wide unsigned number written in decimal or
// in hex after 0x or 0X. A leading zero (octal to C and Go), a 0b or 0o
// prefix, a sign and digit-separating underscores are all refused.
func parseNum(s string, bits int) (uint64, error) {
	if len(s) > 2 && s[0] == '0' && (s[1] == 'x' || s[1] == 'X') {
		return strconv.ParseUint(s[2:], 16, bits)
	}
	if len(s) > 1 && s[0] == '0' {
		return 0, strconv.ErrSyntax
	}
	return strconv.ParseUint(s, 10, bits)
}

// ParseText decodes the whole text trace into its streams (one, for an
// untagged trace). Line numbers appear in every error so hand-written
// traces are debuggable.
func ParseText(r io.Reader) ([][]isa.Inst, error) {
	sc := bufio.NewScanner(r)
	sc.Buffer(make([]byte, 64<<10), 64<<10)
	out := [][]isa.Inst{nil}
	lineNo, records, tagged := 0, 0, false
	for sc.Scan() {
		lineNo++
		line, comment := sc.Text(), ""
		if i := strings.IndexByte(line, '#'); i >= 0 {
			line, comment = line[:i], line[i+1:]
		}
		fields := strings.Fields(line)
		if len(fields) == 0 {
			continue
		}
		in, err := parseTextRecord(fields)
		if err == nil {
			err = validateRecord(&in)
		}
		s, idx, hasTag := parseStreamTag(comment)
		switch {
		case err != nil:
		case records > 0 && hasTag != tagged:
			err = fmt.Errorf("a trace tags every record with its stream (# s<stream> <index>) or none")
		case hasTag && s >= MaxStreams:
			err = fmt.Errorf("stream %d out of range [0,%d)", s, MaxStreams)
		case hasTag:
			for len(out) <= s {
				out = append(out, nil)
			}
			if idx != len(out[s]) {
				err = fmt.Errorf("stream %d record %d out of order (want %d)", s, idx, len(out[s]))
			}
		}
		if err != nil {
			return nil, fmt.Errorf("traceio: text line %d: %w", lineNo, err)
		}
		records, tagged = records+1, hasTag
		out[s] = append(out[s], in)
	}
	if err := sc.Err(); err != nil {
		return nil, fmt.Errorf("traceio: text line %d: %w", lineNo+1, err)
	}
	return out, nil
}

// parseStreamTag reads a record's comment as the stream tag `s<stream>
// <index>` that `dae-trace dump` prints; ok is false for any other
// comment.
func parseStreamTag(comment string) (stream, index int, ok bool) {
	f := strings.Fields(comment)
	if len(f) != 2 || len(f[0]) < 2 || f[0][0] != 's' {
		return 0, 0, false
	}
	s, err1 := parseNum(f[0][1:], 31)
	i, err2 := parseNum(f[1], 31)
	if err1 != nil || err2 != nil {
		return 0, 0, false
	}
	return int(s), int(i), true
}

func parseTextRecord(fields []string) (isa.Inst, error) {
	if len(fields) < 5 {
		return isa.Inst{}, fmt.Errorf("want at least 5 fields (op pc dest src1 src2), got %d", len(fields))
	}
	op, err := parseOp(fields[0])
	if err != nil {
		return isa.Inst{}, err
	}
	pc, err := parseNum(fields[1], 64)
	if err != nil {
		return isa.Inst{}, fmt.Errorf("bad pc %q", fields[1])
	}
	in := isa.Inst{PC: pc, Op: op}
	for i, dst := range []*isa.Reg{&in.Dest, &in.Src1, &in.Src2} {
		if *dst, err = parseReg(fields[2+i]); err != nil {
			return isa.Inst{}, err
		}
	}
	rest := fields[5:]
	switch {
	case in.IsMem():
		if len(rest) != 2 {
			return isa.Inst{}, fmt.Errorf("%s wants addr and size fields", op)
		}
		if in.Addr, err = parseNum(rest[0], 64); err != nil {
			return isa.Inst{}, fmt.Errorf("bad addr %q", rest[0])
		}
		size, err := parseNum(rest[1], 8)
		if err != nil || size == 0 {
			return isa.Inst{}, fmt.Errorf("bad size %q", rest[1])
		}
		in.Size = uint8(size)
	case in.IsBranch():
		if len(rest) != 1 {
			return isa.Inst{}, fmt.Errorf("branch wants a taken|not-taken field")
		}
		switch rest[0] {
		case "taken", "t":
			in.Taken = true
		case "not-taken", "nt":
		default:
			return isa.Inst{}, fmt.Errorf("bad branch outcome %q", rest[0])
		}
	default:
		if len(rest) != 0 {
			return isa.Inst{}, fmt.Errorf("unexpected trailing fields %v", rest)
		}
	}
	return in, nil
}
