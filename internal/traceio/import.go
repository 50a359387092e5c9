package traceio

// Import-only decoders for the three interchange formats, format
// detection for unseekable inputs, and Decode, the one place a trace's
// format is switched on. The simulator replays containers only
// (ReadAll); `dae-trace import` converts everything else through Decode.
//
// Legacy format: 8-byte magic "DAETRACE", uvarint version 1, then the
// container's record encoding (appendRecord) back to back, with no
// framing or checksum.
//
// Text format: one record per line, '#' starts a comment, fields are
// whitespace-separated:
//
//	<op> <pc> <dest> <src1> <src2>            op ∈ int,fp,load,store,branch
//	load/store lines append:  <addr> <size>
//	branch lines append:      taken | not-taken
//
// Registers are r0..r31 (integer), f0..f31 (floating point) or '-'
// (absent); pc/addr accept decimal or 0x-prefixed hex.
//
// Binary format: 8-byte magic "DAEBIN01", then fixed 24-byte
// little-endian records:
//
//	pc u64, addr u64, op u8, dest u8, src1 u8, src2 u8, size u8,
//	flags u8 (bit 0 taken), 2 reserved bytes (zero)
//
// All three carry a single instruction stream; `dae-trace import` wraps
// them into a one-stream container. Mapping rule: records land on the
// isa.Inst model verbatim — op class, register split and mem/branch
// payloads are validated (validateRecord), everything else (pipeline
// behaviour, steering) derives from the isa tables exactly as for
// generated workloads.

import (
	"bufio"
	"encoding/binary"
	"fmt"
	"io"
	"slices"
	"strconv"
	"strings"

	"repro/internal/isa"
)

// BinaryMagic identifies an external fixed-width binary trace.
var BinaryMagic = [8]byte{'D', 'A', 'E', 'B', 'I', 'N', '0', '1'}

// legacyMagic identifies a legacy single-stream trace.
var legacyMagic = [8]byte{'D', 'A', 'E', 'T', 'R', 'A', 'C', 'E'}

// legacyVersion is the only legacy format version.
const legacyVersion = 1

// binaryRecordLen is the fixed record size of the binary format.
const binaryRecordLen = 24

// Format names an on-disk trace encoding.
type Format string

// Trace encodings accepted by `dae-trace`. FormatAuto sniffs the magic
// bytes (text, the only magic-less format, is the fallback).
const (
	FormatAuto      Format = "auto"
	FormatContainer Format = "container"
	FormatLegacy    Format = "legacy"
	FormatBinary    Format = "bin"
	FormatText      Format = "text"
)

// formats lists every accepted format name.
var formats = []Format{FormatAuto, FormatContainer, FormatLegacy, FormatBinary, FormatText}

// magics maps each magic-prefixed format to its first eight bytes.
var magics = []struct {
	f     Format
	magic [8]byte
}{
	{FormatContainer, Magic},
	{FormatLegacy, legacyMagic},
	{FormatBinary, BinaryMagic},
}

// ParseFormat validates a user-supplied format name ("" means auto).
func ParseFormat(s string) (Format, error) {
	f := Format(strings.ToLower(s))
	if f == "" {
		return FormatAuto, nil
	}
	if !slices.Contains(formats, f) {
		return "", fmt.Errorf("traceio: unknown trace format %q (known: auto, container, legacy, bin, text)", s)
	}
	return f, nil
}

// CheckReplayFormat validates the format a replay names. The simulator
// replays containers only, so "", "auto" and "container" pass and the
// import-only formats are refused with the command that converts them.
func CheckReplayFormat(s string) error {
	f, err := ParseFormat(s)
	if err != nil {
		return err
	}
	if f != FormatAuto && f != FormatContainer {
		return fmt.Errorf("traceio: %s traces are import-only; convert with `dae-trace import -i FILE -o FILE.dct` and replay the container", f)
	}
	return nil
}

// Detect sniffs the input's format from its first bytes without
// consuming them, so it works on pipes and stdin. Inputs matching no
// magic are assumed to be text.
func Detect(br *bufio.Reader) (Format, error) {
	head, err := br.Peek(8)
	if err != nil && err != io.EOF {
		return "", fmt.Errorf("traceio: sniffing format: %w", err)
	}
	for _, m := range magics {
		if string(head) == string(m.magic[:]) {
			return m.f, nil
		}
	}
	return FormatText, nil
}

// Decode reads a whole trace in format f into per-stream slices;
// FormatAuto sniffs it with Detect. Single-stream formats report a
// synthesized one-stream header. Every record passes validateRecord.
func Decode(r io.Reader, f Format) (Header, [][]isa.Inst, error) {
	br := bufio.NewReaderSize(r, 1<<16)
	if f == FormatAuto {
		var err error
		if f, err = Detect(br); err != nil {
			return Header{}, nil, err
		}
	}
	var parse func(io.Reader) ([]isa.Inst, error)
	switch f {
	case FormatContainer:
		return ReadAll(br)
	case FormatLegacy:
		parse = ParseLegacy
	case FormatBinary:
		parse = ParseBinary
	case FormatText:
		parse = ParseText
	default:
		return Header{}, nil, fmt.Errorf("traceio: unsupported trace format %q", f)
	}
	insts, err := parse(br)
	if err != nil {
		return Header{}, nil, err
	}
	return Header{Streams: 1}, [][]isa.Inst{insts}, nil
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

// ----------------------------------------------------------------------------
// Legacy format.

// ParseLegacy decodes a whole legacy single-stream trace. It streams, so
// it works on pipes and stdin.
func ParseLegacy(r io.Reader) ([]isa.Inst, error) {
	br := bufio.NewReaderSize(r, 1<<16)
	var got [8]byte
	if _, err := io.ReadFull(br, got[:]); err != nil {
		return nil, fmt.Errorf("%w: short legacy magic", ErrTruncated)
	}
	if got != legacyMagic {
		return nil, fmt.Errorf("%w: not a DAETRACE trace", ErrBadMagic)
	}
	v, err := binary.ReadUvarint(br)
	if err != nil {
		return nil, fmt.Errorf("%w: missing legacy version", ErrTruncated)
	}
	if v != legacyVersion {
		return nil, fmt.Errorf("%w: legacy version %d", ErrBadVersion, v)
	}
	var out []isa.Inst
	for {
		p, err := br.Peek(maxRecordLen)
		if err != nil && err != io.EOF {
			return nil, fmt.Errorf("traceio: reading legacy record %d: %w", len(out), err)
		}
		if len(p) == 0 {
			return out, nil
		}
		var in isa.Inst
		n, err := decodeRecord(p, &in)
		if err != nil {
			return nil, fmt.Errorf("%w (legacy record %d)", err, len(out))
		}
		br.Discard(n)
		out = append(out, in)
	}
}

// ----------------------------------------------------------------------------
// Text format.

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

// ParseText decodes the whole text trace. Line numbers appear in every
// error so hand-written traces are debuggable.
func ParseText(r io.Reader) ([]isa.Inst, error) {
	sc := bufio.NewScanner(r)
	sc.Buffer(make([]byte, 64<<10), 64<<10)
	var out []isa.Inst
	lineNo := 0
	for sc.Scan() {
		lineNo++
		line := sc.Text()
		if i := strings.IndexByte(line, '#'); i >= 0 {
			line = line[:i]
		}
		fields := strings.Fields(line)
		if len(fields) == 0 {
			continue
		}
		in, err := parseTextRecord(fields)
		if err == nil {
			err = validateRecord(&in)
		}
		if err != nil {
			return nil, fmt.Errorf("traceio: text line %d: %w", lineNo, err)
		}
		out = append(out, in)
	}
	if err := sc.Err(); err != nil {
		return nil, fmt.Errorf("traceio: reading text trace: %w", err)
	}
	return out, nil
}

func parseTextRecord(fields []string) (isa.Inst, error) {
	if len(fields) < 5 {
		return isa.Inst{}, fmt.Errorf("want at least 5 fields (op pc dest src1 src2), got %d", len(fields))
	}
	op, err := parseOp(fields[0])
	if err != nil {
		return isa.Inst{}, err
	}
	pc, err := strconv.ParseUint(fields[1], 0, 64)
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
		if in.Addr, err = strconv.ParseUint(rest[0], 0, 64); err != nil {
			return isa.Inst{}, fmt.Errorf("bad addr %q", rest[0])
		}
		size, err := strconv.ParseUint(rest[1], 0, 8)
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

// ----------------------------------------------------------------------------
// Binary format.

// ParseBinary decodes the whole fixed-width binary trace.
func ParseBinary(r io.Reader) ([]isa.Inst, error) {
	br := bufio.NewReaderSize(r, 1<<16)
	var got [8]byte
	if _, err := io.ReadFull(br, got[:]); err != nil {
		return nil, fmt.Errorf("traceio: reading binary magic: %w", err)
	}
	if got != BinaryMagic {
		return nil, fmt.Errorf("%w: not a DAEBIN01 trace", ErrBadMagic)
	}
	var out []isa.Inst
	var rec [binaryRecordLen]byte
	for {
		_, err := io.ReadFull(br, rec[:])
		if err == io.EOF {
			return out, nil
		}
		if err != nil {
			return nil, fmt.Errorf("traceio: binary record %d: truncated: %w", len(out), err)
		}
		if rec[22] != 0 || rec[23] != 0 {
			return nil, fmt.Errorf("traceio: binary record %d: nonzero reserved bytes", len(out))
		}
		in := isa.Inst{
			PC:    binary.LittleEndian.Uint64(rec[0:8]),
			Addr:  binary.LittleEndian.Uint64(rec[8:16]),
			Op:    isa.Op(rec[16]),
			Dest:  isa.Reg(rec[17]),
			Src1:  isa.Reg(rec[18]),
			Src2:  isa.Reg(rec[19]),
			Size:  rec[20],
			Taken: rec[21]&1 != 0,
		}
		if err := validateRecord(&in); err != nil {
			return nil, fmt.Errorf("traceio: binary record %d: %w", len(out), err)
		}
		out = append(out, in)
	}
}
