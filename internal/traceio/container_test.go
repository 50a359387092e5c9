package traceio

import (
	"bytes"
	"encoding/binary"
	"errors"
	"hash/crc32"
	"testing"
	"testing/quick"

	"repro/internal/isa"
)

// testStream builds a deterministic varied instruction sequence.
func testStream(seed uint64, n int) []isa.Inst {
	out := make([]isa.Inst, n)
	for i := range out {
		x := seed + uint64(i)*0x9e3779b97f4a7c15
		in := isa.Inst{PC: 0x1000 + (x%64)*4}
		switch x % 5 {
		case 0:
			in.Op = isa.OpIntALU
			in.Dest, in.Src1, in.Src2 = isa.IntReg(int(x%32)), isa.IntReg(int(x/7%32)), isa.NoReg
		case 1:
			in.Op = isa.OpFPALU
			in.Dest, in.Src1, in.Src2 = isa.FPReg(int(x%32)), isa.FPReg(int(x/3%32)), isa.FPReg(int(x/5%32))
		case 2:
			in.Op = isa.OpLoad
			in.Dest, in.Src1 = isa.FPReg(int(x%32)), isa.IntReg(1)
			in.Src2 = isa.NoReg
			in.Addr, in.Size = 0x40000+(x%4096)*8, 8
		case 3:
			in.Op = isa.OpStore
			in.Src1, in.Src2 = isa.FPReg(int(x%32)), isa.IntReg(2)
			in.Dest = isa.NoReg
			in.Addr, in.Size = 0x80000+(x%4096)*8, 8
		case 4:
			in.Op = isa.OpBranch
			in.Dest, in.Src1, in.Src2 = isa.NoReg, isa.IntReg(int(x%32)), isa.NoReg
			in.Taken = x%3 == 0
		}
		out[i] = in
	}
	return out
}

// encodeContainer writes the given streams interleaved per record, so
// chunks from different streams alternate in the file.
func encodeContainer(t testing.TB, h Header, streams [][]isa.Inst) []byte {
	t.Helper()
	var buf bytes.Buffer
	w, err := NewWriter(&buf, h)
	if err != nil {
		t.Fatal(err)
	}
	for i := 0; ; i++ {
		wrote := false
		for s := range streams {
			if i < len(streams[s]) {
				if err := w.Append(s, &streams[s][i]); err != nil {
					t.Fatal(err)
				}
				wrote = true
			}
		}
		if !wrote {
			break
		}
	}
	if err := w.Close(); err != nil {
		t.Fatal(err)
	}
	return buf.Bytes()
}

// TestContainerRoundTrip: a multi-stream container decodes back to the
// exact record sequences, header included, across chunk boundaries.
func TestContainerRoundTrip(t *testing.T) {
	streams := [][]isa.Inst{
		testStream(1, 5000), // spans several 32KB chunks
		testStream(2, 1),
		testStream(3, 1700),
	}
	h := Header{Streams: 3, Name: "round-trip", Note: "unit test"}
	data := encodeContainer(t, h, streams)

	gotH, got, err := ReadAll(bytes.NewReader(data))
	if err != nil {
		t.Fatal(err)
	}
	if gotH != h {
		t.Fatalf("header mismatch: got %+v want %+v", gotH, h)
	}
	for s := range streams {
		if len(got[s]) != len(streams[s]) {
			t.Fatalf("stream %d: got %d records, want %d", s, len(got[s]), len(streams[s]))
		}
		for i := range streams[s] {
			if got[s][i] != streams[s][i] {
				t.Fatalf("stream %d record %d: got %+v want %+v", s, i, got[s][i], streams[s][i])
			}
		}
	}
}

// TestContainerEmpty: a container with zero records is valid and decodes
// to empty streams.
func TestContainerEmpty(t *testing.T) {
	data := encodeContainer(t, Header{Streams: 2}, [][]isa.Inst{nil, nil})
	h, streams, err := ReadAll(bytes.NewReader(data))
	if err != nil {
		t.Fatal(err)
	}
	if h.Streams != 2 || len(streams[0])+len(streams[1]) != 0 {
		t.Fatalf("empty container decoded to %+v, %d/%d records", h, len(streams[0]), len(streams[1]))
	}
}

// TestContainerTruncated: cutting the file anywhere after the header
// must surface ErrTruncated, not a silent short stream.
func TestContainerTruncated(t *testing.T) {
	data := encodeContainer(t, Header{Streams: 1}, [][]isa.Inst{testStream(7, 300)})
	for _, cut := range []int{len(data) - 1, len(data) - 5, len(data) / 2, 20} {
		_, _, err := ReadAll(bytes.NewReader(data[:cut]))
		if !errors.Is(err, ErrTruncated) {
			t.Errorf("cut at %d/%d: got %v, want ErrTruncated", cut, len(data), err)
		}
	}
}

// TestContainerCRCMismatch: flipping a payload byte must fail the
// chunk's checksum.
func TestContainerCRCMismatch(t *testing.T) {
	data := encodeContainer(t, Header{Streams: 1}, [][]isa.Inst{testStream(9, 300)})
	corrupted := append([]byte(nil), data...)
	corrupted[len(data)/2] ^= 0x40 // mid-file: inside the first chunk's payload
	_, _, err := ReadAll(bytes.NewReader(corrupted))
	if !errors.Is(err, ErrChecksum) {
		t.Fatalf("got %v, want ErrChecksum", err)
	}
}

// TestContainerUnknownVersion: a future version must be rejected with
// the sentinel, not misparsed.
func TestContainerUnknownVersion(t *testing.T) {
	data := encodeContainer(t, Header{Streams: 1}, [][]isa.Inst{testStream(11, 4)})
	// The version uvarint is the byte right after the 8-byte magic.
	if data[8] != ContainerVersion {
		t.Fatalf("test assumes single-byte version varint, got %#x", data[8])
	}
	data[8] = ContainerVersion + 1
	if _, _, err := ReadAll(bytes.NewReader(data)); !errors.Is(err, ErrBadVersion) {
		t.Fatalf("got %v, want ErrBadVersion", err)
	}
}

// TestContainerBadMagic: foreign files are rejected up front.
func TestContainerBadMagic(t *testing.T) {
	if _, _, err := ReadAll(bytes.NewReader([]byte("NOTATRCE-rest"))); !errors.Is(err, ErrBadMagic) {
		t.Fatalf("got %v, want ErrBadMagic", err)
	}
}

// TestContainerTerminatorTotal: a terminator disagreeing with the
// decoded record count is corruption (e.g. spliced files).
func TestContainerTerminatorTotal(t *testing.T) {
	data := encodeContainer(t, Header{Streams: 1}, [][]isa.Inst{testStream(13, 3)})
	// The terminator is the trailing "0 total" uvarint pair; patch total.
	total := data[len(data)-1]
	if total != 3 {
		t.Fatalf("test assumes single-byte total varint, got %#x", total)
	}
	data[len(data)-1] = 5
	_, _, err := ReadAll(bytes.NewReader(data))
	if !errors.Is(err, ErrCorrupt) {
		t.Fatalf("got %v, want ErrCorrupt", err)
	}
}

// TestWriterValidation: stream bounds and op validity are enforced at
// append time, before bytes hit the file.
func TestWriterValidation(t *testing.T) {
	var buf bytes.Buffer
	if _, err := NewWriter(&buf, Header{Streams: 0}); err == nil {
		t.Fatal("zero-stream header accepted")
	}
	w, err := NewWriter(&buf, Header{Streams: 1})
	if err != nil {
		t.Fatal(err)
	}
	in := testStream(1, 1)[0]
	if err := w.Append(1, &in); err == nil {
		t.Fatal("out-of-range stream accepted")
	}
	bad := isa.Inst{Op: isa.Op(7)}
	if err := w.Append(0, &bad); err == nil {
		t.Fatal("invalid op accepted")
	}
}

// TestDecoderStreamCounts: ReadAll files every record of interleaved
// chunks under its originating stream, in order.
func TestDecoderStreamCounts(t *testing.T) {
	streams := [][]isa.Inst{testStream(20, 40), testStream(21, 25)}
	data := encodeContainer(t, Header{Streams: 2}, streams)
	_, got, err := ReadAll(bytes.NewReader(data))
	if err != nil {
		t.Fatal(err)
	}
	if len(got[0]) != 40 || len(got[1]) != 25 {
		t.Fatalf("per-stream counts [%d %d], want [40 25]", len(got[0]), len(got[1]))
	}
	for s := range streams {
		for i := range streams[s] {
			if got[s][i] != streams[s][i] {
				t.Fatalf("stream %d record %d: got %+v want %+v", s, i, got[s][i], streams[s][i])
			}
		}
	}
}

// TestUvarintAssumption pins the encoding detail the corruption tests
// rely on (single-byte varints for small values).
func TestUvarintAssumption(t *testing.T) {
	var buf [binary.MaxVarintLen64]byte
	if n := binary.PutUvarint(buf[:], 5); n != 1 {
		t.Fatalf("uvarint(5) = %d bytes", n)
	}
}

// Property: any valid record survives a container round trip.
func TestRecordQuickRoundTrip(t *testing.T) {
	f := func(pcs []uint64, opRaw []uint8) bool {
		n := min(len(pcs), len(opRaw))
		insts := make([]isa.Inst, 0, n)
		for i := 0; i < n; i++ {
			op := isa.Op(opRaw[i] % uint8(isa.NumOps))
			in := isa.Inst{PC: pcs[i], Op: op, Dest: isa.NoReg, Src1: isa.NoReg, Src2: isa.NoReg}
			switch op {
			case isa.OpIntALU:
				in.Dest = isa.IntReg(int(opRaw[i]) % 32)
			case isa.OpFPALU:
				in.Dest = isa.FPReg(int(opRaw[i]) % 32)
			case isa.OpLoad:
				in.Dest = isa.FPReg(int(opRaw[i]) % 32)
				in.Addr = pcs[i] * 3
				in.Size = 8
			case isa.OpStore:
				in.Addr = pcs[i] * 5
				in.Size = 4
			case isa.OpBranch:
				in.Taken = opRaw[i]&1 == 1
			}
			insts = append(insts, in)
		}
		_, got, err := ReadAll(bytes.NewReader(encodeContainer(t, Header{Streams: 1}, [][]isa.Inst{insts})))
		if err != nil || len(got[0]) != len(insts) {
			return false
		}
		for i := range insts {
			if got[0][i] != insts[i] {
				return false
			}
		}
		return true
	}
	if err := quick.Check(f, &quick.Config{MaxCount: 50}); err != nil {
		t.Fatal(err)
	}
}

// TestContainerHeaderErrors: a header cut anywhere is ErrTruncated, and
// out-of-range stream counts and string lengths are ErrCorrupt.
func TestContainerHeaderErrors(t *testing.T) {
	data := encodeContainer(t, Header{Streams: 1, Name: "ab", Note: "cd"}, [][]isa.Inst{nil})
	const headerLen = 8 + 1 + 1 + 3 + 3
	for cut := 0; cut < headerLen; cut++ {
		if _, _, err := ReadAll(bytes.NewReader(data[:cut])); !errors.Is(err, ErrTruncated) {
			t.Errorf("header cut at %d: got %v, want ErrTruncated", cut, err)
		}
	}
	head := append([]byte(nil), Magic[:]...)
	for name, rest := range map[string][]byte{
		"zero streams":    {ContainerVersion, 0},
		"too many":        binary.AppendUvarint([]byte{ContainerVersion}, MaxStreams+1),
		"oversized name":  binary.AppendUvarint([]byte{ContainerVersion, 1}, maxMetaLen+1),
		"oversized note":  binary.AppendUvarint([]byte{ContainerVersion, 1, 0}, maxMetaLen+1),
		"stream past end": {ContainerVersion, 1, 0, 0, 2, 1, 1},
	} {
		if _, _, err := ReadAll(bytes.NewReader(append(head, rest...))); !errors.Is(err, ErrCorrupt) {
			t.Errorf("%s: got %v, want ErrCorrupt", name, err)
		}
	}
}

// TestContainerCorruptRecords: a chunk whose payload passes its CRC but
// holds a malformed record is ErrCorrupt, whatever the record lacks.
func TestContainerCorruptRecords(t *testing.T) {
	const load = 2 | 1<<4 // op load, has-addr
	for name, payload := range map[string][]byte{
		"no pc":         {0},
		"no registers":  {0, 0x10, 1},
		"no addr":       {load, 0x10, 32, 1, 0xff},
		"no size":       {load, 0x10, 32, 1, 0xff, 0x20},
		"invalid op":    {7, 0x10, 0xff, 0xff, 0xff},
		"bad register":  {0, 0x10, 64, 0xff, 0xff},
		"zero size":     {load, 0x10, 32, 1, 0xff, 0x20, 0},
		"taken non-br":  {1 << 3, 0x10, 1, 0xff, 0xff},
		"trailing byte": {0, 0x10, 1, 0xff, 0xff, 0},
	} {
		data := append([]byte(nil), Magic[:]...)
		data = append(data, ContainerVersion, 1, 0, 0, 1, 1, byte(len(payload)))
		data = append(data, payload...)
		data = binary.LittleEndian.AppendUint32(data, crc32.ChecksumIEEE(payload))
		data = append(data, 0, 1)
		if _, _, err := ReadAll(bytes.NewReader(data)); !errors.Is(err, ErrCorrupt) {
			t.Errorf("%s: got %v, want ErrCorrupt", name, err)
		}
	}
}
