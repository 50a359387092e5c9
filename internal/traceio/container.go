// Package traceio is the workload-ingestion subsystem: a versioned,
// self-describing container format for externally supplied instruction
// traces, plus an import-only, hand-writable text format.
//
// The container is the only format the simulator replays. It holds one
// instruction stream per hardware context, so a multithreaded run
// captured with `dae-trace export` replays bit-identically through
// `dae-sim -trace`: each context consumes exactly the stream the
// generator would have produced for it. A text trace reaches the
// simulator through `dae-trace import`, which converts it with Decode.
// The container layout is
//
//	8-byte magic "DAETRCNT"
//	uvarint container format version (currently 1)
//	uvarint stream count
//	uvarint name length, name bytes (display label, may be empty)
//	uvarint note length, note bytes (provenance, may be empty)
//	chunks...
//	terminator
//
// Each chunk carries a run of records from one stream:
//
//	uvarint marker            stream index + 1 (0 marks the terminator)
//	uvarint record count
//	uvarint payload length
//	payload                   records (see appendRecord)
//	uint32le CRC32 (IEEE)     checksum of the payload bytes
//
// The terminator is marker 0 followed by the uvarint total record count
// across all streams, so readers distinguish a clean end of container
// from a truncated file even on unseekable inputs (pipes, stdin).
package traceio

import (
	"bufio"
	"bytes"
	"encoding/binary"
	"errors"
	"fmt"
	"hash/crc32"
	"io"

	"repro/internal/isa"
)

// Magic identifies a container file.
var Magic = [8]byte{'D', 'A', 'E', 'T', 'R', 'C', 'N', 'T'}

// ContainerVersion is the current container format version.
const ContainerVersion = 1

// Limits that keep a corrupted header from driving huge allocations.
const (
	// MaxStreams bounds the per-context stream count.
	MaxStreams = 1 << 16
	// MaxChunkPayload bounds one chunk's payload length.
	MaxChunkPayload = 1 << 26
	// maxMetaLen bounds the header's name/note strings.
	maxMetaLen = 1 << 16
	// chunkTargetBytes is the writer's per-stream flush threshold.
	chunkTargetBytes = 32 << 10
)

// Error sentinels, classifiable with errors.Is anywhere up the stack.
var (
	// ErrBadMagic marks a file that is not a trace container.
	ErrBadMagic = errors.New("traceio: bad magic (not a DAE trace container)")
	// ErrBadVersion marks an unsupported container version.
	ErrBadVersion = errors.New("traceio: unsupported format version")
	// ErrTruncated marks a container that ends early (inside its header,
	// mid-chunk or before its terminator): the producer crashed or the
	// copy was cut short.
	ErrTruncated = errors.New("traceio: truncated trace")
	// ErrChecksum marks a chunk whose payload fails its CRC.
	ErrChecksum = errors.New("traceio: chunk checksum mismatch")
	// ErrCorrupt marks structurally invalid contents (bad stream index,
	// record count/payload disagreement, invalid record encoding, or a
	// record the isa model rejects, such as a register out of range).
	ErrCorrupt = errors.New("traceio: corrupt trace")
)

// Header is the container's self-description.
type Header struct {
	// Streams is the number of instruction streams (one per hardware
	// context of the capturing run).
	Streams int
	// Name is a display label (typically the workload, e.g. "swim t=4").
	Name string
	// Note records provenance: who produced the trace, from what.
	Note string
}

// ----------------------------------------------------------------------------
// Record encoding (a container chunk's payload).

// appendRecord encodes one instruction record onto buf:
//
//	byte    flags: bits 0-2 op, bit 3 taken, bit 4 has-addr
//	uvarint pc
//	byte    dest, src1, src2 (0xFF = none)
//	if has-addr: uvarint addr, byte size
func appendRecord(buf []byte, in *isa.Inst) []byte {
	flags := byte(in.Op) & 0x7
	if in.Taken {
		flags |= 1 << 3
	}
	hasAddr := in.IsMem()
	if hasAddr {
		flags |= 1 << 4
	}
	var tmp [binary.MaxVarintLen64]byte
	buf = append(buf, flags)
	buf = append(buf, tmp[:binary.PutUvarint(tmp[:], in.PC)]...)
	buf = append(buf, byte(in.Dest), byte(in.Src1), byte(in.Src2))
	if hasAddr {
		buf = append(buf, tmp[:binary.PutUvarint(tmp[:], in.Addr)]...)
		buf = append(buf, in.Size)
	}
	return buf
}

// decodeRecord decodes one record from p into in, returning the bytes
// consumed. Every record must pass validateRecord, so no decoded trace
// can name a register the core has no entry for. Errors are
// ErrCorrupt-wrapped: a container payload passed its CRC, so a malformed
// record means a producer bug, not line noise.
func decodeRecord(p []byte, in *isa.Inst) (int, error) {
	if len(p) < 1 {
		return 0, fmt.Errorf("%w: empty record", ErrCorrupt)
	}
	flags := p[0]
	op := isa.Op(flags & 0x7)
	i := 1
	pc, n := binary.Uvarint(p[i:])
	if n <= 0 {
		return 0, fmt.Errorf("%w: bad pc varint", ErrCorrupt)
	}
	i += n
	if len(p) < i+3 {
		return 0, fmt.Errorf("%w: short register bytes", ErrCorrupt)
	}
	*in = isa.Inst{
		PC:    pc,
		Op:    op,
		Dest:  isa.Reg(p[i]),
		Src1:  isa.Reg(p[i+1]),
		Src2:  isa.Reg(p[i+2]),
		Taken: flags&(1<<3) != 0,
	}
	i += 3
	if flags&(1<<4) != 0 {
		addr, n := binary.Uvarint(p[i:])
		if n <= 0 {
			return 0, fmt.Errorf("%w: bad addr varint", ErrCorrupt)
		}
		i += n
		if len(p) < i+1 {
			return 0, fmt.Errorf("%w: short size byte", ErrCorrupt)
		}
		in.Addr = addr
		in.Size = p[i]
		i++
	}
	if err := validateRecord(in); err != nil {
		return 0, fmt.Errorf("%w: %w", ErrCorrupt, err)
	}
	return i, nil
}

// ----------------------------------------------------------------------------
// Writer.

// Writer encodes a multi-stream container. Records append to per-stream
// buffers and flush as CRC-checked chunks; Close writes the remaining
// chunks and the terminator (it does not close the underlying writer).
type Writer struct {
	w       *bufio.Writer
	h       Header
	payload [][]byte // pending chunk payload per stream
	pending []int64  // pending record count per stream
	counts  []int64  // total records written per stream
	total   int64
	closed  bool
	err     error
}

// NewWriter writes the container header for h and returns a Writer.
func NewWriter(w io.Writer, h Header) (*Writer, error) {
	if h.Streams <= 0 || h.Streams > MaxStreams {
		return nil, fmt.Errorf("traceio: stream count %d out of range [1,%d]", h.Streams, MaxStreams)
	}
	if len(h.Name) > maxMetaLen || len(h.Note) > maxMetaLen {
		return nil, fmt.Errorf("traceio: header name/note exceed %d bytes", maxMetaLen)
	}
	bw := bufio.NewWriterSize(w, 1<<16)
	if _, err := bw.Write(Magic[:]); err != nil {
		return nil, fmt.Errorf("traceio: writing magic: %w", err)
	}
	var tmp [binary.MaxVarintLen64]byte
	writeUvarint := func(v uint64) error {
		_, err := bw.Write(tmp[:binary.PutUvarint(tmp[:], v)])
		return err
	}
	for _, v := range []uint64{ContainerVersion, uint64(h.Streams)} {
		if err := writeUvarint(v); err != nil {
			return nil, fmt.Errorf("traceio: writing header: %w", err)
		}
	}
	for _, s := range []string{h.Name, h.Note} {
		if err := writeUvarint(uint64(len(s))); err != nil {
			return nil, fmt.Errorf("traceio: writing header: %w", err)
		}
		if _, err := bw.WriteString(s); err != nil {
			return nil, fmt.Errorf("traceio: writing header: %w", err)
		}
	}
	return &Writer{
		w:       bw,
		h:       h,
		payload: make([][]byte, h.Streams),
		pending: make([]int64, h.Streams),
		counts:  make([]int64, h.Streams),
	}, nil
}

// Counts returns the per-stream record totals written so far.
func (w *Writer) Counts() []int64 { return append([]int64(nil), w.counts...) }

// Append encodes one record onto the given stream.
func (w *Writer) Append(stream int, in *isa.Inst) error {
	if w.err != nil {
		return w.err
	}
	if w.closed {
		return errors.New("traceio: append after Close")
	}
	if stream < 0 || stream >= w.h.Streams {
		return fmt.Errorf("traceio: stream %d out of range [0,%d)", stream, w.h.Streams)
	}
	if !in.Op.Valid() {
		return fmt.Errorf("traceio: invalid op %d", in.Op)
	}
	w.payload[stream] = appendRecord(w.payload[stream], in)
	w.pending[stream]++
	w.counts[stream]++
	w.total++
	if len(w.payload[stream]) >= chunkTargetBytes {
		return w.flushStream(stream)
	}
	return nil
}

// AppendAll drains r onto the given stream and returns the record count.
func (w *Writer) AppendAll(stream int, r interface{ Next(*isa.Inst) bool }) (int64, error) {
	var in isa.Inst
	var n int64
	for r.Next(&in) {
		if err := w.Append(stream, &in); err != nil {
			return n, err
		}
		n++
	}
	return n, nil
}

// flushStream emits the stream's pending records as one chunk.
func (w *Writer) flushStream(stream int) error {
	p := w.payload[stream]
	if len(p) == 0 {
		return nil
	}
	var tmp [binary.MaxVarintLen64]byte
	for _, v := range []uint64{uint64(stream) + 1, uint64(w.pending[stream]), uint64(len(p))} {
		if _, err := w.w.Write(tmp[:binary.PutUvarint(tmp[:], v)]); err != nil {
			return w.fail(err)
		}
	}
	if _, err := w.w.Write(p); err != nil {
		return w.fail(err)
	}
	var crc [4]byte
	binary.LittleEndian.PutUint32(crc[:], crc32.ChecksumIEEE(p))
	if _, err := w.w.Write(crc[:]); err != nil {
		return w.fail(err)
	}
	w.payload[stream] = p[:0]
	w.pending[stream] = 0
	return nil
}

func (w *Writer) fail(err error) error {
	w.err = fmt.Errorf("traceio: writing chunk: %w", err)
	return w.err
}

// Close flushes every pending chunk and writes the terminator.
func (w *Writer) Close() error {
	if w.err != nil {
		return w.err
	}
	if w.closed {
		return nil
	}
	w.closed = true
	for s := 0; s < w.h.Streams; s++ {
		if err := w.flushStream(s); err != nil {
			return err
		}
	}
	var tmp [1 + binary.MaxVarintLen64]byte
	n := 1 // marker 0
	tmp[0] = 0
	n += binary.PutUvarint(tmp[1:], uint64(w.total))
	if _, err := w.w.Write(tmp[:n]); err != nil {
		return w.fail(err)
	}
	if err := w.w.Flush(); err != nil {
		return w.fail(err)
	}
	return nil
}

// ----------------------------------------------------------------------------
// Reading.

// ReadAll decodes a whole container into per-stream instruction slices:
// it validates the header, then decodes each CRC-checked chunk straight
// into its stream's slice up to the terminator. It never seeks, so it
// works on pipes and stdin.
func ReadAll(r io.Reader) (Header, [][]isa.Inst, error) {
	br, ok := r.(*bufio.Reader)
	if !ok {
		br = bufio.NewReaderSize(r, 1<<16)
	}
	h, err := readHeader(br)
	if err != nil {
		return Header{}, nil, err
	}
	streams, err := readChunks(br, h.Streams)
	if err != nil {
		return h, nil, err
	}
	return h, streams, nil
}

// readHeader checks the magic and version and reads the header.
func readHeader(br *bufio.Reader) (Header, error) {
	var got [8]byte
	if _, err := io.ReadFull(br, got[:]); err != nil {
		if err == io.EOF || err == io.ErrUnexpectedEOF {
			return Header{}, fmt.Errorf("%w: short magic", ErrTruncated)
		}
		return Header{}, fmt.Errorf("traceio: reading magic: %w", err)
	}
	if got != Magic {
		return Header{}, ErrBadMagic
	}
	v, err := binary.ReadUvarint(br)
	if err != nil {
		return Header{}, fmt.Errorf("%w: missing version", ErrTruncated)
	}
	if v != ContainerVersion {
		return Header{}, fmt.Errorf("%w: %d", ErrBadVersion, v)
	}
	streams, err := binary.ReadUvarint(br)
	if err != nil {
		return Header{}, fmt.Errorf("%w: missing stream count", ErrTruncated)
	}
	if streams == 0 || streams > MaxStreams {
		return Header{}, fmt.Errorf("%w: stream count %d out of range [1,%d]", ErrCorrupt, streams, MaxStreams)
	}
	h := Header{Streams: int(streams)}
	for _, dst := range []*string{&h.Name, &h.Note} {
		n, err := binary.ReadUvarint(br)
		if err != nil {
			return Header{}, fmt.Errorf("%w: missing header string", ErrTruncated)
		}
		if n > maxMetaLen {
			return Header{}, fmt.Errorf("%w: header string of %d bytes", ErrCorrupt, n)
		}
		buf := make([]byte, n)
		if _, err := io.ReadFull(br, buf); err != nil {
			return Header{}, fmt.Errorf("%w: short header string", ErrTruncated)
		}
		*dst = string(buf)
	}
	return h, nil
}

// readChunks decodes the chunks of an n-stream container, in file
// order, into per-stream slices, and checks the terminator's total.
func readChunks(br *bufio.Reader, n int) ([][]isa.Inst, error) {
	streams := make([][]isa.Inst, n)
	var total int64
	var payload []byte
	for {
		marker, err := binary.ReadUvarint(br)
		if err != nil {
			return nil, fmt.Errorf("%w: container ends without terminator", ErrTruncated)
		}
		if marker == 0 {
			declared, err := binary.ReadUvarint(br)
			if err != nil {
				return nil, fmt.Errorf("%w: terminator missing record total", ErrTruncated)
			}
			if int64(declared) != total {
				return nil, fmt.Errorf("%w: terminator declares %d records, decoded %d", ErrCorrupt, declared, total)
			}
			return streams, nil
		}
		if marker > uint64(n) {
			return nil, fmt.Errorf("%w: chunk names stream %d of %d", ErrCorrupt, marker-1, n)
		}
		count, err := binary.ReadUvarint(br)
		if err != nil {
			return nil, fmt.Errorf("%w: chunk missing record count", ErrTruncated)
		}
		plen, err := binary.ReadUvarint(br)
		if err != nil {
			return nil, fmt.Errorf("%w: chunk missing payload length", ErrTruncated)
		}
		if count == 0 || plen == 0 || plen > MaxChunkPayload {
			return nil, fmt.Errorf("%w: chunk with %d records, %d payload bytes", ErrCorrupt, count, plen)
		}
		// Grow the buffer as bytes arrive, so a hostile length costs
		// memory only for payload that is really there.
		buf := bytes.NewBuffer(payload[:0])
		_, err = io.CopyN(buf, br, int64(plen))
		payload = buf.Bytes()
		if err != nil {
			return nil, fmt.Errorf("%w: chunk payload cut short", ErrTruncated)
		}
		var crc [4]byte
		if _, err := io.ReadFull(br, crc[:]); err != nil {
			return nil, fmt.Errorf("%w: chunk checksum cut short", ErrTruncated)
		}
		s := int(marker - 1)
		if crc32.ChecksumIEEE(payload) != binary.LittleEndian.Uint32(crc[:]) {
			return nil, fmt.Errorf("%w (stream %d)", ErrChecksum, s)
		}
		off := 0
		for ; count > 0; count-- {
			var in isa.Inst
			k, err := decodeRecord(payload[off:], &in)
			if err != nil {
				return nil, fmt.Errorf("%w (stream %d record %d)", err, s, len(streams[s]))
			}
			off += k
			streams[s] = append(streams[s], in)
			total++
		}
		if off != len(payload) {
			return nil, fmt.Errorf("%w: chunk of stream %d has %d trailing payload bytes", ErrCorrupt, s, len(payload)-off)
		}
	}
}
