package workload

// Trace-file workloads: externally supplied instruction streams (a
// traceio container; a text trace is converted by `dae-trace import`)
// served through the same trace.Reader interface as the synthetic
// generators.
//
// A container is decoded afresh for every run and nothing is kept
// between runs, so memory holds only the traces being replayed, and a
// file rewritten at the same path replays its new records. (Decoding
// costs about 100 ns per record, roughly a third of an exact replay.)

import (
	"errors"
	"fmt"
	"io"
	"os"

	"repro/internal/isa"
	"repro/internal/trace"
	"repro/internal/traceio"
)

// loadTraceStreams decodes the container at path into per-stream
// slices. Text traces are import-only, so a file that is not a
// container fails with the command that converts it.
func loadTraceStreams(path string) ([][]isa.Inst, error) {
	f, err := os.Open(path)
	if err != nil {
		return nil, fmt.Errorf("workload: opening trace: %w", err)
	}
	defer f.Close()
	_, streams, err := traceio.ReadAll(f)
	if errors.Is(err, traceio.ErrBadMagic) {
		return nil, fmt.Errorf("workload: %s: %w; only containers replay, so convert a text trace first with `dae-trace import -i %s -o FILE.dct`", path, err, path)
	}
	if err != nil {
		return nil, fmt.Errorf("workload: %s: %w", path, err)
	}
	return streams, nil
}

// traceReader replays one decoded stream with delta added to every
// memory address — the per-context address-space relocation applied
// when a container's stream count and the machine's context count
// differ. It implements trace.Filler, so the core copies whole batches.
type traceReader struct {
	insts []isa.Inst // the records not yet read; shared by the run's readers, never written
	delta uint64
}

// Next implements trace.Reader.
func (r *traceReader) Next(out *isa.Inst) bool {
	if len(r.insts) == 0 {
		return false
	}
	*out = r.insts[0]
	r.insts = r.insts[1:]
	if out.IsMem() {
		out.Addr += r.delta
	}
	return true
}

// Fill implements trace.Filler.
func (r *traceReader) Fill(dst []isa.Inst) int {
	n := copy(dst, r.insts)
	r.insts = r.insts[n:]
	if r.delta != 0 {
		for i := range dst[:n] {
			if dst[i].IsMem() {
				dst[i].Addr += r.delta
			}
		}
	}
	return n
}

// TraceSources builds one finite reader per hardware context from a
// trace container. A container with exactly `contexts` streams replays each
// stream on its context verbatim — the property behind the
// export/import byte-identity guarantee. Otherwise context t replays
// stream t mod S relocated into context t's address space (the same
// ThreadAddrOffset spacing the generators use), so any trace drives any
// machine shape deterministically.
func TraceSources(path string, contexts int) ([]trace.Reader, error) {
	if contexts <= 0 {
		return nil, fmt.Errorf("workload: trace sources for %d contexts", contexts)
	}
	streams, err := loadTraceStreams(path)
	if err != nil {
		return nil, err
	}
	if len(streams) == 0 {
		return nil, fmt.Errorf("workload: trace %s holds no streams", path)
	}
	readers := make([]trace.Reader, contexts)
	for t := 0; t < contexts; t++ {
		s := t % len(streams)
		delta := ThreadAddrOffset(t) - ThreadAddrOffset(s)
		readers[t] = &traceReader{insts: streams[s], delta: delta}
	}
	return readers, nil
}

// ExportTrace captures the exact per-context streams a simulation of
// the benchmark would consume — context t gets ThreadAddrOffset(t) and
// seed+t, the runner's construction — into a container with perStream
// records per stream. The returned counts are per stream.
func ExportTrace(w io.Writer, b Benchmark, contexts int, seed uint64, perStream int64, note string) ([]int64, error) {
	if err := b.Validate(); err != nil {
		return nil, err
	}
	if contexts <= 0 || perStream <= 0 {
		return nil, fmt.Errorf("workload: export wants positive contexts and per-stream count (got %d, %d)", contexts, perStream)
	}
	tw, err := traceio.NewWriter(w, traceio.Header{
		Streams: contexts,
		Name:    fmt.Sprintf("%s t=%d seed=%d", b.Name, contexts, seed),
		Note:    note,
	})
	if err != nil {
		return nil, err
	}
	for t := 0; t < contexts; t++ {
		r := b.NewReader(ReaderOpts{AddrOffset: ThreadAddrOffset(t), Seed: seed + uint64(t)})
		if _, err := tw.AppendAll(t, trace.Limit(r, perStream)); err != nil {
			return nil, err
		}
	}
	if err := tw.Close(); err != nil {
		return nil, err
	}
	return tw.Counts(), nil
}
