package workload

// Trace-file workloads: externally supplied instruction streams (a
// traceio container; other formats are converted by `dae-trace import`)
// served through the same trace.Reader interface as the synthetic
// generators.
//
// Unlike generator streams — infinite, re-derivable, interned chunk by
// chunk — a trace file is finite and already materialized on disk, so
// the PR 3 chunked interner (which grows streams unboundedly and assumes
// an infinite generator behind every chunk) is the wrong shape. Trace
// files get their own registry: the whole file is decoded once into
// per-stream instruction slices and retained under the same global
// InternBudgetBytes accounting the chunk interner uses. When retaining a
// file would blow the budget, the decode still happens but nothing is
// pinned — the "live fallback": every run re-reads the file, trading
// repeat I/O for bounded memory, with bit-identical streams either way.

import (
	"errors"
	"fmt"
	"io"
	"os"
	"sync"
	"unsafe"

	"repro/internal/isa"
	"repro/internal/trace"
	"repro/internal/traceio"
)

// instBytes is the in-memory footprint of one decoded record, for
// budget accounting (shared with the chunk interner's arithmetic).
const instBytes = int64(unsafe.Sizeof(isa.Inst{}))

var (
	traceFileMu sync.Mutex
	traceFiles  = map[string][][]isa.Inst{}
)

// traceFileStats reports the registry's entry count (tests only).
func traceFileStats() int {
	traceFileMu.Lock()
	defer traceFileMu.Unlock()
	return len(traceFiles)
}

// loadTraceStreams decodes the container at path into per-stream
// slices. Other formats are import-only, so a file that is not a
// container fails with the command that converts it.
func loadTraceStreams(path string) ([][]isa.Inst, error) {
	f, err := os.Open(path)
	if err != nil {
		return nil, fmt.Errorf("workload: opening trace: %w", err)
	}
	defer f.Close()
	_, streams, err := traceio.ReadAll(f)
	if errors.Is(err, traceio.ErrBadMagic) {
		return nil, fmt.Errorf("workload: %s: %w; only containers replay, convert it first with `dae-trace import -i %s -o FILE.dct`", path, err, path)
	}
	if err != nil {
		return nil, fmt.Errorf("workload: %s: %w", path, err)
	}
	return streams, nil
}

// traceStreamsFor returns the file's decoded streams, serving from the
// registry when the file was already ingested and retaining the decode
// under the intern budget otherwise.
func traceStreamsFor(path string) ([][]isa.Inst, error) {
	traceFileMu.Lock()
	if streams, ok := traceFiles[path]; ok {
		traceFileMu.Unlock()
		return streams, nil
	}
	traceFileMu.Unlock()

	// Decode outside the lock: files can be large and two concurrent
	// first sightings are rare (the runner ingests once per sweep).
	streams, err := loadTraceStreams(path)
	if err != nil {
		return nil, err
	}
	var total int64
	for _, s := range streams {
		total += int64(len(s))
	}
	bytes := total * instBytes
	if InternBudgetBytes > 0 && internUsed.Add(bytes) <= InternBudgetBytes {
		traceFileMu.Lock()
		if prior, ok := traceFiles[path]; ok {
			// Lost a first-sighting race: keep the published decode and
			// return this one's budget charge.
			internUsed.Add(-bytes)
			streams = prior
		} else {
			traceFiles[path] = streams
		}
		traceFileMu.Unlock()
	} else if InternBudgetBytes > 0 {
		// Budget exceeded: live fallback — serve this decode uncached so
		// memory stays bounded; later runs re-read the file.
		internUsed.Add(-bytes)
	}
	return streams, nil
}

// shiftedSlice replays insts with delta added to every memory address —
// the per-context address-space relocation applied when a container's
// stream count and the machine's context count differ.
func shiftedSlice(insts []isa.Inst, delta uint64) trace.Reader {
	if delta == 0 {
		return trace.Slice(insts)
	}
	i := 0
	return trace.Func(func(out *isa.Inst) bool {
		if i >= len(insts) {
			return false
		}
		*out = insts[i]
		i++
		if out.IsMem() {
			out.Addr += delta
		}
		return true
	})
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
	streams, err := traceStreamsFor(path)
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
		readers[t] = shiftedSlice(streams[s], delta)
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
