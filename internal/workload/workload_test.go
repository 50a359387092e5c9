package workload

import (
	"fmt"
	"testing"

	"repro/internal/isa"
	"repro/internal/trace"
)

// readN pulls n instructions from a reader into a slice.
func readN(t *testing.T, r trace.Reader, n int) []isa.Inst {
	t.Helper()
	out := make([]isa.Inst, n)
	for i := range out {
		if !r.Next(&out[i]) {
			t.Fatalf("stream ended at %d/%d", i, n)
		}
	}
	return out
}

func TestAllBuiltinsValid(t *testing.T) {
	bs := All()
	if len(bs) != 10 {
		t.Fatalf("%d built-in benchmarks, want 10 (SPEC FP95)", len(bs))
	}
	for _, b := range bs {
		if err := b.Validate(); err != nil {
			t.Errorf("%s: %v", b.Name, err)
		}
	}
}

func TestNamesMatchPaperOrder(t *testing.T) {
	want := []string{"tomcatv", "swim", "su2cor", "hydro2d", "mgrid", "applu", "turb3d", "apsi", "fpppp", "wave5"}
	got := Names()
	if len(got) != len(want) {
		t.Fatalf("names = %v", got)
	}
	for i := range want {
		if got[i] != want[i] {
			t.Errorf("name[%d] = %q, want %q", i, got[i], want[i])
		}
	}
}

func TestByName(t *testing.T) {
	b, err := ByName("fpppp")
	if err != nil || b.Name != "fpppp" {
		t.Fatalf("ByName(fpppp) = %v, %v", b.Name, err)
	}
	if _, err := ByName("nosuch"); err == nil {
		t.Fatal("unknown benchmark accepted")
	}
}

func TestValidateCatchesBadSpecs(t *testing.T) {
	good := func() Benchmark {
		b, _ := ByName("tomcatv")
		return b
	}
	cases := []struct {
		name string
		mut  func(*Benchmark)
	}{
		{"no name", func(b *Benchmark) { b.Name = "" }},
		{"no streams", func(b *Benchmark) { b.Streams = nil }},
		{"zero stride", func(b *Benchmark) { b.Streams[0].StrideBytes = 0 }},
		{"stride > size", func(b *Benchmark) { b.Streams[0].StrideBytes = b.Streams[0].SizeBytes * 2 }},
		{"no kernels", func(b *Benchmark) { b.Kernels = nil }},
		{"zero weight", func(b *Benchmark) { b.Kernels[0].Weight = 0 }},
		{"trip 1", func(b *Benchmark) { b.Kernels[0].InnerTrip = 1 }},
		{"bad stream ref", func(b *Benchmark) { b.Kernels[0].FPLoads = []int{99} }},
		{"bad store ref", func(b *Benchmark) { b.Kernels[0].Stores = []int{-1} }},
		{"chains 0", func(b *Benchmark) { b.Kernels[0].FPChains = 0 }},
		{"chains 9", func(b *Benchmark) { b.Kernels[0].FPChains = 9 }},
		{"bad LOD prob", func(b *Benchmark) { b.Kernels[0].LODEvery = 5; b.Kernels[0].LODTakenProb = 2 }},
		{"bad int-load stream", func(b *Benchmark) { b.Kernels[0].IntLoad = IntLoadSpec{Stream: 77, Every: 3} }},
	}
	for _, c := range cases {
		b := good()
		c.mut(&b)
		if err := b.Validate(); err == nil {
			t.Errorf("%s: accepted", c.name)
		}
	}
}

func TestGeneratorDeterminism(t *testing.T) {
	for _, b := range All() {
		r1 := b.NewReader(ReaderOpts{})
		r2 := b.NewReader(ReaderOpts{})
		var a, c isa.Inst
		for i := 0; i < 5000; i++ {
			ok1, ok2 := r1.Next(&a), r2.Next(&c)
			if !ok1 || !ok2 {
				t.Fatalf("%s: generator ended at %d", b.Name, i)
			}
			if a != c {
				t.Fatalf("%s: diverged at %d: %v vs %v", b.Name, i, a, c)
			}
		}
	}
}

// TestGeneratorSeedChangesOutcomes pins what the seed reaches: it draws
// only the outcomes of loss-of-decoupling branches, so two seeds give
// different streams exactly for the benchmarks with a LoD kernel, and
// never a different static shape (PCs, ops) or address.
func TestGeneratorSeedChangesOutcomes(t *testing.T) {
	for _, b := range All() {
		lod := false
		for _, k := range b.Kernels {
			lod = lod || k.LODEvery > 0
		}
		r1 := b.NewReader(ReaderOpts{Seed: 1})
		r2 := b.NewReader(ReaderOpts{Seed: 2})
		var a, c isa.Inst
		diff := 0
		for i := 0; i < 100_000; i++ {
			r1.Next(&a)
			r2.Next(&c)
			if a.PC != c.PC || a.Op != c.Op {
				t.Fatalf("%s: static shape diverged at %d", b.Name, i)
			}
			if a != c {
				if a.Op != isa.OpBranch {
					t.Fatalf("%s: seeds changed a non-branch record at %d: %+v vs %+v", b.Name, i, a, c)
				}
				diff++
			}
		}
		if got := diff > 0; got != lod {
			t.Errorf("%s: seeds changed %d records, has LoD kernel %v", b.Name, diff, lod)
		}
	}
}

func TestAddrOffsetShiftsEverything(t *testing.T) {
	b, _ := ByName("swim")
	r1 := b.NewReader(ReaderOpts{})
	r2 := b.NewReader(ReaderOpts{AddrOffset: 1 << 36})
	var a, c isa.Inst
	for i := 0; i < 5000; i++ {
		r1.Next(&a)
		r2.Next(&c)
		if a.IsMem() {
			if c.Addr != a.Addr+1<<36 {
				t.Fatalf("offset not applied at %d: %#x vs %#x", i, a.Addr, c.Addr)
			}
		}
	}
}

func TestStablePCsAcrossIterations(t *testing.T) {
	// Each static slot keeps its PC across iterations: collect the PC set
	// of the first 200 instructions and verify later instructions reuse
	// them (per kernel).
	b, _ := ByName("su2cor") // single-kernel benchmark
	r := b.NewReader(ReaderOpts{})
	perIter := b.Kernels[0].InstsPerIteration()
	var in isa.Inst
	pcs := map[uint64]bool{}
	for i := 0; i < perIter*3; i++ {
		r.Next(&in)
		pcs[in.PC] = true
	}
	for i := 0; i < perIter*50; i++ {
		r.Next(&in)
		if !pcs[in.PC] {
			t.Fatalf("fresh PC %#x after warmup (unstable code layout)", in.PC)
		}
	}
}

func TestValidInstructionStreams(t *testing.T) {
	for _, b := range All() {
		r := b.NewReader(ReaderOpts{})
		var in isa.Inst
		for i := 0; i < 20000; i++ {
			if !r.Next(&in) {
				t.Fatalf("%s: stream ended", b.Name)
			}
			if !in.Op.Valid() {
				t.Fatalf("%s: invalid op at %d", b.Name, i)
			}
			switch in.Op {
			case isa.OpLoad:
				if !in.Dest.Valid() || in.Size == 0 {
					t.Fatalf("%s: malformed load %+v", b.Name, in)
				}
			case isa.OpStore:
				if in.Dest.Valid() || !in.Src1.Valid() || in.Size == 0 {
					t.Fatalf("%s: malformed store %+v", b.Name, in)
				}
			case isa.OpFPALU:
				if !in.Dest.IsFP() {
					t.Fatalf("%s: FP op without FP dest %+v", b.Name, in)
				}
			case isa.OpBranch:
				if in.Dest.Valid() {
					t.Fatalf("%s: branch with dest %+v", b.Name, in)
				}
			}
		}
	}
}

func TestInstructionMixSane(t *testing.T) {
	// Aggregate mix across benchmarks: FP codes are load/FP heavy with
	// single-digit branch shares.
	for _, b := range All() {
		r := b.NewReader(ReaderOpts{})
		var in isa.Inst
		var counts [isa.NumOps]int
		const n = 50000
		for i := 0; i < n; i++ {
			r.Next(&in)
			counts[in.Op]++
		}
		loads := float64(counts[isa.OpLoad]) / n
		fp := float64(counts[isa.OpFPALU]) / n
		br := float64(counts[isa.OpBranch]) / n
		stores := float64(counts[isa.OpStore]) / n
		if loads < 0.10 || loads > 0.45 {
			t.Errorf("%s: load share %.2f out of range", b.Name, loads)
		}
		if fp < 0.25 || fp > 0.65 {
			t.Errorf("%s: FP share %.2f out of range", b.Name, fp)
		}
		if br <= 0 || br > 0.18 {
			t.Errorf("%s: branch share %.2f out of range", b.Name, br)
		}
		if stores <= 0 || stores > 0.2 {
			t.Errorf("%s: store share %.2f out of range", b.Name, stores)
		}
	}
}

func TestStreamAddressesWrap(t *testing.T) {
	b := Benchmark{
		Name:    "tiny",
		Seed:    1,
		Streams: []StreamSpec{{Name: "a", SizeBytes: 256, StrideBytes: 32}},
		Kernels: []Kernel{{
			Name: "k", Weight: 100, InnerTrip: 10,
			FPLoads: []int{0}, FPOps: 1, FPChains: 1,
		}},
	}
	r := b.NewReader(ReaderOpts{})
	var in isa.Inst
	seen := map[uint64]bool{}
	for i := 0; i < 1000; i++ {
		r.Next(&in)
		if in.IsLoad() {
			seen[in.Addr] = true
		}
	}
	if len(seen) != 256/32 {
		t.Fatalf("wrapping stream visited %d addresses, want %d", len(seen), 256/32)
	}
}

func TestInstsPerIterationMatchesEmission(t *testing.T) {
	for _, b := range All() {
		for _, k := range b.Kernels {
			// Run a single-kernel copy; the slot-0 counter bump is
			// emitted exactly once per iteration, so counting its PC
			// recurrences counts iterations.
			bb := b
			bb.Kernels = []Kernel{k}
			r := bb.NewReader(ReaderOpts{})
			var in isa.Inst
			r.Next(&in)
			firstPC := in.PC
			const iters = 200
			total := 1
			seen := 1
			for seen <= iters {
				if !r.Next(&in) {
					t.Fatalf("%s/%s: stream ended", b.Name, k.Name)
				}
				total++
				if in.PC == firstPC {
					seen++
				}
			}
			// total includes the bump of iteration iters+1.
			avg := float64(total-1) / float64(iters)
			maxSlots := k.InstsPerIteration()
			if avg > float64(maxSlots)+0.01 {
				t.Errorf("%s/%s: %.2f insts/iter exceeds slot count %d", b.Name, k.Name, avg, maxSlots)
			}
			if avg < 5 {
				t.Errorf("%s/%s: implausibly small iteration %.2f", b.Name, k.Name, avg)
			}
		}
	}
}

func TestMixRotationDiffersPerThread(t *testing.T) {
	r0 := Mix(0, MixOpts{SegmentLen: 100})
	r1 := Mix(1, MixOpts{SegmentLen: 100})
	var a, b isa.Inst
	diff := false
	for i := 0; i < 100; i++ {
		r0.Next(&a)
		r1.Next(&b)
		if a.PC != b.PC || a.Addr != b.Addr {
			diff = true
			break
		}
	}
	if !diff {
		t.Fatal("threads 0 and 1 see identical streams")
	}
}

func TestMixRotatesThroughAllBenchmarks(t *testing.T) {
	// With a short segment, the mix must cycle through distinct address
	// regions (streams of different benchmarks land in different 256 MB
	// regions only per stream index, so distinguish by behaviour: the
	// segment boundary changes the PC set).
	r := Mix(0, MixOpts{SegmentLen: 50})
	var in isa.Inst
	pcSets := map[uint64]bool{}
	for i := 0; i < 50*10; i++ {
		r.Next(&in)
		pcSets[in.PC] = true
	}
	// 10 benchmarks × distinct kernels: far more static PCs than one
	// benchmark alone would produce (its kernels are ≤ ~40 slots).
	if len(pcSets) < 100 {
		t.Fatalf("mix visited only %d static PCs; rotation broken?", len(pcSets))
	}
}

func TestMixEndless(t *testing.T) {
	r := Mix(3, MixOpts{SegmentLen: 64}).(trace.Filler)
	if n := r.Fill(make([]isa.Inst, 10_000)); n != 10_000 {
		t.Fatalf("mix ended after %d instructions", n)
	}
}

func TestMixAddressSpacesDisjoint(t *testing.T) {
	collect := func(tid int) map[uint64]bool {
		r := Mix(tid, MixOpts{SegmentLen: 1000})
		var in isa.Inst
		set := map[uint64]bool{}
		for i := 0; i < 5000; i++ {
			r.Next(&in)
			if in.IsMem() {
				set[in.Addr] = true
			}
		}
		return set
	}
	a, b := collect(0), collect(1)
	for addr := range a {
		if b[addr] {
			t.Fatalf("threads share address %#x", addr)
		}
	}
}

func TestMixNegativeThreadPanics(t *testing.T) {
	defer func() {
		if recover() == nil {
			t.Fatal("negative thread id accepted")
		}
	}()
	Mix(-1, MixOpts{})
}

// benchLive measures generation per instruction, one Next at a time, in
// the core's 64-record Fill batches, and skipped in 64-record batches as
// the functional warp reads a source.
func benchLive(b *testing.B, mk func() skipper) {
	b.Run("Next", func(b *testing.B) {
		r := mk()
		var in isa.Inst
		for i := 0; i < b.N; i++ {
			r.Next(&in)
		}
	})
	b.Run("Fill", func(b *testing.B) {
		r := mk()
		var buf [64]isa.Inst
		for n := 0; n < b.N; n += len(buf) {
			r.Fill(buf[:])
		}
	})
	b.Run("Skip", func(b *testing.B) {
		r := mk()
		var refs trace.Refs
		for n := 0; n < b.N; n += 64 {
			refs.Mem, refs.Br = refs.Mem[:0], refs.Br[:0]
			r.Skip(&refs, 0, 64)
		}
	})
}

func BenchmarkGenerator(b *testing.B) {
	bench, _ := ByName("swim")
	benchLive(b, func() skipper { return bench.newGenerator(ReaderOpts{}) })
}

func BenchmarkMixLive(b *testing.B) {
	benchLive(b, func() skipper { return newMixReader(0, MixOpts{}) })
}

func TestStreamReuseSlowsAdvance(t *testing.T) {
	mk := func(reuse int) Benchmark {
		return Benchmark{
			Name:    "reuse-test",
			Seed:    1,
			Streams: []StreamSpec{{Name: "a", SizeBytes: 1 << 20, StrideBytes: 8, Reuse: reuse}},
			Kernels: []Kernel{{
				Name: "k", Weight: 100, InnerTrip: 10,
				FPLoads: []int{0}, FPOps: 1, FPChains: 1,
			}},
		}
	}
	distinct := func(b Benchmark, n int) int {
		r := b.NewReader(ReaderOpts{})
		var in isa.Inst
		seen := map[uint64]bool{}
		loads := 0
		for loads < n {
			r.Next(&in)
			if in.IsLoad() {
				seen[in.Addr] = true
				loads++
			}
		}
		return len(seen)
	}
	// With Reuse=4, four consecutive accesses share an address: the
	// distinct-address count over N loads is ~N/4.
	base := distinct(mk(0), 400)
	reused := distinct(mk(4), 400)
	if base != 400 {
		t.Fatalf("no-reuse stream repeated addresses: %d distinct", base)
	}
	if reused != 100 {
		t.Fatalf("reuse-4 stream visited %d distinct addresses, want 100", reused)
	}
}

func TestThreadAddrOffsets(t *testing.T) {
	seen := map[uint64]bool{}
	for tid := 0; tid < 16; tid++ {
		off := ThreadAddrOffset(tid)
		if seen[off] {
			t.Fatalf("duplicate offset for thread %d", tid)
		}
		seen[off] = true
		if tid > 0 {
			// The cache-index skew must differ between threads so
			// corresponding streams do not alias pathologically.
			prev := ThreadAddrOffset(tid - 1)
			if (off&0xFFFF)>>5 == (prev&0xFFFF)>>5 {
				t.Fatalf("threads %d and %d share index bits", tid-1, tid)
			}
		}
	}
}

// Property: for any seed, two readers with different AddrOffset never
// touch common addresses (address-space isolation).
func TestQuickAddressIsolation(t *testing.T) {
	b, err := ByName("applu")
	if err != nil {
		t.Fatal(err)
	}
	r1 := b.NewReader(ReaderOpts{AddrOffset: ThreadAddrOffset(0)})
	r2 := b.NewReader(ReaderOpts{AddrOffset: ThreadAddrOffset(1)})
	var a, c isa.Inst
	set := map[uint64]bool{}
	for i := 0; i < 20000; i++ {
		r1.Next(&a)
		if a.IsMem() {
			set[a.Addr] = true
		}
	}
	for i := 0; i < 20000; i++ {
		r2.Next(&c)
		if c.IsMem() && set[c.Addr] {
			t.Fatalf("shared address %#x", c.Addr)
		}
	}
}

// fillMatchesNext drains a Filler in batches of the given sizes (cycled)
// and a twin through Next, requiring identical records.
func fillMatchesNext(t *testing.T, name string, f trace.Filler, twin trace.Reader, n int, batches []int) {
	t.Helper()
	buf := make([]isa.Inst, 0, 1024)
	var want isa.Inst
	for got, b := 0, 0; got < n; b++ {
		dst := buf[:batches[b%len(batches)]]
		if k := f.Fill(dst); k != len(dst) {
			t.Fatalf("%s: Fill wrote %d of %d records of an infinite stream", name, k, len(dst))
		}
		for i := range dst {
			twin.Next(&want)
			if dst[i] != want {
				t.Fatalf("%s: record %d: Fill %+v, Next %+v", name, got+i, dst[i], want)
			}
		}
		got += len(dst)
	}
}

// TestFillMatchesNext: Fill is Next in bulk, record for record, across
// iteration boundaries (odd batch sizes straddle them) and, for mixes,
// segment boundaries — including segments shorter than one iteration.
func TestFillMatchesNext(t *testing.T) {
	batches := []int{1, 3, 64, 7, 1000, 61, 2}
	for _, b := range All() {
		opts := ReaderOpts{Seed: 3, AddrOffset: ThreadAddrOffset(1)}
		fillMatchesNext(t, b.Name, b.newGenerator(opts), b.newGenerator(opts), 50_000, batches)
	}
	for _, seg := range []int64{1, 7, DefaultSegmentLen} {
		for tid := 0; tid < 2; tid++ {
			opts := MixOpts{SegmentLen: seg, Seed: 11}
			name := fmt.Sprintf("mix t=%d seg=%d", tid, seg)
			fillMatchesNext(t, name, newMixReader(tid, opts), newMixReader(tid, opts), 2*DefaultSegmentLen+123, batches)
		}
	}
}

// TestBuiltinReadersShareProgram: readers of a built-in benchmark
// generate from the process-wide program, while a definition that only
// shares a built-in's name gets its own.
func TestBuiltinReadersShareProgram(t *testing.T) {
	progs := builtinPrograms()
	for i, b := range All() {
		if g := b.newGenerator(ReaderOpts{Seed: 4}); g.prog != progs[i] {
			t.Errorf("%s: reader compiled a private program", b.Name)
		}
	}
	custom, err := ByName("swim")
	if err != nil {
		t.Fatal(err)
	}
	custom.Kernels = append([]Kernel(nil), custom.Kernels...)
	custom.Kernels[0].Weight++
	g := custom.newGenerator(ReaderOpts{})
	if g.prog == progs[1] {
		t.Fatal("a modified swim reused the built-in program")
	}
	if g.prog.bench.Kernels[0].Weight != custom.Kernels[0].Weight {
		t.Fatal("custom program compiled from the wrong definition")
	}
}

var mixSink *mixReader

// TestMixReaderBuildsNoProgram: after first use, a mix reader allocates
// only itself; every program it generates from is shared.
func TestMixReaderBuildsNoProgram(t *testing.T) {
	builtinPrograms()
	allocs := testing.AllocsPerRun(100, func() { mixSink = newMixReader(3, MixOpts{Seed: 9}) })
	if allocs > 1 {
		t.Fatalf("newMixReader made %v allocations, want 1 (the reader)", allocs)
	}
}
