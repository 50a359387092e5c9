// Package workload synthesizes the instruction streams the simulator is
// evaluated with.
//
// The paper traces the ten SPEC FP95 benchmarks on DEC Alpha hardware with
// ATOM. Those traces are not redistributable, so this package generates
// synthetic equivalents: each benchmark is modelled as a set of loop-nest
// kernels over strided array streams, parameterised to reproduce the
// properties that drive the paper's results —
//
//   - instruction mix (the AP/EP load balance of Section 3.1);
//   - floating-point chain ILP (the EP's in-order issue throughput);
//   - working-set size and stride versus the 64 KB L1 (the miss ratios of
//     Figure 1-c);
//   - address-stream regularity and loop predictability (AP run-ahead);
//   - indirect (gather) integer loads with short scheduling distance (the
//     integer perceived latency of Figure 1-b);
//   - floating-point-conditional branches that force the AP to wait for
//     the EP — loss-of-decoupling events (fpppp's behaviour in Fig 1-a).
//
// Generation is streaming (trace.Reader), deterministic for a given seed,
// and infinite: kernels loop forever, so run length is set by the
// simulation's instruction budget, as in the paper's 100M-instruction
// windows.
package workload

import (
	"fmt"
	"reflect"
	"sync"

	"repro/internal/isa"
	"repro/internal/rng"
	"repro/internal/trace"
)

// StreamSpec describes one array access stream of a kernel.
type StreamSpec struct {
	// Name labels the stream in reports.
	Name string
	// SizeBytes is the working set the stream sweeps (wraps around).
	SizeBytes int
	// StrideBytes is the per-advance stride. With 32-byte cache lines a
	// stride-8 stream misses ~25% of its advances in steady state,
	// stride-32 ~100%, and a stream whose SizeBytes fits in L1 almost
	// never misses.
	StrideBytes int
	// Reuse is the number of consecutive accesses made to each position
	// before the stream advances (0 behaves as 1). Stencil and tiled
	// codes re-read neighbouring elements, so each cache line serves
	// Reuse×(line/stride) accesses; the per-access miss rate is
	// stride/(32×Reuse). This is the main knob for a benchmark's miss
	// ratio.
	Reuse int
}

// reuse returns the effective reuse factor.
func (s StreamSpec) reuse() int {
	if s.Reuse <= 0 {
		return 1
	}
	return s.Reuse
}

// IntLoadSpec describes the integer (address/index) load behaviour of a
// kernel.
type IntLoadSpec struct {
	// Stream is the index-array stream the integer load reads.
	Stream int
	// Every emits the integer load once per that many iterations (0 =
	// never).
	Every int
	// Feeds makes the following FP load's address register depend on the
	// loaded value (a gather), so AP progress stalls on the integer load.
	Feeds bool
	// Dist is the number of instruction slots between the integer load
	// and its dependent use — the "static scheduling quality" of the
	// paper's Figure 1-b discussion. Larger distances hide more latency.
	Dist int
}

// Kernel is one loop nest of a benchmark.
type Kernel struct {
	// Name labels the kernel.
	Name string
	// Weight is the number of inner iterations run before rotating to the
	// benchmark's next kernel.
	Weight int
	// InnerTrip is the inner-loop trip count; the closing branch is taken
	// InnerTrip-1 times then falls through, which a 2-bit BHT predicts
	// well for large trips.
	InnerTrip int
	// FPLoads lists the streams loaded into FP registers each iteration.
	FPLoads []int
	// Stores lists the streams written each iteration.
	Stores []int
	// IntLoad configures the kernel's integer load behaviour.
	IntLoad IntLoadSpec
	// FPOps is the number of floating-point operations per iteration.
	FPOps int
	// FPChains is the number of independent accumulator chains the FPOps
	// are distributed over — the EP's exploitable ILP.
	FPChains int
	// IntOps is the number of additional integer operations per iteration
	// (index arithmetic beyond the per-stream bumps).
	IntOps int
	// LODEvery inserts a loss-of-decoupling block (FP compare → FP-to-int
	// move → data-dependent branch) once per that many iterations (0 =
	// never). The move executes in the AP but reads an EP register, so
	// the AP drains the EP's backlog before proceeding.
	LODEvery int
	// LODTakenProb is the probability the LOD branch is taken
	// (data-dependent, hence mispredict-prone).
	LODTakenProb float64
}

// Benchmark is a named synthetic program.
type Benchmark struct {
	// Name is the SPEC FP95 benchmark the parameters model.
	Name string
	// Seed drives the benchmark's data-dependent randomness.
	Seed uint64
	// Streams are the arrays the kernels sweep.
	Streams []StreamSpec
	// Kernels are the loop nests, rotated by weight.
	Kernels []Kernel
}

// Validate checks the benchmark definition for consistency.
func (b Benchmark) Validate() error {
	if b.Name == "" {
		return fmt.Errorf("workload: benchmark without a name")
	}
	if len(b.Streams) == 0 || len(b.Streams) > maxStreams {
		return fmt.Errorf("workload %s: %d streams (1..%d supported)", b.Name, len(b.Streams), maxStreams)
	}
	for i, s := range b.Streams {
		if s.SizeBytes <= 0 || s.StrideBytes <= 0 {
			return fmt.Errorf("workload %s: stream %d has non-positive geometry", b.Name, i)
		}
		if s.StrideBytes > s.SizeBytes {
			return fmt.Errorf("workload %s: stream %d stride exceeds size", b.Name, i)
		}
	}
	if len(b.Kernels) == 0 {
		return fmt.Errorf("workload %s: no kernels", b.Name)
	}
	for _, k := range b.Kernels {
		if k.Weight <= 0 || k.InnerTrip <= 1 {
			return fmt.Errorf("workload %s/%s: weight/trip must be positive (trip>1)", b.Name, k.Name)
		}
		if len(k.FPLoads) == 0 && k.FPOps > 0 {
			return fmt.Errorf("workload %s/%s: FP ops without FP loads", b.Name, k.Name)
		}
		if len(k.FPLoads) > 8 || len(k.Stores) > 4 {
			return fmt.Errorf("workload %s/%s: too many loads/stores per iteration", b.Name, k.Name)
		}
		if k.FPOps > 0 && (k.FPChains <= 0 || k.FPChains > 8) {
			return fmt.Errorf("workload %s/%s: FP chains %d out of range 1..8", b.Name, k.Name, k.FPChains)
		}
		for _, s := range append(append([]int{}, k.FPLoads...), k.Stores...) {
			if s < 0 || s >= len(b.Streams) {
				return fmt.Errorf("workload %s/%s: stream index %d out of range", b.Name, k.Name, s)
			}
		}
		if k.IntLoad.Every > 0 {
			if k.IntLoad.Stream < 0 || k.IntLoad.Stream >= len(b.Streams) {
				return fmt.Errorf("workload %s/%s: int-load stream out of range", b.Name, k.Name)
			}
		}
		if k.LODEvery > 0 && (k.LODTakenProb < 0 || k.LODTakenProb > 1) {
			return fmt.Errorf("workload %s/%s: LOD probability %v out of range", b.Name, k.Name, k.LODTakenProb)
		}
	}
	return nil
}

// maxStreams bounds the per-kernel register usage.
const maxStreams = 10

// ReaderOpts configures a benchmark trace generator.
type ReaderOpts struct {
	// AddrOffset shifts every address; per-thread offsets give each
	// context its own address space (the paper's multiprogrammed mixes),
	// which makes the combined L1 working set grow with the thread count.
	AddrOffset uint64
	// Seed perturbs the benchmark's base seed (different "inputs"). The
	// generator draws only the outcomes of loss-of-decoupling branches,
	// so the seed changes the stream only of a benchmark with a kernel
	// whose LODEvery > 0 (of the builtins: su2cor, hydro2d, fpppp and
	// wave5); PCs, ops and addresses never depend on it.
	Seed uint64
}

// NewReader returns an infinite instruction stream for the benchmark. It
// panics on an invalid benchmark definition (the built-in set is validated
// by tests; custom definitions should be validated by the caller).
//
// A built-in benchmark generates from the program compiled once per
// process and shared by every reader (see builtinPrograms); any other
// definition is compiled for its reader alone.
//
// Streams are interned on reuse: when a second reader asks for the same
// (benchmark spec, options) pair, the instructions are materialized into
// a shared packed buffer, as far as InternBudgetBytes allows, and
// replayed from then on (see intern.go). Set InternBudgetBytes to 0 to
// force live generation.
func (b Benchmark) NewReader(opts ReaderOpts) trace.Reader {
	if err := b.Validate(); err != nil {
		panic(err)
	}
	if InternBudgetBytes > 0 {
		if s := internFor(b, opts); s != nil {
			return &internReader{s: s}
		}
	}
	return b.newGenerator(opts)
}

// newGenerator builds a live generator over b's program.
func (b Benchmark) newGenerator(opts ReaderOpts) *generator {
	g := &generator{}
	g.reset(programFor(b), opts)
	return g
}

// Iteration templates.
//
// A kernel iteration's static shape — which slots are live, which
// registers they name, the closing branch's outcome — is fixed by four
// bits of loop state, so a kernel has at most numShapes distinct
// iterations. Each is compiled into a template: the iteration's records
// with every field final except the ones drawn at generation time (a
// memory access's address, the LoD branch's outcome), which the shape
// lists as draws, in slot order. Generation copies template records and
// performs the draws in slot order as the records are read. The stream
// positions and the rng are private to the generator, so drawing a field
// when its record is read, rather than when its iteration starts, yields
// the same values.
const (
	shapeOdd     = 1 << iota // odd iteration: the index load rotates to r14
	shapeIntLoad             // the integer load (and its padding) is live
	shapeLoD                 // the loss-of-decoupling block is live
	shapeTaken               // the closing branch is taken
	numShapes    = 1 << iota
)

// Slot tags: what generation draws into a template record.
const (
	tagPlain  = iota // nothing: the record is final
	tagLoD           // Taken, from the benchmark's rng
	tagStream        // Addr, from stream tag-tagStream
)

// draw names one template record whose field generation draws.
type draw struct {
	slot int   // index into shape.insts
	tag  uint8 // tagLoD or a tagStream
}

// memSlot is one load or store of a template, as Skip reports it.
type memSlot struct {
	slot   int32
	stream uint8 // the stream its address advances
	store  bool
}

// brSlot is one branch of a template, as Skip reports it.
type brSlot struct {
	slot  int32
	pc    uint64
	taken bool // the fixed outcome, unless lod
	lod   bool // the outcome is drawn from the rng (tagLoD)
}

// shape is one compiled iteration template.
type shape struct {
	insts   []isa.Inst
	draws   []draw  // the records that draw, in slot order, then a sentinel
	lodProb float64 // the kernel's LODTakenProb, for tagLoD draws
	// mems and brs list the loads and stores, and the branches, in slot
	// order: all that Skip reports. Only draws of one stream, or of the
	// rng, depend on each other's order, so the two lists are walked
	// apart.
	mems []memSlot
	brs  []brSlot
}

// kernelProgram is one kernel compiled: its spec, whose periods pick
// the template of each iteration, and every template.
type kernelProgram struct {
	Kernel
	shapes [numShapes]shape
}

// program is a benchmark compiled for generation. Every template is
// built up front, so a program is immutable and readers share it without
// locks; it is independent of the reader options, so every segment a mix
// reader generates from one benchmark shares one too.
type program struct {
	bench   Benchmark
	kernels []kernelProgram
}

func compile(b Benchmark) *program {
	p := &program{bench: b, kernels: make([]kernelProgram, len(b.Kernels))}
	for ki, k := range b.Kernels {
		kp := &p.kernels[ki]
		kp.Kernel = k
		for sh := range kp.shapes {
			kp.shapes[sh] = p.build(ki, sh)
		}
	}
	return p
}

// builtinPrograms returns the built-in benchmarks compiled, in the
// paper's order. They are compiled on first use rather than at package
// init, so a process that never generates pays nothing, and then shared
// by every reader for the life of the process.
var builtinPrograms = sync.OnceValue(func() []*program {
	bs := builtins()
	progs := make([]*program, len(bs))
	for i, b := range bs {
		progs[i] = compile(b)
	}
	return progs
})

// programFor returns the shared program when b is a built-in benchmark
// and compiles b otherwise.
func programFor(b Benchmark) *program {
	for _, p := range builtinPrograms() {
		if p.bench.Name == b.Name && reflect.DeepEqual(p.bench, b) {
			return p
		}
	}
	return compile(b)
}

// Register conventions (architectural, per kernel iteration):
//
//	r1..r10  stream base registers
//	r13,r14  integer-load destinations (rotating)
//	r15      loop counter
//	r16      LOD condition register
//	r20,r21  integer scratch
//	f0..f7   accumulator chains
//	f8..f15  FP load temporaries (rotating)
//	f18      LOD compare temporary
const (
	regStreamBase = 1  // r1..r10
	regIdxA       = 13 // rotating int-load destinations
	regIdxB       = 14
	regCounter    = 15
	regLODCC      = 16
	regScratchA   = 20
	regScratchB   = 21
	fpChainBase   = 0  // f0..f7
	fpTempBase    = 8  // f8..f15
	fpLODTemp     = 16 // f16
)

// build compiles kernel ki's iteration of shape sh, assigning stable PCs
// per static slot: a suppressed block keeps its slots reserved.
func (p *program) build(ki, sh int) shape {
	k := &p.bench.Kernels[ki]
	s := shape{lodProb: k.LODTakenProb}

	// Stable code layout: per-benchmark base (derived from the seed) plus
	// per-kernel spacing, chosen to avoid systematic BHT aliasing between
	// kernels and benchmarks.
	pcBase := (p.bench.Seed&0xF)*0x1100 + 0x1000 + uint64(ki)*0x84c
	slot := 0
	emit := func(in isa.Inst, tag uint8) {
		in.PC = pcBase + uint64(slot)*4
		slot++
		if tag != tagPlain {
			s.draws = append(s.draws, draw{slot: len(s.insts), tag: tag})
		}
		switch at := int32(len(s.insts)); {
		case in.IsMem():
			s.mems = append(s.mems, memSlot{slot: at, stream: tag - tagStream, store: in.IsStore()})
		case in.IsBranch():
			s.brs = append(s.brs, brSlot{slot: at, pc: in.PC, taken: in.Taken, lod: tag == tagLoD})
		}
		s.insts = append(s.insts, in)
	}
	stream := func(i int) uint8 { return tagStream + uint8(i) }
	intReg, fpReg := isa.IntReg, isa.FPReg

	// 1. Index arithmetic: one bump of the shared counter plus any extra
	// integer ops. (Strength-reduced code: stream addressing reuses the
	// counter, so per-stream bumps are folded into one.)
	emit(isa.Inst{Op: isa.OpIntALU, Dest: intReg(regCounter), Src1: intReg(regCounter), Src2: isa.NoReg}, tagPlain)
	for i := 0; i < k.IntOps; i++ {
		d := regScratchA + i%2
		emit(isa.Inst{Op: isa.OpIntALU, Dest: intReg(d), Src1: intReg(d), Src2: intReg(regCounter)}, tagPlain)
	}

	// 2. Integer load (index/gather) in its reserved slot.
	idxDest := regIdxA + sh&shapeOdd // rotate destinations across iterations
	intLoadLive := sh&shapeIntLoad != 0
	if intLoadLive {
		emit(isa.Inst{
			Op:   isa.OpLoad,
			Dest: intReg(idxDest),
			Src1: intReg(regStreamBase + k.IntLoad.Stream), Src2: isa.NoReg,
			Size: 8,
		}, stream(k.IntLoad.Stream))
	} else {
		slot++
	}
	// Scheduling distance: pad with integer ops between the index load
	// and its dependent use (models compiler scheduling quality).
	if k.IntLoad.Every > 0 && k.IntLoad.Feeds {
		for i := 0; i < k.IntLoad.Dist; i++ {
			if intLoadLive {
				emit(isa.Inst{Op: isa.OpIntALU, Dest: intReg(regScratchB), Src1: intReg(regScratchB), Src2: isa.NoReg}, tagPlain)
			} else {
				slot++
			}
		}
	}

	// 3. FP loads. When the kernel gathers, the first FP load of an
	// iteration with a live integer load uses the loaded index as its
	// address register.
	for i, st := range k.FPLoads {
		src := intReg(regStreamBase + st)
		if i == 0 && intLoadLive && k.IntLoad.Feeds {
			src = intReg(idxDest)
		}
		emit(isa.Inst{
			Op:   isa.OpLoad,
			Dest: fpReg(fpTempBase + i),
			Src1: src, Src2: isa.NoReg,
			Size: 8,
		}, stream(st))
	}

	// 4. FP computation: round-robin the ops over the accumulator chains,
	// each consuming a loaded temporary.
	for i := 0; i < k.FPOps; i++ {
		chain := fpChainBase + i%k.FPChains
		temp := fpTempBase + i%max(1, len(k.FPLoads))
		emit(isa.Inst{Op: isa.OpFPALU, Dest: fpReg(chain), Src1: fpReg(chain), Src2: fpReg(temp)}, tagPlain)
	}

	// 5. Stores of chain results.
	for i, st := range k.Stores {
		chain := fpChainBase + i%max(1, k.FPChains)
		emit(isa.Inst{
			Op: isa.OpStore, Dest: isa.NoReg,
			Src1: fpReg(chain), Src2: intReg(regStreamBase + st),
			Size: 8,
		}, stream(st))
	}

	// 6. Loss-of-decoupling block in reserved slots: FP compare, FP→int
	// move (the AP instruction that must wait for the EP), and a
	// data-dependent branch.
	if k.LODEvery > 0 {
		if sh&shapeLoD != 0 {
			c0 := fpReg(fpChainBase)
			c1 := fpReg(fpChainBase + k.FPChains/2)
			emit(isa.Inst{Op: isa.OpFPALU, Dest: fpReg(fpLODTemp), Src1: c0, Src2: c1}, tagPlain)
			emit(isa.Inst{Op: isa.OpIntALU, Dest: intReg(regLODCC), Src1: fpReg(fpLODTemp), Src2: isa.NoReg}, tagPlain)
			emit(isa.Inst{Op: isa.OpBranch, Dest: isa.NoReg, Src1: intReg(regLODCC), Src2: isa.NoReg}, tagLoD)
		} else {
			slot += 3
		}
	}

	// 7. Inner-loop closing branch: taken except on loop exit.
	emit(isa.Inst{Op: isa.OpBranch, Dest: isa.NoReg, Src1: intReg(regCounter), Src2: isa.NoReg, Taken: sh&shapeTaken != 0}, tagPlain)
	// The sentinel lies past every slot, so scans for the next draw stop
	// on it without a length check.
	s.draws = append(s.draws, draw{slot: len(s.insts)})
	return s
}

// streamState is one array stream's generation state.
type streamState struct {
	pos    uint64 // byte position, < size
	size   uint64
	stride uint64 // <= size (Validate)
	base   uint64 // address of position 0
	reuse  int
	use    int // accesses made at the current position
}

// advance returns the stream's current address and steps it after the
// stream's reuse count is exhausted (stencil-style temporal reuse).
// pos < size and stride <= size, so one conditional subtract wraps.
func (s *streamState) advance() uint64 {
	addr := s.base + s.pos
	s.use++
	if s.use >= s.reuse {
		s.use = 0
		s.pos += s.stride
		if s.pos >= s.size {
			s.pos -= s.size
		}
	}
	return addr
}

// generator is the streaming kernel interpreter: it replays the current
// iteration's template and performs its draws.
type generator struct {
	prog    *program
	rng     rng.Source
	streams [maxStreams]streamState

	kernel    int // current kernel index
	kernIters int // iterations completed in the current kernel run
	// The current iteration's number within the kernel, modulo 2 and
	// modulo each of the kernel's periods: the counters that select its
	// shape without a division.
	odd, il, lod, trip int

	cur  *shape // the current iteration's template
	pos  int    // read cursor into cur.insts
	next int    // the first of cur.draws not yet performed
}

// reset positions g at the start of p's stream for opts.
func (g *generator) reset(p *program, opts ReaderOpts) {
	*g = generator{prog: p}
	g.rng.Seed(p.bench.Seed ^ (opts.Seed * 0x9e3779b97f4a7c15))
	for i, s := range p.bench.Streams {
		// Distinct 256 MB regions per stream keep streams apart in
		// memory, and a per-stream index skew spreads small
		// (cache-resident) streams across different L1 sets — without it
		// every stream would start at set 0 and resident streams would
		// thrash each other in the direct-mapped cache.
		g.streams[i] = streamState{
			size:   uint64(s.SizeBytes),
			stride: uint64(s.StrideBytes),
			base:   opts.AddrOffset + uint64(i+1)<<28 + uint64(i)*0x5340,
			reuse:  s.reuse(),
		}
	}
	g.selectShape()
}

// Next implements trace.Reader. The stream is infinite.
func (g *generator) Next(out *isa.Inst) bool {
	if g.pos == len(g.cur.insts) {
		g.nextIteration()
	}
	*out = g.cur.insts[g.pos]
	if d := g.cur.draws[g.next]; d.slot == g.pos {
		g.draw(out, d.tag)
		g.next++
	}
	g.pos++
	return true
}

// Fill implements trace.Filler: whole template runs are copied at once,
// then the draws they cover performed in slot order (draw's body, written
// out because the call would not be inlined). The stream is infinite, so
// dst is always filled.
func (g *generator) Fill(dst []isa.Inst) int {
	for n := 0; n < len(dst); {
		if g.pos == len(g.cur.insts) {
			g.nextIteration()
		}
		cur := g.cur
		k := copy(dst[n:], cur.insts[g.pos:])
		base, end := n-g.pos, g.pos+k // dst index of slot 0, end slot
		i := g.next
		for ; cur.draws[i].slot < end; i++ {
			d := cur.draws[i]
			in := &dst[base+d.slot]
			if d.tag == tagLoD {
				in.Taken = g.rng.Bool(cur.lodProb)
			} else {
				in.Addr = g.streams[d.tag-tagStream].advance()
			}
		}
		g.next, g.pos = i, end
		n += k
	}
	return len(dst)
}

// Skip implements trace.Skipper: it walks each template's memory and
// branch lists instead of copying its records, drawing addresses and LoD
// outcomes exactly as Fill would, and leaves pos and next where Fill
// would. The stream is infinite, so it always consumes n.
func (g *generator) Skip(refs *trace.Refs, base uint32, n int) int {
	mem, br := refs.Mem, refs.Br
	for done := 0; done < n; {
		if g.pos == len(g.cur.insts) {
			g.nextIteration()
		}
		cur := g.cur
		pos, end := int32(g.pos), int32(min(len(cur.insts), g.pos+n-done))
		idx := base + uint32(done) - uint32(pos) // the index of slot 0
		for _, m := range cur.mems {
			if m.slot >= end {
				break
			}
			if m.slot >= pos {
				mem = append(mem, trace.MemRef{Addr: g.streams[m.stream].advance(), Idx: idx + uint32(m.slot), Store: m.store})
			}
		}
		for _, b := range cur.brs {
			if b.slot >= end {
				break
			}
			if b.slot >= pos {
				if b.lod {
					b.taken = g.rng.Bool(cur.lodProb)
				}
				br = append(br, trace.BranchRef{PC: b.pc, Taken: b.taken})
			}
		}
		if int(end) == len(cur.insts) {
			g.next = len(cur.draws) - 1 // the sentinel
		} else {
			for cur.draws[g.next].slot < int(end) {
				g.next++
			}
		}
		g.pos = int(end)
		done += int(end - pos)
	}
	refs.Mem, refs.Br = mem, br
	return n
}

// draw fills in the generation-time field a tag names.
func (g *generator) draw(in *isa.Inst, tag uint8) {
	if tag == tagLoD {
		in.Taken = g.rng.Bool(g.cur.lodProb)
		return
	}
	in.Addr = g.streams[tag-tagStream].advance()
}

// nextIteration advances the kernel rotation state past the finished
// iteration and selects the next iteration's template.
func (g *generator) nextIteration() {
	k := &g.prog.kernels[g.kernel]
	g.kernIters++
	if g.kernIters >= k.Weight && len(g.prog.kernels) > 1 {
		g.kernel = (g.kernel + 1) % len(g.prog.kernels)
		g.kernIters, g.odd, g.il, g.lod, g.trip = 0, 0, 0, 0, 0
	} else {
		g.odd ^= shapeOdd
		g.il = step(g.il, k.IntLoad.Every)
		g.lod = step(g.lod, k.LODEvery)
		g.trip = step(g.trip, k.InnerTrip)
	}
	g.selectShape()
}

// step advances a counter modulo period (0: the counter only grows).
func step(c, period int) int {
	if c++; c == period {
		return 0
	}
	return c
}

// selectShape points g at the template its iteration counters select.
func (g *generator) selectShape() {
	k := &g.prog.kernels[g.kernel]
	sh := g.odd
	if k.IntLoad.Every > 0 && g.il == 0 {
		sh |= shapeIntLoad
	}
	if g.lod == k.LODEvery-1 {
		sh |= shapeLoD
	}
	if g.trip != k.InnerTrip-1 {
		sh |= shapeTaken
	}
	g.cur, g.pos, g.next = &k.shapes[sh], 0, 0
}

// InstsPerIteration returns the fixed slot count of one iteration of the
// kernel (reserved slots included), used by tests and documentation.
func (k Kernel) InstsPerIteration() int {
	n := 1 + k.IntOps // counter bump + scratch ops
	n++               // int-load slot
	if k.IntLoad.Every > 0 && k.IntLoad.Feeds {
		n += k.IntLoad.Dist
	}
	n += len(k.FPLoads)
	n += k.FPOps
	n += len(k.Stores)
	if k.LODEvery > 0 {
		n += 3
	}
	n++ // closing branch
	return n
}
