// Command dae-trace captures, converts, inspects and summarizes
// instruction traces. The trace container is the only format dae-sim
// replays; legacy, bin and text traces are import-only.
//
// Usage:
//
//	dae-trace export -bench swim -t 4 -n 1000000 -o swim.dct  # multi-stream container
//	dae-trace import -i ext.txt -format text -o ext.dct       # convert an external trace
//	dae-trace dump -i swim.dct -n 20                          # print records
//	dae-trace stat -i swim.dct                                # mix/footprint summary
//	cat old.trace | dae-trace import -i - -o old.dct          # any input reads stdin via -i -
//	dae-trace stat -bench fpppp -n 500000                     # stat a generator directly
//	dae-trace list                                            # the curated workload catalog
//
// Input formats are sniffed from their magic bytes (text is the
// magic-less fallback), so -format is only needed to override the
// detection.
package main

import (
	"flag"
	"fmt"
	"os"

	"repro/internal/isa"
	"repro/internal/trace"
	"repro/internal/traceio"
	"repro/internal/workload"
)

func main() {
	if len(os.Args) < 2 {
		usage()
		os.Exit(2)
	}
	cmd, args := os.Args[1], os.Args[2:]
	var err error
	switch cmd {
	case "export":
		err = cmdExport(args)
	case "import":
		err = cmdImport(args)
	case "dump":
		err = cmdDump(args)
	case "stat":
		err = cmdStat(args)
	case "list":
		err = cmdList()
	default:
		usage()
		os.Exit(2)
	}
	if err != nil {
		fmt.Fprintln(os.Stderr, "dae-trace:", err)
		os.Exit(1)
	}
}

func usage() {
	fmt.Fprintln(os.Stderr, `usage: dae-trace <export|import|dump|stat|list> [flags]
  export -bench NAME -o FILE [-t CONTEXTS] [-n PER-STREAM] [-seed S] [-note TEXT]
  import -i FILE|- -o FILE [-format auto|container|legacy|bin|text] [-name N] [-note TEXT]
  dump   -i FILE|- [-n COUNT] [-format F]
  stat   (-i FILE|- | -bench NAME -n COUNT) [-seed S] [-format F]
  list`)
}

func cmdList() error {
	for _, e := range workload.Catalog() {
		fmt.Printf("%-8s  %-9s  %d streams, %d kernels, ≤%d insts/iteration, %.1f MB footprint\n",
			e.Name, e.Kind, e.Streams, e.Kernels, e.InstsPerIteration,
			float64(e.FootprintBytes)/(1<<20))
		fmt.Printf("          %s\n", e.Provenance)
	}
	return nil
}

// readInput decodes the whole trace at path ("-" means stdin) in any
// accepted format into per-stream slices, plus the container header
// (single-stream formats report a synthesized one-stream header).
func readInput(path, format string) (traceio.Header, [][]isa.Inst, error) {
	f, err := traceio.ParseFormat(format)
	if err != nil {
		return traceio.Header{}, nil, err
	}
	if path == "-" {
		return traceio.Decode(os.Stdin, f)
	}
	file, err := os.Open(path)
	if err != nil {
		return traceio.Header{}, nil, err
	}
	defer file.Close()
	return traceio.Decode(file, f)
}

// cmdExport captures a built-in benchmark's exact per-context streams
// into a container, so `dae-sim -trace` replays what the generator would
// have produced bit-identically.
func cmdExport(args []string) error {
	fs := flag.NewFlagSet("export", flag.ExitOnError)
	bench := fs.String("bench", "", "benchmark name")
	contexts := fs.Int("t", 1, "hardware contexts (one stream per context)")
	n := fs.Int64("n", 1_000_000, "instructions per stream")
	out := fs.String("o", "", "output container file")
	seed := fs.Uint64("seed", 0, "workload seed")
	note := fs.String("note", "", "provenance note stored in the container")
	fs.Parse(args)
	if *bench == "" || *out == "" {
		return fmt.Errorf("export requires -bench and -o")
	}
	b, err := workload.ByName(*bench)
	if err != nil {
		return err
	}
	f, err := os.Create(*out)
	if err != nil {
		return err
	}
	defer f.Close()
	counts, err := workload.ExportTrace(f, b, *contexts, *seed, *n, *note)
	if err != nil {
		return err
	}
	var total int64
	for _, c := range counts {
		total += c
	}
	fmt.Printf("wrote %d records (%d streams × %d) to %s\n", total, len(counts), *n, *out)
	return nil
}

// cmdImport converts a trace in any accepted format into a container,
// validating every record on the way in.
func cmdImport(args []string) error {
	fs := flag.NewFlagSet("import", flag.ExitOnError)
	in := fs.String("i", "-", "input trace file (- reads stdin)")
	out := fs.String("o", "", "output container file")
	format := fs.String("format", "auto", "input format (auto, container, legacy, bin, text)")
	name := fs.String("name", "", "container display name (default: the input's, if any)")
	note := fs.String("note", "", "provenance note (default: the input's, if any)")
	fs.Parse(args)
	if *out == "" {
		return fmt.Errorf("import requires -o")
	}
	h, streams, err := readInput(*in, *format)
	if err != nil {
		return err
	}
	if *name == "" {
		*name = h.Name
	}
	if *note == "" {
		*note = h.Note
	}
	f, err := os.Create(*out)
	if err != nil {
		return err
	}
	defer f.Close()
	w, err := traceio.NewWriter(f, traceio.Header{Streams: len(streams), Name: *name, Note: *note})
	if err != nil {
		return err
	}
	var total int64
	for s, insts := range streams {
		n, err := w.AppendAll(s, trace.Slice(insts))
		if err != nil {
			return err
		}
		total += n
	}
	if err := w.Close(); err != nil {
		return err
	}
	fmt.Printf("imported %d records (%d streams) to %s\n", total, len(streams), *out)
	return nil
}

func cmdDump(args []string) error {
	fs := flag.NewFlagSet("dump", flag.ExitOnError)
	in := fs.String("i", "", "input trace file (- reads stdin)")
	n := fs.Int64("n", 32, "records to print")
	format := fs.String("format", "auto", "input format (auto sniffs)")
	fs.Parse(args)
	if *in == "" {
		return fmt.Errorf("dump requires -i")
	}
	h, streams, err := readInput(*in, *format)
	if err != nil {
		return err
	}
	printed := int64(0)
	for s, insts := range streams {
		for i, inst := range insts {
			if printed >= *n {
				return nil
			}
			if h.Streams > 1 {
				fmt.Printf("s%-3d %8d  %s\n", s, i, inst.String())
			} else {
				fmt.Printf("%8d  %s\n", i, inst.String())
			}
			printed++
		}
	}
	return nil
}

func cmdStat(args []string) error {
	fs := flag.NewFlagSet("stat", flag.ExitOnError)
	in := fs.String("i", "", "input trace file (- reads stdin)")
	bench := fs.String("bench", "", "benchmark name (instead of a file)")
	n := fs.Int64("n", 1_000_000, "instructions to scan (generator mode)")
	seed := fs.Uint64("seed", 0, "workload seed")
	format := fs.String("format", "auto", "input format (auto sniffs)")
	fs.Parse(args)

	var streams [][]isa.Inst
	switch {
	case *in != "":
		h, s, err := readInput(*in, *format)
		if err != nil {
			return err
		}
		streams = s
		if h.Name != "" || h.Note != "" {
			fmt.Printf("container:    %q", h.Name)
			if h.Note != "" {
				fmt.Printf("  (%s)", h.Note)
			}
			fmt.Println()
		}
	case *bench != "":
		b, err := workload.ByName(*bench)
		if err != nil {
			return err
		}
		r := trace.Limit(b.NewReader(workload.ReaderOpts{Seed: *seed}), *n)
		var insts []isa.Inst
		var inst isa.Inst
		for r.Next(&inst) {
			insts = append(insts, inst)
		}
		streams = [][]isa.Inst{insts}
	default:
		return fmt.Errorf("stat requires -i or -bench")
	}

	var (
		counts  [isa.NumOps]int64
		total   int64
		taken   int64
		lines   = make(map[uint64]struct{})
		pcs     = make(map[uint64]struct{})
		minAddr = ^uint64(0)
		maxAddr uint64
	)
	for _, insts := range streams {
		for _, inst := range insts {
			total++
			counts[inst.Op]++
			pcs[inst.PC] = struct{}{}
			if inst.IsBranch() && inst.Taken {
				taken++
			}
			if inst.IsMem() {
				lines[inst.Addr>>5] = struct{}{}
				if inst.Addr < minAddr {
					minAddr = inst.Addr
				}
				if inst.Addr > maxAddr {
					maxAddr = inst.Addr
				}
			}
		}
	}
	if total == 0 {
		return fmt.Errorf("empty trace")
	}
	if len(streams) > 1 {
		fmt.Printf("streams:      %d\n", len(streams))
	}
	fmt.Printf("instructions: %d\n", total)
	fmt.Printf("static PCs:   %d\n", len(pcs))
	for op := isa.Op(0); int(op) < isa.NumOps; op++ {
		fmt.Printf("  %-7s %8d  (%5.1f%%)\n", op, counts[op], 100*float64(counts[op])/float64(total))
	}
	if counts[isa.OpBranch] > 0 {
		fmt.Printf("taken branches: %.1f%%\n", 100*float64(taken)/float64(counts[isa.OpBranch]))
	}
	if len(lines) > 0 {
		fmt.Printf("touched lines: %d (%.1f KB footprint), address range [%#x, %#x]\n",
			len(lines), float64(len(lines))*32/1024, minAddr, maxAddr)
	}
	return nil
}
