// Command dae-trace captures, converts, inspects and summarizes
// instruction traces. The trace container is the only format dae-sim
// replays; text traces are import-only.
//
// Usage:
//
//	dae-trace export -bench swim -t 4 -n 1000000 -o swim.dct  # multi-stream container
//	dae-trace import -i ext.txt -o ext.dct                    # convert a text trace
//	dae-trace dump -i swim.dct -n 20                          # print records as text lines
//	dae-trace stat -i swim.dct                                # mix/footprint summary
//	dae-trace dump -i one.dct | dae-trace import -i - -o x.dct  # any input reads stdin via -i -
//	dae-trace stat -bench fpppp -n 500000                     # stat a generator directly
//	dae-trace list                                            # the curated workload catalog
//
// Every input is a container or a text trace, told apart by the
// container's magic bytes. dump prints the text format import reads,
// each line's stream and index in a trailing comment.
package main

import (
	"cmp"
	"errors"
	"flag"
	"fmt"
	"io"
	"os"

	"repro/internal/isa"
	"repro/internal/traceio"
	"repro/internal/workload"
)

func main() {
	os.Exit(run(os.Args[1:], os.Stdin, os.Stdout, os.Stderr))
}

// subcommands maps each subcommand to its setup: it registers the
// subcommand's flags on fs and returns the function that runs it once
// fs has parsed the command line.
var subcommands = map[string]func(fs *flag.FlagSet, stdin io.Reader, stdout io.Writer) func() error{
	"export": cmdExport,
	"import": cmdImport,
	"dump":   cmdDump,
	"stat":   cmdStat,
	"list":   cmdList,
}

// run is main's testable body; it returns the process exit code.
func run(args []string, stdin io.Reader, stdout, stderr io.Writer) int {
	if len(args) == 0 || subcommands[args[0]] == nil {
		fmt.Fprintln(stderr, `usage: dae-trace <export|import|dump|stat|list> [flags]
  export -bench NAME -o FILE [-t CONTEXTS] [-n PER-STREAM] [-seed S] [-note TEXT]
  import -i FILE|- -o FILE [-name N] [-note TEXT]
  dump   -i FILE|- [-n COUNT]
  stat   (-i FILE|- | -bench NAME -n COUNT) [-seed S]
  list`)
		return 2
	}
	fs := flag.NewFlagSet(args[0], flag.ContinueOnError)
	fs.SetOutput(stderr)
	cmd := subcommands[args[0]](fs, stdin, stdout)
	if err := fs.Parse(args[1:]); err != nil {
		if errors.Is(err, flag.ErrHelp) {
			return 0
		}
		return 2
	}
	if err := cmd(); err != nil {
		fmt.Fprintln(stderr, "dae-trace:", err)
		return 1
	}
	return 0
}

func cmdList(_ *flag.FlagSet, _ io.Reader, stdout io.Writer) func() error {
	return func() error {
		for _, e := range workload.Catalog() {
			fmt.Fprintf(stdout, "%-8s  %d streams, %d kernels, ≤%d insts/iteration, %.1f MB footprint\n",
				e.Name, e.Streams, e.Kernels, e.InstsPerIteration, float64(e.FootprintBytes)/(1<<20))
			fmt.Fprintf(stdout, "          %s\n", e.Provenance)
		}
		return nil
	}
}

// readInput decodes the whole container or text trace at path ("-"
// means stdin) into per-stream slices, plus the container header (a
// text trace reports a synthesized one-stream header).
func readInput(stdin io.Reader, path string) (traceio.Header, [][]isa.Inst, error) {
	if path == "-" {
		return traceio.Decode(stdin)
	}
	file, err := os.Open(path)
	if err != nil {
		return traceio.Header{}, nil, err
	}
	defer file.Close()
	return traceio.Decode(file)
}

// cmdExport captures a built-in benchmark's exact per-context streams
// into a container, so `dae-sim -trace` replays what the generator would
// have produced bit-identically.
func cmdExport(fs *flag.FlagSet, _ io.Reader, stdout io.Writer) func() error {
	bench := fs.String("bench", "", "benchmark name")
	contexts := fs.Int("t", 1, "hardware contexts (one stream per context)")
	n := fs.Int64("n", 1_000_000, "instructions per stream")
	out := fs.String("o", "", "output container file")
	seed := fs.Uint64("seed", 0, "workload seed")
	note := fs.String("note", "", "provenance note stored in the container")
	return func() error {
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
		fmt.Fprintf(stdout, "wrote %d records (%d streams × %d) to %s\n", total, len(counts), *n, *out)
		return nil
	}
}

// cmdImport converts a text trace (or re-encodes a container) into a
// container, validating every record on the way in.
func cmdImport(fs *flag.FlagSet, stdin io.Reader, stdout io.Writer) func() error {
	in := fs.String("i", "-", "input trace file (- reads stdin)")
	out := fs.String("o", "", "output container file")
	name := fs.String("name", "", "container display name (default: the input's, if any)")
	note := fs.String("note", "", "provenance note (default: the input's, if any)")
	return func() error {
		if *out == "" {
			return fmt.Errorf("import requires -o")
		}
		h, streams, err := readInput(stdin, *in)
		if err != nil {
			return err
		}
		f, err := os.Create(*out)
		if err != nil {
			return err
		}
		defer f.Close()
		w, err := traceio.NewWriter(f, traceio.Header{Streams: len(streams), Name: cmp.Or(*name, h.Name), Note: cmp.Or(*note, h.Note)})
		if err != nil {
			return err
		}
		var total int
		for s, insts := range streams {
			if err := w.AppendAll(s, insts); err != nil {
				return err
			}
			total += len(insts)
		}
		if err := w.Close(); err != nil {
			return err
		}
		fmt.Fprintf(stdout, "imported %d records (%d streams) to %s\n", total, len(streams), *out)
		return nil
	}
}

// cmdDump prints the first records as text-format lines, each with its
// stream and index as a trailing comment, so the output imports back.
func cmdDump(fs *flag.FlagSet, stdin io.Reader, stdout io.Writer) func() error {
	in := fs.String("i", "", "input trace file (- reads stdin)")
	n := fs.Int64("n", 32, "records to print")
	return func() error {
		if *in == "" {
			return fmt.Errorf("dump requires -i")
		}
		_, streams, err := readInput(stdin, *in)
		if err != nil {
			return err
		}
		printed := int64(0)
		for s, insts := range streams {
			for i := range insts {
				if printed >= *n {
					return nil
				}
				fmt.Fprintf(stdout, "%-40s # s%d %d\n", insts[i].String(), s, i)
				printed++
			}
		}
		return nil
	}
}

func cmdStat(fs *flag.FlagSet, stdin io.Reader, stdout io.Writer) func() error {
	in := fs.String("i", "", "input trace file (- reads stdin)")
	bench := fs.String("bench", "", "benchmark name (instead of a file)")
	n := fs.Int64("n", 1_000_000, "instructions to scan (generator mode)")
	seed := fs.Uint64("seed", 0, "workload seed")
	return func() error {
		var streams [][]isa.Inst
		switch {
		case *in != "":
			h, s, err := readInput(stdin, *in)
			if err != nil {
				return err
			}
			streams = s
			if h.Name != "" || h.Note != "" {
				fmt.Fprintf(stdout, "container:    %q", h.Name)
				if h.Note != "" {
					fmt.Fprintf(stdout, "  (%s)", h.Note)
				}
				fmt.Fprintln(stdout)
			}
		case *bench != "":
			b, err := workload.ByName(*bench)
			if err != nil {
				return err
			}
			insts := make([]isa.Inst, max(*n, 0))
			b.NewReader(workload.ReaderOpts{Seed: *seed}).Fill(insts)
			streams = [][]isa.Inst{insts}
		default:
			return fmt.Errorf("stat requires -i or -bench")
		}
		return printStat(stdout, streams)
	}
}

// printStat prints the op mix, branch and footprint summary of streams.
func printStat(stdout io.Writer, streams [][]isa.Inst) error {
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
				minAddr, maxAddr = min(minAddr, inst.Addr), max(maxAddr, inst.Addr)
			}
		}
	}
	if total == 0 {
		return fmt.Errorf("empty trace")
	}
	if len(streams) > 1 {
		fmt.Fprintf(stdout, "streams:      %d\n", len(streams))
	}
	fmt.Fprintf(stdout, "instructions: %d\n", total)
	fmt.Fprintf(stdout, "static PCs:   %d\n", len(pcs))
	for op := isa.Op(0); int(op) < isa.NumOps; op++ {
		fmt.Fprintf(stdout, "  %-7s %8d  (%5.1f%%)\n", op, counts[op], 100*float64(counts[op])/float64(total))
	}
	if counts[isa.OpBranch] > 0 {
		fmt.Fprintf(stdout, "taken branches: %.1f%%\n", 100*float64(taken)/float64(counts[isa.OpBranch]))
	}
	if len(lines) > 0 {
		fmt.Fprintf(stdout, "touched lines: %d (%.1f KB footprint), address range [%#x, %#x]\n",
			len(lines), float64(len(lines))*32/1024, minAddr, maxAddr)
	}
	return nil
}
