// Command dae-sweep regenerates the paper's figures and the repository's
// ablation studies as text tables, executing every sweep through the
// batch runner so figures that share simulation points compute them
// once.
//
// Every selectable figure, its tables and its CSV come from the
// experiments.Figures registry.
//
// Usage:
//
//	dae-sweep -fig list                # enumerate every figure/ablation key
//	dae-sweep -fig all                 # everything (minutes)
//	dae-sweep -fig 4                   # every Figure 4 panel (4a, 4b, 4c)
//	dae-sweep -fig 1d -measure 2000000 # bigger budget per thread
//	dae-sweep -fig all -cache .sweeps  # persist results; re-runs and
//	                                   # crashed sweeps resume from disk
package main

import (
	"context"
	"encoding/json"
	"flag"
	"fmt"
	"io"
	"maps"
	"os"
	"os/signal"
	"path/filepath"
	"slices"
	"strings"
	"syscall"

	"repro/internal/experiments"
	"repro/internal/runner"
	"repro/internal/stats"
)

func main() {
	os.Exit(run(os.Args[1:], os.Stdout, os.Stderr))
}

// options is the parsed command line.
type options struct {
	fig      string
	budget   experiments.Budget
	workers  int
	csvDir   string
	cacheDir string
	hashFile string
	progress bool
	jsonOut  bool
}

// parseArgs parses the command line into options. Errors are already
// reported on stderr when it returns one (flag.Parse prints its own).
func parseArgs(args []string, stderr io.Writer) (options, error) {
	fs := flag.NewFlagSet("dae-sweep", flag.ContinueOnError)
	fs.SetOutput(stderr)
	o := options{budget: experiments.DefaultBudget()}
	fs.StringVar(&o.fig, "fig", "all", "which figure/ablation to regenerate ('list' enumerates them; 'all' runs everything)")
	warmup := fs.Int64("warmup", 0, "warm-up instructions per thread (0 = default)")
	measure := fs.Int64("measure", 0, "measured instructions per thread (0 = default)")
	fs.Uint64Var(&o.budget.Seed, "seed", 0, "workload seed")
	fs.IntVar(&o.workers, "workers", 0, "parallel simulations (0 = all cores)")
	fs.StringVar(&o.csvDir, "csv", "", "also write raw results as CSV files into this directory")
	fs.StringVar(&o.cacheDir, "cache", "", "on-disk result cache directory: re-runs skip already-computed points and interrupted sweeps resume")
	fs.StringVar(&o.hashFile, "hashfile", "", "write the sorted result content hashes (one 'jobhash reporthash key' line per point) to this file; two runs of the same sweep must produce identical files (the CI determinism gate)")
	fs.BoolVar(&o.progress, "progress", false, "report per-point progress on stderr")
	fs.BoolVar(&o.jsonOut, "json", false, "stream one JSON object per completed point to stdout (key, hash, cached, report) instead of the text tables; diagnostics and -progress stay on stderr, so stdout remains machine-parseable")
	if err := fs.Parse(args); err != nil {
		return options{}, err
	}
	if fs.NArg() > 0 {
		err := fmt.Errorf("unexpected arguments: %s", strings.Join(fs.Args(), " "))
		fmt.Fprintln(stderr, "dae-sweep:", err)
		return options{}, err
	}
	if *warmup > 0 {
		o.budget.WarmupPerThread = *warmup
	}
	if *measure > 0 {
		o.budget.MeasurePerThread = *measure
	}
	o.fig = strings.ToLower(o.fig)
	return o, nil
}

// pointRecord is one line of the -json stream.
type pointRecord struct {
	// Key is the point's human-readable label and Hash its canonical
	// content hash (shared with dae-sim -hash and dae-serve).
	Key  string `json:"key"`
	Hash string `json:"hash,omitempty"`
	// Cached reports whether the point was served without simulating.
	Cached bool `json:"cached"`
	// Report is the result (absent on error).
	Report *stats.Report `json:"report,omitempty"`
	// Error is the point's failure, if any.
	Error string `json:"error,omitempty"`
}

// run is main's testable body; it returns the process exit code.
func run(args []string, stdout, stderr io.Writer) int {
	opts, err := parseArgs(args, stderr)
	if err != nil {
		if err == flag.ErrHelp {
			return 0
		}
		return 2
	}
	// The catalog listing needs no runner and must reach stdout even
	// under -json (which discards table output).
	if opts.fig == "list" {
		listFigures(stdout)
		return 0
	}
	if err := checkFigure(opts.fig); err != nil {
		fmt.Fprintln(stderr, "dae-sweep:", err)
		return 1
	}
	if opts.csvDir != "" {
		if err := os.MkdirAll(opts.csvDir, 0o755); err != nil {
			fmt.Fprintln(stderr, "dae-sweep:", err)
			return 1
		}
	}

	// Ctrl-C cancels the sweep; with -cache, a re-run resumes from the
	// completed points.
	ctx, stop := signal.NotifyContext(context.Background(), os.Interrupt, syscall.SIGTERM)
	defer stop()
	opts.budget.Ctx = ctx

	// One runner serves every figure of the invocation, so points shared
	// between sweeps (fig3's thread axis inside fig5's L2=16 curve)
	// simulate once; a cache directory extends that reuse across
	// invocations.
	ropts := runner.Options{Workers: opts.workers, CacheDir: opts.cacheDir}
	// The per-point callback serializes under the batch lock, so the
	// human -progress lines (stderr) and the machine-parseable -json
	// stream (stdout) never interleave mid-record. The two streams are
	// strictly separated: stdout carries only tables or JSON.
	var jsonErr error
	enc := json.NewEncoder(stdout)
	// ledger holds the -hashfile lines: per job hash, the hash of the
	// result the sweep produced or served and the first key that named it.
	ledger := make(map[string]string)
	ropts.OnProgress = func(p runner.Progress) {
		if opts.hashFile != "" && p.Err == nil {
			if _, ok := ledger[p.Hash]; !ok {
				ledger[p.Hash] = runner.ReportHash(p.Report) + " " + p.Job.Key
			}
		}
		if opts.progress {
			switch {
			case p.Err != nil:
				fmt.Fprintf(stderr, "[%d/%d] FAIL %s: %v\n", p.Done, p.Total, p.Job.Key, p.Err)
			case p.Cached:
				fmt.Fprintf(stderr, "[%d/%d] cached %s\n", p.Done, p.Total, p.Job.Key)
			default:
				fmt.Fprintf(stderr, "[%d/%d] done %s\n", p.Done, p.Total, p.Job.Key)
			}
		}
		if opts.jsonOut {
			rec := pointRecord{Key: p.Job.Key, Hash: p.Hash, Cached: p.Cached}
			if p.Err != nil {
				rec.Error = p.Err.Error()
			} else {
				rep := p.Report
				rec.Report = &rep
			}
			if err := enc.Encode(rec); err != nil && jsonErr == nil {
				jsonErr = err
			}
		}
	}
	if !opts.progress && !opts.jsonOut && opts.hashFile == "" {
		ropts.OnProgress = nil
	}
	r, err := runner.New(ropts)
	if err != nil {
		fmt.Fprintln(stderr, "dae-sweep:", err)
		return 1
	}
	opts.budget.Runner = r

	// With -json the text tables are suppressed: stdout is the record
	// stream.
	tableOut := stdout
	if opts.jsonOut {
		tableOut = io.Discard
	}
	if err := sweep(opts.fig, opts.budget, opts.csvDir, tableOut, stderr); err != nil {
		fmt.Fprintln(stderr, "dae-sweep:", err)
		return 1
	}
	if jsonErr != nil {
		fmt.Fprintln(stderr, "dae-sweep:", jsonErr)
		return 1
	}
	if opts.hashFile != "" {
		if err := writeHashFile(opts.hashFile, ledger, stderr); err != nil {
			fmt.Fprintln(stderr, "dae-sweep:", err)
			return 1
		}
	}
	if opts.progress {
		s := r.Stats()
		fmt.Fprintf(stderr, "sweep: %d simulated, %d cache hits\n", s.Simulated, s.CacheHits)
	}
	return 0
}

// writeHashFile writes the ledger for the determinism gate, one
// "jobhash reporthash key" line per job hash, sorted by job hash so two
// runs of the same sweep are diffable byte for byte.
func writeHashFile(path string, ledger map[string]string, stderr io.Writer) error {
	var b strings.Builder
	for _, h := range slices.Sorted(maps.Keys(ledger)) {
		fmt.Fprintf(&b, "%s %s\n", h, ledger[h])
	}
	if err := os.WriteFile(path, []byte(b.String()), 0o666); err != nil {
		return err
	}
	fmt.Fprintf(stderr, "wrote %d result hashes to %s\n", len(ledger), path)
	return nil
}

// saveCSV writes one result's rows to <dir>/<name>.csv when a CSV
// directory is set.
func saveCSV(dir string, r *experiments.Result, stderr io.Writer) error {
	if dir == "" {
		return nil
	}
	path := filepath.Join(dir, r.Name+".csv")
	f, err := os.Create(path)
	if err != nil {
		return err
	}
	err = r.WriteCSV(f)
	if cerr := f.Close(); err == nil {
		err = cerr
	}
	if err != nil {
		return err
	}
	fmt.Fprintf(stderr, "wrote %s\n", path)
	return nil
}

// listFigures renders the registry's panels.
func listFigures(w io.Writer) {
	fmt.Fprintln(w, "figures and ablations (-fig <key>, grouped keys like '1' or '4' select every panel):")
	for _, f := range experiments.Figures {
		for _, p := range f.Panels {
			fmt.Fprintf(w, "  %-4s %s\n", p.Key, p.Desc)
		}
	}
	fmt.Fprintln(w, "  all  every figure and ablation above")
}

// checkFigure rejects a -fig key that selects nothing, naming every
// panel key.
func checkFigure(fig string) error {
	if fig == "all" || experiments.Find(fig) != nil {
		return nil
	}
	var keys []string
	for _, f := range experiments.Figures {
		for _, p := range f.Panels {
			keys = append(keys, p.Key)
		}
	}
	return fmt.Errorf("unknown figure %q (known: %s,all — run -fig list for descriptions)", fig, strings.Join(keys, ","))
}

// sweep runs every figure the key selects, in registry order, printing
// the selected panels and writing each figure's CSV.
func sweep(fig string, budget experiments.Budget, csvDir string, stdout, stderr io.Writer) error {
	for _, f := range experiments.Figures {
		panels := f.Select(fig)
		if panels == nil {
			continue
		}
		r, err := f.Run(budget)
		if err != nil {
			return err
		}
		if err := saveCSV(csvDir, r, stderr); err != nil {
			return err
		}
		for _, p := range panels {
			fmt.Fprintln(stdout, r.Table(p.View))
		}
	}
	return nil
}
