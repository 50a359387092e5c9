package workload

// The curated benchmark catalog: one entry per runnable workload, each
// naming a deterministic generator (the built-in SPEC FP95 models), with
// the mix parameters, memory footprint and provenance a user needs to
// pick one.
// Surfaced through `dae-trace list`, `dae-sim -bench` and
// daesim.Request; kept in the spirit of mgpusim's benchmarks/ tree —
// the catalog is data, the runners stay generic.

import "fmt"

// CatalogEntry describes one curated workload.
type CatalogEntry struct {
	// Name is the workload's catalog key (what -bench resolves).
	Name string
	// Provenance records what the entry models and where its parameters
	// come from.
	Provenance string
	// FootprintBytes is the summed working-set size of the generator's
	// streams.
	FootprintBytes int64
	// Streams and Kernels summarize the generator's mix shape.
	Streams, Kernels int
	// InstsPerIteration is the inner-loop slot count of the heaviest
	// kernel.
	InstsPerIteration int
}

// provenance notes for the built-in models, keyed by benchmark name.
// Each ties the synthetic parameters back to the paper behaviour they
// reproduce.
var builtinProvenance = map[string]string{
	"tomcatv": "mesh generation; regular stride-8 sweeps over 4MB arrays, decouples almost fully (Fig 1-a)",
	"swim":    "shallow-water model; stride-16 8MB sweeps, bandwidth-heavy but latency-tolerant",
	"su2cor":  "quantum field theory; gather via index loads at distance 2 plus LoD every 90 iterations (Fig 1-b)",
	"hydro2d": "Navier-Stokes; largest miss ratio (long-stride sweeps) with CFL-style LoD bursts (Fig 1-d worst case)",
	"mgrid":   "multigrid solver; high-reuse fine-grid sweeps, small perceived latency",
	"applu":   "parabolic/elliptic PDE; moderate footprint with scheduled index loads",
	"turb3d":  "isotropic turbulence FFT; cache-resident working set, short-scheduled bit-reversal index loads (Fig 1-b)",
	"apsi":    "pollutant transport; 1MB temperature sweeps with relaxed index-load scheduling",
	"fpppp":   "two-electron integrals; tiny working set, deep FP chains, LoD every 8 iterations (the decoupling worst case)",
	"wave5":   "particle-in-cell plasma; particle gathers feeding field accesses plus periodic LoD",
}

// Catalog returns the curated workload entries, built-ins first in the
// paper's order.
func Catalog() []CatalogEntry {
	bs := builtins()
	entries := make([]CatalogEntry, 0, len(bs))
	for _, b := range bs {
		var footprint int64
		for _, s := range b.Streams {
			footprint += int64(s.SizeBytes)
		}
		heaviest, insts := 0, 0
		for i, k := range b.Kernels {
			if k.Weight > b.Kernels[heaviest].Weight || i == 0 {
				heaviest = i
			}
		}
		insts = b.Kernels[heaviest].InstsPerIteration()
		entries = append(entries, CatalogEntry{
			Name:              b.Name,
			Provenance:        fmt.Sprintf("synthetic model of SPEC FP95 %s: %s", b.Name, builtinProvenance[b.Name]),
			FootprintBytes:    footprint,
			Streams:           len(b.Streams),
			Kernels:           len(b.Kernels),
			InstsPerIteration: insts,
		})
	}
	return entries
}

// CatalogByName returns the named catalog entry.
func CatalogByName(name string) (CatalogEntry, error) {
	for _, e := range Catalog() {
		if e.Name == name {
			return e, nil
		}
	}
	return CatalogEntry{}, fmt.Errorf("workload: %w %q", ErrUnknownBenchmark, name)
}
