package experiments

import (
	"encoding/csv"
	"fmt"
	"io"
	"maps"
	"slices"
	"strconv"
	"time"

	"repro/internal/runner"
	"repro/internal/sim"
	"repro/internal/stats"
)

// Figures is the registry of every figure, ablation and study, in
// dae-sweep's output order. dae-sweep's selection, -fig list, tables and
// CSV files all come from it: a new figure is one entry here.
var Figures = []*Figure{
	fig1, fig3, fig4, fig5,
	ablationA1, ablationA2, ablationA3, ablationA4, ablationA5, ablationA6, ablationA7,
	InterferenceGrid(InterferenceL2Sizes, InterferenceThreads),
	C1Grid(C1Cores, C1Contexts, C1InterferenceSizes),
	s1Figure(sim.Sampling{}.WithDefaults()),
	D1Grid(D1Threads, D1SpecFracs, D1LoDEvery),
}

// Find returns the figure that a -fig key (a panel key such as "4b" or a
// group key such as "4") selects, or nil.
func Find(key string) *Figure {
	for _, f := range Figures {
		if key != "all" && f.Select(key) != nil {
			return f
		}
	}
	return nil
}

// Fig4 runs the paper's Figure 4 (the latency-tolerance sweep).
func Fig4(b Budget) (*Result, error) { return fig4.Run(b) }

// A Figure is one experiment: the sweep it runs, the long-form rows it
// measures there (exactly its CSV) and the table panels that view those
// rows.
type Figure struct {
	// Name is the stem of the figure's CSV file.
	Name string
	// Group is the -fig key that selects every panel at once ("1", "4");
	// empty when the figure's one panel key is enough.
	Group string
	// Panels are the figure's tables, each with its own -fig key.
	Panels []Panel
	// Columns are the long-form columns, in CSV order.
	Columns []Column

	// points lays out the sweep: one point per long-form row. Points
	// naming the same job key share one run.
	points func(Budget) []*Point
	// order, when set, sorts the rows after the sweep: the order the
	// points were laid out in is the order their jobs are submitted.
	order func(a, b *Point) int
	// serial runs the jobs one at a time, so each run's wall clock is
	// its own (study S1 measures simulation speed).
	serial bool
}

// A Panel is one table of a figure.
type Panel struct {
	// Key selects the panel (-fig key); Desc is its -fig list line.
	Key, Desc string
	View
}

// A View renders a table from a figure's rows. Rows with equal values
// in the By columns form one group (with no By, every row is its own
// group), and each group prints one table line per entry of Lines. The
// header is the Head of the first line's cells.
type View struct {
	Title string
	By    []string
	Lines [][]Cell
	// Footer, when set, is printed after a blank line below the table.
	Footer func(*Result) string
}

// A Cell is one table column of a view line.
type Cell struct {
	Head string
	// Where picks the group's row the cell shows: column, value pairs,
	// compared by their printed form. Nil picks the group's first row.
	// A group with no such row shows "-".
	Where []any
	// Text renders the cell from that row.
	Text func(Row) string
}

// cell shows column col through formatter f.
func cell(head, col string, f func(any) string, where ...any) Cell {
	return Cell{Head: head, Where: where, Text: func(r Row) string { return f(r[col]) }}
}

// label is a cell of fixed text.
func label(head, text string) Cell {
	return Cell{Head: head, Text: func(Row) string { return text }}
}

// A Column is one long-form column: its CSV name and how a point yields
// its value. A nil Get reads the point's coordinate of that name. Values
// are strings, booleans, integers, float64s or fmt.Stringers; nil is an
// empty cell.
type Column struct {
	Name string
	Get  func(p *Point) any
}

// A Point is one long-form row before its columns are extracted: where
// it sits in the sweep and the runs that measure it.
type Point struct {
	// At holds the point's coordinate columns (and nothing else).
	At Row
	// Jobs are the simulations the row reads; Runs are their results.
	Jobs []runner.Job
	Runs []Run
	// Series is the point's curve in sweep order (Figures 1 and 4: one
	// benchmark or configuration across the L2 axis), for values
	// relative to another point of it.
	Series []*Point
}

// point lays out one row measured by jobs.
func point(at Row, jobs ...runner.Job) *Point { return &Point{At: at, Jobs: jobs} }

// rep is the report of the point's first run.
func (p *Point) rep() *stats.Report { return &p.Runs[0].Report }

// ipc, perceived and busUtil are metrics several figures share.
func ipc(p *Point) any       { return p.rep().IPC() }
func perceived(p *Point) any { return p.rep().Perceived().Mean() }
func busUtil(p *Point) any   { return p.rep().BusUtilization }

// series makes every n consecutive points one series.
func series(pts []*Point, n int) []*Point {
	for i, p := range pts {
		p.Series = pts[i/n*n : i/n*n+n]
	}
	return pts
}

// A Run is one job's result and the wall clock of the batch that ran
// it (the job alone, in a serial sweep).
type Run struct {
	runner.Result
	Wall time.Duration
}

// A Row is one long-form record: column name → value.
type Row map[string]any

// match reports whether the row has every column, value pair of where.
func (r Row) match(where []any) bool {
	for i := 0; i+1 < len(where); i += 2 {
		if fmt.Sprint(r[where[i].(string)]) != fmt.Sprint(where[i+1]) {
			return false
		}
	}
	return true
}

// A Result is a figure's measured rows.
type Result struct {
	*Figure
	Rows []Row
}

// Select returns the panels a -fig key selects: every panel for "all" or
// the figure's group key, else the panel with that key (nil if none).
func (f *Figure) Select(key string) []Panel {
	if key == "all" || (key == f.Group && key != "") {
		return f.Panels
	}
	for _, p := range f.Panels {
		if p.Key == key {
			return []Panel{p}
		}
	}
	return nil
}

// Run executes the figure's sweep and extracts its rows.
func (f *Figure) Run(b Budget) (*Result, error) {
	pts := f.points(b)
	var jobs []runner.Job
	index := map[string]int{}
	for _, p := range pts {
		for _, j := range p.Jobs {
			if _, ok := index[j.Key]; !ok {
				index[j.Key] = len(jobs)
				jobs = append(jobs, j)
			}
		}
	}
	runs, err := b.run(jobs, f.serial)
	if err != nil {
		return nil, err
	}
	for _, p := range pts {
		for _, j := range p.Jobs {
			p.Runs = append(p.Runs, runs[index[j.Key]])
		}
	}
	if f.order != nil {
		slices.SortStableFunc(pts, f.order)
	}
	r := &Result{Figure: f}
	for _, p := range pts {
		row := maps.Clone(p.At)
		for _, c := range f.Columns {
			if c.Get != nil {
				row[c.Name] = c.Get(p)
			}
		}
		r.Rows = append(r.Rows, row)
	}
	return r, nil
}

// Floats returns column col of every row matching where (column, value
// pairs compared by their printed form), in row order, as float64s.
func (r *Result) Floats(col string, where ...any) []float64 {
	var out []float64
	for _, row := range r.Rows {
		if row.match(where) {
			v, _ := strconv.ParseFloat(fmt.Sprint(row[col]), 64)
			out = append(out, v)
		}
	}
	return out
}

// Float returns column col of the first row matching where; it panics
// when no row does.
func (r *Result) Float(col string, where ...any) float64 {
	v := r.Floats(col, where...)
	if len(v) == 0 {
		panic(fmt.Sprintf("experiments: %s has no row where %v", r.Name, where))
	}
	return v[0]
}

// Table renders one view of the rows.
func (r *Result) Table(v View) string {
	var keys []string
	groups := map[string][]Row{}
	for i, row := range r.Rows {
		key := []any{i}
		if v.By != nil {
			key = nil
			for _, c := range v.By {
				key = append(key, row[c])
			}
		}
		k := fmt.Sprintf("%#v", key)
		if groups[k] == nil {
			keys = append(keys, k)
		}
		groups[k] = append(groups[k], row)
	}
	var header []string
	for _, c := range v.Lines[0] {
		header = append(header, c.Head)
	}
	var lines [][]string
	for _, k := range keys {
		g := groups[k]
		for _, cells := range v.Lines {
			line := make([]string, len(cells))
			for i, c := range cells {
				line[i] = "-"
				if j := slices.IndexFunc(g, func(row Row) bool { return row.match(c.Where) }); j >= 0 {
					line[i] = c.Text(g[j])
				}
			}
			lines = append(lines, line)
		}
	}
	out := formatTable(v.Title, header, lines)
	if v.Footer != nil {
		out += "\n" + v.Footer(r)
	}
	return out
}

// WriteCSV writes the rows as RFC-4180 CSV under a header line. Floats
// carry eight significant digits, enough to round-trip the measurements.
func (r *Result) WriteCSV(w io.Writer) error {
	records := [][]string{{}}
	for _, c := range r.Columns {
		records[0] = append(records[0], c.Name)
	}
	for _, row := range r.Rows {
		record := make([]string, len(r.Columns))
		for i, c := range r.Columns {
			switch v := row[c.Name].(type) {
			case nil: // an empty cell
			case float64:
				record[i] = strconv.FormatFloat(v, 'g', 8, 64)
			default:
				record[i] = fmt.Sprint(v)
			}
		}
		records = append(records, record)
	}
	return csv.NewWriter(w).WriteAll(records)
}
