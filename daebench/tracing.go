package main

import (
	"encoding/json"
	"fmt"
	"net/http"
	"os"
	"sort"
	"strings"
	"sync"
	"sync/atomic"
	"time"

	"repro/internal/isa"
	"repro/internal/trace"
)

// Span is one timed call into a layer's public function, recorded by the
// benchmark around the call (the program itself is not instrumented).
// Times are nanoseconds since the recorder started. Op groups the spans
// of one operation; Parent is the enclosing span's ID (0 = a root).
type Span struct {
	ID     int64  `json:"id"`
	Parent int64  `json:"parent,omitempty"`
	Op     int64  `json:"op"`
	Name   string `json:"name"`
	Start  int64  `json:"start_ns"`
	End    int64  `json:"end_ns"`
}

func (s Span) dur() int64 { return s.End - s.Start }

// recorder keeps spans in memory until the run ends.
type recorder struct {
	t0     time.Time
	nextID atomic.Int64
	mu     sync.Mutex
	spans  []Span
}

func newRecorder() *recorder { return &recorder{t0: time.Now()} }

// now is the recorder clock; at converts a wall time to it.
func (r *recorder) now() int64           { return int64(time.Since(r.t0)) }
func (r *recorder) at(t time.Time) int64 { return int64(t.Sub(r.t0)) }

// add records a finished span and returns its ID.
func (r *recorder) add(name string, op, parent, start, end int64) int64 {
	id := r.nextID.Add(1)
	r.mu.Lock()
	r.spans = append(r.spans, Span{ID: id, Parent: parent, Op: op, Name: name, Start: start, End: end})
	r.mu.Unlock()
	return id
}

// reserve hands out a span ID before the span ends, so children recorded
// first can name their parent.
func (r *recorder) reserve() int64 { return r.nextID.Add(1) }

// addWithID records a span under a reserved ID.
func (r *recorder) addWithID(id int64, name string, op, parent, start, end int64) {
	r.mu.Lock()
	r.spans = append(r.spans, Span{ID: id, Parent: parent, Op: op, Name: name, Start: start, End: end})
	r.mu.Unlock()
}

// named returns the spans with the given name.
func (r *recorder) named(name string) []Span {
	r.mu.Lock()
	defer r.mu.Unlock()
	var out []Span
	for _, s := range r.spans {
		if s.Name == name {
			out = append(out, s)
		}
	}
	return out
}

// write saves every span as JSON, ordered by start time.
func (r *recorder) write(path string) error {
	r.mu.Lock()
	spans := append([]Span(nil), r.spans...)
	r.mu.Unlock()
	sort.Slice(spans, func(i, j int) bool { return spans[i].Start < spans[j].Start })
	b, err := json.Marshal(spans)
	if err != nil {
		return fmt.Errorf("encode spans: %w", err)
	}
	if err := os.WriteFile(path, b, 0o644); err != nil {
		return fmt.Errorf("write spans: %w", err)
	}
	return nil
}

func sumDur(spans []Span) int64 {
	var t int64
	for _, s := range spans {
		t += s.dur()
	}
	return t
}

// selfOutside sums, over the outer spans, the time not covered by any
// inner span: a hop's own time once the hop it calls is taken out. Inner
// spans are matched by time alone (the router does not pass the
// benchmark's op ID on to replicas), so an inner span of a concurrent
// request that overlaps counts against the wrong outer span; at the
// benchmark's load such overlaps are rare.
func selfOutside(outer, inner []Span) int64 {
	in := append([]Span(nil), inner...)
	sort.Slice(in, func(i, j int) bool { return in[i].Start < in[j].Start })
	// Merge the inner spans into disjoint intervals.
	var merged []Span
	for _, s := range in {
		if n := len(merged); n > 0 && s.Start <= merged[n-1].End {
			if s.End > merged[n-1].End {
				merged[n-1].End = s.End
			}
			continue
		}
		merged = append(merged, s)
	}
	var self int64
	for _, o := range outer {
		covered := int64(0)
		i := sort.Search(len(merged), func(i int) bool { return merged[i].End > o.Start })
		for ; i < len(merged) && merged[i].Start < o.End; i++ {
			lo, hi := max(o.Start, merged[i].Start), min(o.End, merged[i].End)
			if hi > lo {
				covered += hi - lo
			}
		}
		self += o.dur() - covered
	}
	return self
}

// middleware records a span per API request a handler serves (health
// probes excluded).
func middleware(rec *recorder, name string, h http.Handler) http.Handler {
	return http.HandlerFunc(func(w http.ResponseWriter, req *http.Request) {
		start := rec.now()
		h.ServeHTTP(w, req)
		if strings.HasPrefix(req.URL.Path, "/v1/") {
			rec.add(name, 0, 0, start, rec.now())
		}
	})
}

// readTimer accumulates the time one simulation spends pulling
// instructions from its sources. A clock read costs more than most reads
// (over 100 ns on a VM without a usable TSC), so one Next or PeekNext call
// in sampleEvery is timed and scaled up, with the clock's own cost
// (calibrated once) taken off each sample; Consume, a slice advance on
// interned streams, is counted but not timed. A readTimer belongs to one
// simulation, which reads its sources from one goroutine, so it needs no
// synchronization.
type readTimer struct {
	ns    int64 // scaled-up read time
	insts int64
	srcs  int64
	peek  int64 // sources with the interned Peeker fast path
}

const sampleEvery = 256

// timerCost is the cost of one time.Now pair, measured at start-up.
var timerCost = func() int64 {
	best := int64(1 << 62)
	for i := 0; i < 1000; i++ {
		t := time.Now()
		if d := int64(time.Since(t)); d < best {
			best = d
		}
	}
	return best
}()

// wrap returns a reader that feeds r's instructions through unchanged
// while timing them. When r has the zero-copy Peeker fast path the
// wrapper keeps it, so the core takes the same path it would without the
// wrapper.
func (t *readTimer) wrap(r trace.Reader) trace.Reader {
	t.srcs++
	if p, ok := r.(trace.Peeker); ok {
		t.peek++
		return &timedPeeker{timedReader{r: r, t: t}, p}
	}
	return &timedReader{r: r, t: t}
}

type timedReader struct {
	r trace.Reader
	t *readTimer
	n uint64 // calls seen, for sampling
}

// begin reports whether this call is a sampled one and, if so, its start.
func (tr *timedReader) begin() (time.Time, bool) {
	tr.n++
	if tr.n%sampleEvery != 0 {
		return time.Time{}, false
	}
	return time.Now(), true
}

func (tr *timedReader) end(start time.Time) {
	if d := int64(time.Since(start)) - timerCost; d > 0 {
		tr.t.ns += d * sampleEvery
	}
}

func (tr *timedReader) Next(in *isa.Inst) bool {
	start, timed := tr.begin()
	ok := tr.r.Next(in)
	if timed {
		tr.end(start)
	}
	if ok {
		tr.t.insts++
	}
	return ok
}

type timedPeeker struct {
	timedReader
	p trace.Peeker
}

func (tp *timedPeeker) PeekNext() (*isa.Inst, bool) {
	start, timed := tp.begin()
	in, ok := tp.p.PeekNext()
	if timed {
		tp.end(start)
	}
	return in, ok
}

func (tp *timedPeeker) Consume() {
	tp.p.Consume()
	tp.t.insts++
}
