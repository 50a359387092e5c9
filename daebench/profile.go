package main

import (
	"bytes"
	"compress/gzip"
	"encoding/binary"
	"errors"
	"fmt"
	"io"
	"strings"
)

// CPU-profile attribution. A traced child runs runtime/pprof over its
// traced phase; the profile is decoded here with the standard library
// only (a gzip-compressed protobuf with a handful of fields worth
// reading), and every sample's CPU time goes to one layer of the
// taxonomy in metrics.go: the innermost frame that belongs to a named
// layer decides. Core frames are split further by the pipeline stage the
// sample sits under.

// stack is one profile sample: frame function names innermost first
// (inlined calls expanded) and the CPU nanoseconds it stands for.
type stack struct {
	frames []string
	ns     int64
}

// parseProfile decodes a runtime/pprof CPU profile.
func parseProfile(data []byte) ([]stack, error) {
	zr, err := gzip.NewReader(bytes.NewReader(data))
	if err != nil {
		return nil, fmt.Errorf("profile: %w", err)
	}
	raw, err := io.ReadAll(zr)
	if err != nil {
		return nil, fmt.Errorf("profile: %w", err)
	}
	type sample struct{ locs, vals []uint64 }
	var (
		samples   []sample
		strs      []string
		funcName  = map[uint64]uint64{} // function id -> string index
		locFuncs  = map[uint64][]uint64{}
		valueSlot = -1
		types     [][]byte
	)
	err = walkFields(raw, func(field int, v uint64, b []byte) error {
		switch field {
		case 1: // sample_type
			types = append(types, b)
		case 2: // sample
			var s sample
			err := walkFields(b, func(f int, v uint64, b []byte) error {
				switch f {
				case 1:
					s.locs = appendPacked(s.locs, v, b)
				case 2:
					s.vals = appendPacked(s.vals, v, b)
				}
				return nil
			})
			samples = append(samples, s)
			return err
		case 4: // location
			var id uint64
			var fns []uint64
			err := walkFields(b, func(f int, v uint64, b []byte) error {
				switch f {
				case 1:
					id = v
				case 4: // line
					return walkFields(b, func(f int, v uint64, _ []byte) error {
						if f == 1 {
							fns = append(fns, v)
						}
						return nil
					})
				}
				return nil
			})
			locFuncs[id] = fns
			return err
		case 5: // function
			var id, name uint64
			err := walkFields(b, func(f int, v uint64, _ []byte) error {
				switch f {
				case 1:
					id = v
				case 2:
					name = v
				}
				return nil
			})
			funcName[id] = name
			return err
		case 6: // string_table
			strs = append(strs, string(b))
		}
		return nil
	})
	if err != nil {
		return nil, err
	}
	// The value to sum is the sample type whose unit is "nanoseconds".
	for i, t := range types {
		var unit uint64
		err := walkFields(t, func(f int, v uint64, _ []byte) error {
			if f == 2 {
				unit = v
			}
			return nil
		})
		if err != nil {
			return nil, err
		}
		if unit < uint64(len(strs)) && strs[unit] == "nanoseconds" {
			valueSlot = i
		}
	}
	if valueSlot < 0 {
		return nil, errors.New("profile: no nanoseconds sample type")
	}
	out := make([]stack, 0, len(samples))
	for _, s := range samples {
		if valueSlot >= len(s.vals) {
			continue
		}
		st := stack{ns: int64(s.vals[valueSlot])}
		for _, l := range s.locs {
			for _, f := range locFuncs[l] {
				if n := funcName[f]; n < uint64(len(strs)) {
					st.frames = append(st.frames, strs[n])
				}
			}
		}
		out = append(out, st)
	}
	return out, nil
}

// walkFields calls fn for every field of a protobuf message: varints
// arrive in v, length-delimited fields in b.
func walkFields(buf []byte, fn func(field int, v uint64, b []byte) error) error {
	for len(buf) > 0 {
		key, n := binary.Uvarint(buf)
		if n <= 0 {
			return errors.New("profile: bad field key")
		}
		buf = buf[n:]
		field, wire := int(key>>3), key&7
		switch wire {
		case 0:
			v, n := binary.Uvarint(buf)
			if n <= 0 {
				return errors.New("profile: bad varint")
			}
			buf = buf[n:]
			if err := fn(field, v, nil); err != nil {
				return err
			}
		case 2:
			l, n := binary.Uvarint(buf)
			if n <= 0 || uint64(len(buf)-n) < l {
				return errors.New("profile: bad length")
			}
			b := buf[n : n+int(l)]
			buf = buf[n+int(l):]
			if err := fn(field, 0, b); err != nil {
				return err
			}
		case 1:
			if len(buf) < 8 {
				return errors.New("profile: short fixed64")
			}
			buf = buf[8:]
		case 5:
			if len(buf) < 4 {
				return errors.New("profile: short fixed32")
			}
			buf = buf[4:]
		default:
			return fmt.Errorf("profile: unsupported wire type %d", wire)
		}
	}
	return nil
}

// appendPacked appends a repeated varint field, which the encoder writes
// either packed (b holds the varints) or one value per field (v).
func appendPacked(dst []uint64, v uint64, b []byte) []uint64 {
	if b == nil {
		return append(dst, v)
	}
	for len(b) > 0 {
		x, n := binary.Uvarint(b)
		if n <= 0 {
			break
		}
		dst = append(dst, x)
		b = b[n:]
	}
	return dst
}

// attribute sums the samples' CPU time per layer.
func attribute(stacks []stack) map[string]int64 {
	out := make(map[string]int64, len(layers))
	for _, s := range stacks {
		out[classify(s.frames)] += s.ns
	}
	return out
}

// Package paths of the named layers. Packages not listed here (config,
// isa, rng, stats, the branch predictor, queues, register files, rename
// tables, and most of the runtime) are building blocks: their time goes
// to the layer that called them.
var pkgLayer = map[string]string{
	"repro/internal/mem":         "mem",
	"repro/internal/cache":       "mem",
	"repro/internal/bus":         "mem",
	"repro/internal/workload":    "workload",
	"repro/internal/trace":       "workload",
	"repro/internal/traceio":     "workload",
	"repro/internal/sim":         "sim",
	"repro":                      "runner", // the public Engine and Request
	"repro/internal/runner":      "runner",
	"repro/internal/experiments": "runner",
	"repro/internal/serveapi":    "serveapi",
	"repro/internal/fabric":      "fabric",
	"net":                        "net",
	"net/http":                   "net",
	"net/http/httptest":          "net",
	"net/textproto":              "net",
	"encoding/json":              "json",
	"main":                       "other", // the benchmark itself
}

// gcPrefixes mark runtime frames that are allocation or collection work.
var gcPrefixes = []string{
	"runtime.mallocgc", "runtime.newobject", "runtime.newarray", "runtime.makeslice",
	"runtime.growslice", "runtime.makemap", "runtime.gc", "runtime.scan",
	"runtime.markroot", "runtime.greyobject", "runtime.sweep", "runtime.bgsweep",
	"runtime.bgscavenge", "runtime.(*mheap)", "runtime.(*mcache)", "runtime.(*mcentral)",
	"runtime.(*gcWork)", "runtime.(*mspan)", "runtime.(*sweepLocked)", "runtime.wbBuf",
	"runtime.bulkBarrier", "runtime.heapSetType",
}

// splitFunc splits a profile function name into its package path and the
// rest ("repro/internal/core.(*Core).fetch" -> "repro/internal/core",
// "(*Core).fetch"). Type arguments are dropped first: they may contain
// package paths themselves.
func splitFunc(name string) (pkg, rest string) {
	if i := strings.IndexByte(name, '['); i >= 0 {
		name = name[:i]
	}
	slash := strings.LastIndexByte(name, '/')
	dot := strings.IndexByte(name[slash+1:], '.')
	if dot < 0 {
		return name, ""
	}
	return name[:slash+1+dot], name[slash+2+dot:]
}

// classify returns the layer of one sample (frames innermost first).
func classify(frames []string) string {
	for i, f := range frames {
		if strings.HasPrefix(f, "runtime.") {
			for _, p := range gcPrefixes {
				if strings.HasPrefix(f, p) {
					return "gc"
				}
			}
			continue
		}
		pkg, _ := splitFunc(f)
		if pkg == "repro/internal/core" {
			return coreStage(frames[i:])
		}
		if l, ok := pkgLayer[pkg]; ok {
			return l
		}
	}
	return "other"
}

// coreMethod names a core frame by receiver type and method, closures
// folded into their enclosing function ("Core.fetch", "calendar.schedule").
func coreMethod(f string) string {
	_, rest := splitFunc(f)
	rest = strings.NewReplacer("(*", "", ")", "").Replace(rest)
	if i := strings.Index(rest, ".func"); i >= 0 {
		rest = rest[:i]
	}
	return rest
}

// Core functions that anchor a sample to a sub-layer wherever they sit
// in the stack.
var coreAnchors = map[string]string{
	"Core.fastForward":   "core.calendar",
	"Core.nextEventAt":   "core.calendar",
	"Core.Step":          "core.calendar",
	"Core.Warp":          "core.warp",
	"Core.warpRound":     "core.warp",
	"Core.DrainPipeline": "core.warp",
	"Core.PipelineEmpty": "core.warp",
	"CMP.Warp":           "core.warp",
	"CMP.DrainPipeline":  "core.warp",
	"CMP.drained":        "core.warp",
}

// The stages (*Core).Tick runs, by the Tick child they start from.
var tickStages = map[string]string{
	"Core.fetch":           "core.fetch",
	"Core.dispatch":        "core.dispatch",
	"Core.issue":           "core.issue",
	"Core.cacheAccess":     "core.issue",
	"Core.resolveBranches": "core.issue",
	"Core.graduate":        "core.graduate",
}

// coreStage places a sample whose innermost named frame is in package
// core: walking outwards through the core frames, the first anchor wins —
// the event calendar, the functional warp, a pipeline stage (identified
// as the child of Tick it runs under), or the CMP and epoch drivers.
func coreStage(frames []string) string {
	for i, f := range frames {
		if pkg, _ := splitFunc(f); pkg != "repro/internal/core" {
			break
		}
		m := coreMethod(f)
		if strings.HasPrefix(m, "calendar.") {
			return "core.calendar"
		}
		if l, ok := coreAnchors[m]; ok {
			return l
		}
		if m == "Core.Tick" {
			return "core.other" // Tick's own code, between the stages
		}
		if i+1 < len(frames) && frames[i+1] == "repro/internal/core.(*Core).Tick" {
			if l, ok := tickStages[m]; ok {
				return l
			}
			return "core.other"
		}
		if strings.HasPrefix(m, "CMP.") || strings.HasPrefix(m, "EpochRunner.") || strings.HasPrefix(m, "epochWorker.") {
			return "core.cmp"
		}
	}
	return "core.other"
}
