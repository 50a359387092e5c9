package core

import (
	"reflect"
	"testing"
	"testing/quick"

	"repro/internal/config"
	"repro/internal/isa"
	"repro/internal/stats"
	"repro/internal/trace"
)

// sliceFiller is a finite trace.Filler: its last Fill comes back short,
// and every later one returns 0.
type sliceFiller struct{ insts []isa.Inst }

func (s *sliceFiller) Next(out *isa.Inst) bool {
	if len(s.insts) == 0 {
		return false
	}
	*out = s.insts[0]
	s.insts = s.insts[1:]
	return true
}

func (s *sliceFiller) Fill(dst []isa.Inst) int {
	n := copy(dst, s.insts)
	s.insts = s.insts[n:]
	return n
}

// Property: finite Filler sources, read through the lookahead batch,
// drain an SMT machine to exactly the state plain Readers reach. Each
// thread runs its program several times over (several batches), and the
// threads' programs differ in length, so contexts run dry at different
// times and mid-batch.
func TestQuickFillerDrainsLikePlainReader(t *testing.T) {
	f := func(data []byte, threadsRaw uint8) bool {
		threads := int(threadsRaw%3) + 1
		run := func(filler bool) (stats.Collector, int64, bool) {
			sources := make([]trace.Reader, threads)
			for i := range sources {
				var insts []isa.Inst
				for range 6 {
					insts = append(insts, genProgram(data[i*len(data)/(threads+1):])...)
				}
				if filler {
					sources[i] = &sliceFiller{insts}
				} else {
					sources[i] = trace.Slice(insts)
				}
			}
			c, err := newMachine(config.Figure2(threads), sources)
			if err != nil {
				return stats.Collector{}, 0, false
			}
			_, drained := c.Run(2_000_000)
			return *c.Collector(), c.Now(), drained
		}
		fs, fnow, fok := run(true)
		ps, pnow, pok := run(false)
		return fok && pok && fnow == pnow && reflect.DeepEqual(fs, ps)
	}
	if err := quick.Check(f, &quick.Config{MaxCount: 60}); err != nil {
		t.Fatal(err)
	}
}
