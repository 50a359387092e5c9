package sim

import (
	"context"
	"crypto/sha256"
	"encoding/hex"
	"encoding/json"
	"testing"

	"repro/internal/config"
	"repro/internal/stats"
	"repro/internal/trace"
	"repro/internal/workload"
)

// TestExactReportDigestsPinned pins exact-mode reports by the SHA-256 of
// their JSON encoding, on machines that stress the pipeline's in-flight
// bookkeeping: queues so small the program-order window wraps every few
// cycles, the Section-2 latency scaling at L2=256 (decoupled and not),
// oldest-first issue (which orders threads by fetch cycle), speculation
// with squashes and loss-of-decoupling holds, a CMP over a shared L2,
// and the Section-2 machine itself. Each case runs twice, once on live
// generators and once on interned replays of the same streams, so both
// source paths into fetch are pinned. The two coherence cases run both
// cores on one shared swim stream (see sharedSwim), so stores reach the
// timed write-invalidate broadcast with remote copies present, over a
// shared and over a per-core private L2.
func TestExactReportDigestsPinned(t *testing.T) {
	tiny := config.Figure2(2)
	tiny.FetchBufSize = 8
	tiny.ROBSize = 4
	scaled := config.Figure2(4).WithL2Latency(256)
	scaled.ScaleWithLatency = true
	oldest := config.Figure2(3).WithL2Latency(64)
	oldest.IssuePolicy = config.IssueOldestFirst
	spec := config.Figure2(2).WithL2Latency(64).WithSpeculation(config.Speculation{
		SpecLoadFrac: 0.3, MisspecProb: 0.2, LoDEvery: 700,
	})
	cmp := config.Figure2(2).WithCores(2).WithHierarchy(64, config.SharedL2(256<<10, 8))
	coherent := config.Figure2(1).WithCores(2).WithHierarchy(64, config.SharedL2(64<<10, 8))
	// The digests were computed with the pooled-DynInst pipeline; the
	// program-order window must reproduce it exactly.
	cases := []struct {
		name    string
		machine config.Machine
		seed    uint64
		digest  string
		// shared runs every context on one swim stream; cwb demands
		// coherence write-backs as well as invalidations.
		shared, cwb bool
	}{
		{"2T-tiny-queues", tiny, 21,
			"bca028fa34cfdc28b4803a1bdef070b5948be05ba1ce48b291d3cf53e202d0ff", false, false},
		{"4T-L2_256-scaled", scaled, 23,
			"e2974a58aaa342eb46d70cd47ac6d9469dd8e8d4cfd60603aa50336e34bffefc", false, false},
		{"4T-L2_256-scaled-nondecoupled", scaled.NonDecoupled(), 23,
			"dc7733655d5c3c3bf7b7778de5360a3650ca28caf8e45f0d159a26bc36f3c8d2", false, false},
		{"3T-oldest-first", oldest, 25,
			"b9c65461ba8eafa2de8b2f1d8a59a797141834ab5fafe217d6ffa56bf1541ef6", false, false},
		{"2T-speculation", spec, 27,
			"463889ee69c3b4172a8785647ab34400aeb908d7bdf2a2cf0b30ecbbd00b1f55", false, false},
		{"cmp2x2-sharedL2", cmp, 29,
			"6066195dcc355ed04980c6c3b85fa69bba480593276db4abe6a2b90d9a346e21", false, false},
		{"section2-L2_64", config.Section2().WithL2Latency(64), 31,
			"1dc7daed000213688c32ae31610d928e2171d51e24f47ea3845da24a89e51796", false, false},
		{"cmp2x1-sharedL2-coherent", coherent, 0,
			"aa8995df4ccc32d64c1fc65791e2cc4c2b312090d4fb195343478ed345dc59b1", true, false},
		{"cmp2x1-privateL2-coherent", coherent.WithPrivateHierarchy(), 0,
			"4a1c076a2e612e64d44c7e1f2864e600f33c63215e20956101b7f53da6f7ff2f", true, true},
	}
	saved := workload.InternBudgetBytes
	defer func() { workload.InternBudgetBytes = saved }()
	for _, tc := range cases {
		t.Run(tc.name, func(t *testing.T) {
			n := tc.machine.TotalContexts()
			sources := func() []trace.Reader {
				if tc.shared {
					return sharedSwim(t, n)
				}
				return workload.MixSources(n, workload.MixOpts{Seed: tc.seed, SegmentLen: 9_000})
			}
			for _, interned := range []bool{false, true} {
				workload.InternBudgetBytes = 0
				if interned {
					// The first request for a stream runs live; the
					// second replays the interned buffer.
					workload.InternBudgetBytes = saved
					sources()
				}
				res, err := Run(context.Background(), Options{
					Machine:      tc.machine,
					Sources:      sources(),
					WarmupInsts:  4_000,
					MeasureInsts: 200_000,
				})
				if err != nil {
					t.Fatal(err)
				}
				if tc.shared {
					assertCoherence(t, res.Report, tc.cwb)
				}
				b, err := json.Marshal(res.Report)
				if err != nil {
					t.Fatal(err)
				}
				sum := sha256.Sum256(b)
				if got := hex.EncodeToString(sum[:]); got != tc.digest {
					t.Errorf("interned=%v: report digest %s, pinned %s", interned, got, tc.digest)
				}
			}
		})
	}
}

// sharedSwim returns n readers of the one un-relocated swim stream: every
// context touches the same lines, so (with DisjointAddressSpaces false)
// each store finds remote copies for the write-invalidate broadcast.
func sharedSwim(t *testing.T, n int) []trace.Reader {
	t.Helper()
	b, err := workload.ByName("swim")
	if err != nil {
		t.Fatal(err)
	}
	srcs := make([]trace.Reader, n)
	for i := range srcs {
		srcs[i] = b.NewReader(workload.ReaderOpts{})
	}
	return srcs
}

// assertCoherence fails unless the report's levels counted remote
// invalidations (and, with cwb, dirty copies written back by them): a
// pinned digest of a coherence case must reach the broadcast.
func assertCoherence(t *testing.T, r stats.Report, cwb bool) {
	t.Helper()
	var invals, wbs int64
	for _, l := range r.MemLevels {
		invals += l.Invalidations
		wbs += l.CoherenceWritebacks
	}
	t.Logf("invalidations %d, coherence write-backs %d", invals, wbs)
	if invals == 0 {
		t.Error("no level counted an invalidation")
	}
	if cwb && wbs == 0 {
		t.Error("no level counted a coherence write-back")
	}
}
