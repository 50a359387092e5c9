package sim

import (
	"context"
	"crypto/sha256"
	"encoding/hex"
	"encoding/json"
	"testing"

	"repro/internal/config"
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
// source paths into fetch are pinned.
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
	// The digests were computed with the pooled-DynInst pipeline; the
	// program-order window must reproduce it exactly.
	cases := []struct {
		name    string
		machine config.Machine
		seed    uint64
		digest  string
	}{
		{"2T-tiny-queues", tiny, 21,
			"bca028fa34cfdc28b4803a1bdef070b5948be05ba1ce48b291d3cf53e202d0ff"},
		{"4T-L2_256-scaled", scaled, 23,
			"e2974a58aaa342eb46d70cd47ac6d9469dd8e8d4cfd60603aa50336e34bffefc"},
		{"4T-L2_256-scaled-nondecoupled", scaled.NonDecoupled(), 23,
			"dc7733655d5c3c3bf7b7778de5360a3650ca28caf8e45f0d159a26bc36f3c8d2"},
		{"3T-oldest-first", oldest, 25,
			"b9c65461ba8eafa2de8b2f1d8a59a797141834ab5fafe217d6ffa56bf1541ef6"},
		{"2T-speculation", spec, 27,
			"463889ee69c3b4172a8785647ab34400aeb908d7bdf2a2cf0b30ecbbd00b1f55"},
		{"cmp2x2-sharedL2", cmp, 29,
			"6066195dcc355ed04980c6c3b85fa69bba480593276db4abe6a2b90d9a346e21"},
		{"section2-L2_64", config.Section2().WithL2Latency(64), 31,
			"1dc7daed000213688c32ae31610d928e2171d51e24f47ea3845da24a89e51796"},
	}
	saved := workload.InternBudgetBytes
	defer func() { workload.InternBudgetBytes = saved }()
	for _, tc := range cases {
		t.Run(tc.name, func(t *testing.T) {
			n := tc.machine.TotalContexts()
			opts := workload.MixOpts{Seed: tc.seed, SegmentLen: 9_000}
			for _, interned := range []bool{false, true} {
				workload.InternBudgetBytes = 0
				if interned {
					// The first request for a stream runs live; the
					// second replays the interned buffer.
					workload.InternBudgetBytes = saved
					workload.MixSources(n, opts)
				}
				res, err := Run(context.Background(), Options{
					Machine:      tc.machine,
					Sources:      workload.MixSources(n, opts),
					WarmupInsts:  4_000,
					MeasureInsts: 200_000,
				})
				if err != nil {
					t.Fatal(err)
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
