package sim

import (
	"context"
	"crypto/sha256"
	"encoding/hex"
	"encoding/json"
	"testing"

	"repro/internal/branch"
	"repro/internal/config"
	"repro/internal/workload"
)

// TestSampledReportDigestsPinned pins sampled-mode reports — the results
// that flow through the functional warp — by the SHA-256 of their JSON
// encoding, on machines covering every warm path: the flat-tag probe
// (one core; a CMP declared disjoint), and the fallbacks through
// mem.Warm (associative L1, finite shared L2, a CMP that runs the
// write-invalidate broadcast) and through the predictor interface
// (gshare). The digests were computed with the one-instruction-at-a-time
// round-robin warp; the batched kernel must reproduce it exactly. The two
// coherent cases run both cores on one shared swim stream, undeclared, so
// the functional and timed broadcasts find remote copies, over a shared
// and over a per-core private L2.
func TestSampledReportDigestsPinned(t *testing.T) {
	saved := workload.InternBudgetBytes
	defer func() { workload.InternBudgetBytes = saved }()
	workload.InternBudgetBytes = 0 // live generators: the Filler window path

	assoc := config.Figure2(3)
	assoc.Mem.L1.Assoc = 2
	gshare := config.Figure2(2)
	gshare.Predictor = branch.KindGshare
	sharedL2 := func(m config.Machine) config.Machine {
		return m.WithHierarchy(64, config.SharedL2(256<<10, 8))
	}
	coherent := config.Figure2(1).WithCores(2).WithHierarchy(64, config.SharedL2(64<<10, 8))
	cases := []struct {
		name     string
		machine  config.Machine
		disjoint bool
		seed     uint64
		digest   string
		shared   bool // every context replays one swim stream
	}{
		{"1T", config.Figure2(1), true, 3,
			"f31e6c2643e0d157b6123ad221fc3dda905888bd370a1966ac73d45c9643755c", false},
		{"4T-L2_256", config.Figure2(4).WithL2Latency(256), true, 5,
			"d206ab5480f7389e9fe7a374bce5d50c8bb4ab05807f2b917e26559d668366c9", false},
		{"3T-L1_2way", assoc, true, 7,
			"058f9072656b5705c5fa542494aa07bcec589f34dd9f8b921f31ca8ad6347805", false},
		{"2T-gshare", gshare, true, 9,
			"4ece9f29620b6f4dc2c16d758b871c884d355d9e485ea90cfd4176315b19ab9c", false},
		{"4T-sharedL2", sharedL2(config.Figure2(4)), true, 11,
			"f8afa445c660f4891ef8831229ef7ed08d749416ce2cb46414c12fddcdc96eea", false},
		// The mix's address spaces are disjoint whether or not the run
		// declares it, so the broadcast finds nothing and both spellings
		// pin one report; they still take different warm paths.
		{"cmp2x2-flat-disjoint", config.Figure2(2).WithCores(2), true, 13,
			"0c8af1b126f78b8a4177fc08b8ecbfb564c5a67da01ea0cd232f94f43d4bd686", false},
		{"cmp2x2-flat-undeclared", config.Figure2(2).WithCores(2), false, 13,
			"0c8af1b126f78b8a4177fc08b8ecbfb564c5a67da01ea0cd232f94f43d4bd686", false},
		{"cmp2x1-sharedL2", sharedL2(config.Figure2(1).WithCores(2)), false, 15,
			"1274897e9ee9f985c2ca515aa57cf5383f61b066d57a9fad9c97d197387a5a6d", false},
		{"cmp2x1-sharedL2-coherent", coherent, false, 0,
			"eedbfa806ba919cb1bac9b64d3f3ca5e4ba4767010fb2eff225c1ffed5055a29", true},
		{"cmp2x1-privateL2-coherent", coherent.WithPrivateHierarchy(), false, 0,
			"9bc214db75df4e755788ae24cf7bacabfc18b184945d278e31da21c794ad5487", true},
	}
	for _, tc := range cases {
		t.Run(tc.name, func(t *testing.T) {
			n := tc.machine.TotalContexts()
			sources := workload.MixSources(n, workload.MixOpts{Seed: tc.seed, SegmentLen: 7_000})
			if tc.shared {
				sources = sharedSwim(t, n)
			}
			res, err := Run(context.Background(), Options{
				Machine:               tc.machine,
				Sources:               sources,
				WarmupInsts:           5_000,
				MeasureInsts:          600_000,
				Mode:                  ModeSampled,
				Sampling:              Sampling{PeriodInsts: 50_001, UnitInsts: 1_000, WarmupInsts: 1_500},
				DisjointAddressSpaces: tc.disjoint,
			})
			if err != nil {
				t.Fatal(err)
			}
			if res.Report.Sampled == nil || res.Report.Sampled.WarpedInsts == 0 {
				t.Fatalf("no warp in the sampled run: %+v", res.Report.Sampled)
			}
			if tc.shared {
				assertCoherence(t, res.Report, false)
			}
			b, err := json.Marshal(res.Report)
			if err != nil {
				t.Fatal(err)
			}
			sum := sha256.Sum256(b)
			if got := hex.EncodeToString(sum[:]); got != tc.digest {
				t.Errorf("report digest %s, pinned %s", got, tc.digest)
			}
		})
	}
}
