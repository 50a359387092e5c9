package workload

import (
	"crypto/sha256"
	"encoding/binary"
	"encoding/hex"
	"fmt"
	"sync"
	"testing"

	"repro/internal/isa"
	"repro/internal/trace"
)

// digestLen is the number of records each pinned stream digest covers.
const digestLen = 1 << 20

// streamDigest returns the SHA-256 of the first n records of r in a fixed
// little-endian record encoding (every isa.Inst field: PC, Op, Dest,
// Src1, Src2, Addr, Size, Taken).
func streamDigest(r trace.Reader, n int) (string, error) {
	h := sha256.New()
	var buf []byte
	var in isa.Inst
	for i := 0; i < n; i++ {
		if !r.Next(&in) {
			return "", fmt.Errorf("stream ended at %d/%d", i, n)
		}
		buf = binary.LittleEndian.AppendUint64(buf, in.PC)
		buf = append(buf, byte(in.Op), byte(in.Dest), byte(in.Src1), byte(in.Src2))
		buf = binary.LittleEndian.AppendUint64(buf, in.Addr)
		taken := byte(0)
		if in.Taken {
			taken = 1
		}
		buf = append(buf, in.Size, taken)
		if len(buf) >= 1<<16 {
			h.Write(buf)
			buf = buf[:0]
		}
	}
	h.Write(buf)
	return hex.EncodeToString(h.Sum(nil)), nil
}

// TestMixSourcesConcurrent: mix readers built and drained by 8
// goroutines at once, as a runner's workers do, reproduce the streams of
// serial readers. Declared first in the package, it also makes the first
// use of the shared programs a contended one.
func TestMixSourcesConcurrent(t *testing.T) {
	const threads, workers, n = 4, 8, 200_000
	opts := MixOpts{Seed: 77, SegmentLen: 3_000}
	got := make([][]string, workers)
	start := make(chan struct{})
	var wg sync.WaitGroup
	for w := range got {
		wg.Add(1)
		go func() {
			defer wg.Done()
			<-start
			for _, r := range MixSources(threads, opts) {
				d, err := streamDigest(r, n)
				if err != nil {
					t.Error(err)
					return
				}
				got[w] = append(got[w], d)
			}
		}()
	}
	close(start)
	wg.Wait()
	for tid := 0; tid < threads; tid++ {
		want, err := streamDigest(newMixReader(tid, opts), n)
		if err != nil {
			t.Fatal(err)
		}
		for w := range got {
			if len(got[w]) != threads || got[w][tid] != want {
				t.Fatalf("worker %d thread %d: digests %v, serial %s", w, tid, got[w], want)
			}
		}
	}
}

// digestOpts are the (Seed, AddrOffset) pairs every builtin is pinned at.
var digestOpts = []ReaderOpts{
	{},
	{Seed: 1, AddrOffset: ThreadAddrOffset(1)},
	{Seed: 0x5eed, AddrOffset: ThreadAddrOffset(3)},
}

// pinnedStreamDigests are the SHA-256 digests of the first digestLen
// records of every live stream below. Any change to the generator that
// moves a single field of a single record changes one of them.
var pinnedStreamDigests = map[string]string{
	"applu|seed=0|off=0x0":                "530d7cdeecd6c6aeafb3f9f232c2aefdbd32fb3075bc0b7f8ca3ea40c3a2be60",
	"applu|seed=1|off=0x2000004a60":       "eed38442a35717b3158e35539fbe42e405cec34c81e5aab37a8e9aa2196443bd",
	"applu|seed=24301|off=0x400000df20":   "ffe90f3b3ec3bea895773e0333b2a6cb7fceaf96affd3205bc623268c6fb7747",
	"apsi|seed=0|off=0x0":                 "25d379ff0406ff4265465aa2f1b7594a07b83a3d618be3d8f2967982131f1515",
	"apsi|seed=1|off=0x2000004a60":        "be00a55cc31ec0802f7f441063e7f8dc430f6104fe15ae411715a0f5d953d6b0",
	"apsi|seed=24301|off=0x400000df20":    "faa259f577ceab991399b3631ba6c6bebeea40222e192ab3e91b8541848f8ee8",
	"fpppp|seed=0|off=0x0":                "a4baedaa8950ef37bb652b720a1c1724e097573bd87a9c9df3eb8625b1e73d64",
	"fpppp|seed=1|off=0x2000004a60":       "d2d7955a4a55477cbb7a7b324f4486317285a819308700cffed430373c27c3a9",
	"fpppp|seed=24301|off=0x400000df20":   "d1fb8610975fb47e67042af5e1684fb1b1fc5d81c716c13a85d38e5f9fa9d9f9",
	"hydro2d|seed=0|off=0x0":              "f963e62ec7fcdbc609267e9f6d8b0ef00e012d9e1de901bf152e9be28134c695",
	"hydro2d|seed=1|off=0x2000004a60":     "278640cfc130fca64e42bc8dea4da6e3ec73aefe363a301c1808342f02f6539f",
	"hydro2d|seed=24301|off=0x400000df20": "443d8d4533b2468cfd0f2d8c5ba60903e4483339737f54a8be45bd049a5832a0",
	"mgrid|seed=0|off=0x0":                "c9dd933a61c0e22702beeaedb3d48d6a141acfaf35c03e530c6e4d3111de010f",
	"mgrid|seed=1|off=0x2000004a60":       "4cada8ea91863a9005c78a6a7270450f6b947f41ca89b0a51a1df6eba9ddd49e",
	"mgrid|seed=24301|off=0x400000df20":   "90cdad846a3ca7ef0fd0411a2b7fde5b482031d9a0ad43eec50764152f7e9751",
	"mix|t=0|seg=1000":                    "43eb3eef17e05110422083d577da8621614228171bc98822740e8505df31f4f1",
	"mix|t=0|seg=40000":                   "dbc400ef5d4a92adbf484fb8b5742da95d86bd09a5a2f796d8f0d26d461b2dd8",
	"mix|t=1|seg=1000":                    "a777f585f10a12b7bd71f542a0bb51b5adb2bb2132488cbc524fd84ef28dc82e",
	"mix|t=1|seg=40000":                   "8cf8aa922a3c118a44b780f37204825a3082a5f6d91cc846f69001cf74c5e40d",
	"mix|t=2|seg=1000":                    "b0f851b4c88657186466fe2ce6551fe63b59d169b9e9ec308fc0562edc49de12",
	"mix|t=2|seg=40000":                   "6c9c6f847c43fc2105f94ea1b6893cfc924282c9eca4f08961470af1cbee421e",
	"mix|t=3|seg=1000":                    "72fdee820b53989caab0c8c46cfc135b76afa4673516cded964c3a18b4b71ea9",
	"mix|t=3|seg=40000":                   "f338d00349182307331bf7327f710f2de4f8c0e82c0693301a371f6cdb2285d2",
	"su2cor|seed=0|off=0x0":               "6525fa493fac6f575f93b0049adf8b47ccc03be22fbe8f4fd652e60532d38b99",
	"su2cor|seed=1|off=0x2000004a60":      "88fcf4e84090df0413668f857f604c257b5ce7a94e7908aad8ae7c2fabfa52bd",
	"su2cor|seed=24301|off=0x400000df20":  "cf13939785414396b8a288023e2df82a698806f12b4ffe58380baabf24e34612",
	"swim|seed=0|off=0x0":                 "cda0049cc637df85163414795acfd4de108347b02a0b55752fef46d6f891ceda",
	"swim|seed=1|off=0x2000004a60":        "30486e288012effd4df5b1b634b466229b43ec10661d77be26f55e0a468f6787",
	"swim|seed=24301|off=0x400000df20":    "665be6dba275c60d832484c34a00afb9f53d799a530890c96de35506f5f3f67e",
	"tomcatv|seed=0|off=0x0":              "1af25d04496ca805919fe0ffd9a951dfce6a230a6d763e156348bb4e1374cca3",
	"tomcatv|seed=1|off=0x2000004a60":     "12c956897ab44059d914abecdadc6fee143edbda565a20674907ef1d2a54d4e7",
	"tomcatv|seed=24301|off=0x400000df20": "13f1e5c81b2f21bb081f6ed56b64090878ffbb05e3bf8cde5630525a5feb2e50",
	"turb3d|seed=0|off=0x0":               "d2623a34464a90a2147d346045ccd7d353fd19927afaee8fafd16531acbe4ea4",
	"turb3d|seed=1|off=0x2000004a60":      "391e03823b9b36072491d5fc9ae575a44553179722c0e40874fb968b9af0bc5b",
	"turb3d|seed=24301|off=0x400000df20":  "642b982de2a681782f59e1c98e606ef9ca309c0b63b589d919c418b7f35d77d4",
	"wave5|seed=0|off=0x0":                "4fe06ae0f5445ec7d717deb4340445ac0800b4fb8a9c137859dfd854e70a1350",
	"wave5|seed=1|off=0x2000004a60":       "eac335b50c5c04fff455a0c25cc8345d45e18bc3ecd7d3bb00c93f9a0de2aa6c",
	"wave5|seed=24301|off=0x400000df20":   "33c4d22e3afe9136c3241e496c2c48e15dac30a2a56cedba42a8bdfc39e205a5",
}

// liveStreams names every pinned stream with a constructor for a fresh
// reader of it.
func liveStreams() map[string]func() trace.Reader {
	m := map[string]func() trace.Reader{}
	for _, b := range All() {
		for _, o := range digestOpts {
			m[fmt.Sprintf("%s|seed=%d|off=%#x", b.Name, o.Seed, o.AddrOffset)] = func() trace.Reader { return b.newGenerator(o) }
		}
	}
	for tid := 0; tid < 4; tid++ {
		for _, seg := range []int64{1000, DefaultSegmentLen} {
			m[fmt.Sprintf("mix|t=%d|seg=%d", tid, seg)] = func() trace.Reader { return newMixReader(tid, MixOpts{SegmentLen: seg}) }
		}
	}
	return m
}

// TestGeneratorStreamDigestsPinned pins the exact instruction streams of
// the live generators: every builtin benchmark at three (seed, offset)
// pairs and the per-thread mixes at two segment lengths.
func TestGeneratorStreamDigestsPinned(t *testing.T) {
	for name, mk := range liveStreams() {
		got, err := streamDigest(mk(), digestLen)
		if err != nil {
			t.Fatal(err)
		}
		if want := pinnedStreamDigests[name]; got != want {
			t.Errorf("%q: %s, want %s", name, got, want)
		}
	}
}
