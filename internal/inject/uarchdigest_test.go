package inject

import (
	"errors"
	"fmt"
	"path/filepath"
	"testing"

	"repro/internal/harden"
	"repro/internal/pipeline"
	"repro/internal/workload"
)

// Committed µarch result digests: the SHA-256 of json.Marshal(Trials) (see
// trialsDigest) for the campaign geometries the engine's paths branch on —
// every benchmark serial and parallel, latch-only targeting, a hardened
// pipeline, burst flips, a watchdog-truncated campaign, a golden-image warm
// start, and the resume and shard+merge routes to one result. Any rewrite of
// the campaign driver must reproduce every trial byte for byte.

var uarchDigests = map[workload.Benchmark]string{
	workload.Bzip2:  "09a75374f0a62bbe21626a60b3294cd0e85e9dd87fa83e3ed2f8a4b0886f6dc8",
	workload.Gap:    "021c7f7a06f619f3d5eecf0e0cc85b58babf2dc9a53758ca223764660fb7e540",
	workload.GCC:    "486100ec19d3b7d2b0cd31397274a6cf79b9d41098e04fcd695c788e23055113",
	workload.Gzip:   "fbf3cc89a520c8ac68f9d0c4346217d003330de71e8cc6ffe0328cb9c4ef57ed",
	workload.MCF:    "412b3bf5084821addf76439b01bbff39d09ac213ffc8179fa9b07dffaf87ea6b",
	workload.Parser: "6618e5ea3183e2da75bb4d02f8ab5b6eef7a6c52b7569d99b95f28d92e590604",
	workload.Vortex: "503be0cecd5fa35927ca406eaafa0f7b1652fc4b33df0466b9a7675a50494e21",
}

func TestUArchDigests(t *testing.T) {
	for _, bench := range workload.Benchmarks() {
		bench := bench
		t.Run(string(bench), func(t *testing.T) {
			t.Parallel()
			for _, workers := range []int{0, 2} {
				cfg := smallUArch(bench)
				cfg.Workers = workers
				r, err := RunUArch(cfg)
				if err != nil {
					t.Fatal(err)
				}
				checkDigest(t, fmt.Sprintf("workers=%d", workers), r.Trials, uarchDigests[bench])
			}
		})
	}
}

// TestUArchDigestsVariants pins the targeting and fault-model options on
// gzip, each at one worker count and two.
func TestUArchDigestsVariants(t *testing.T) {
	for _, v := range []struct {
		name string
		mut  func(*UArchConfig)
		want string
	}{
		{"latches-only", func(c *UArchConfig) { c.LatchesOnly = true },
			"208c2e77bedab59dd00551a08a8b6eca09fea203783ec263ff8d0af29b5056a5"},
		{"low-hanging-fruit", func(c *UArchConfig) { c.Harden = harden.LowHangingFruit },
			"35fed6fae014995c7a3bd3fab3c6f4f1f7bd48358b2d2965736eea1f64a4ad64"},
		{"burst3", func(c *UArchConfig) { c.BurstBits = 3 },
			"d0f412d2781da3f5ac4b308a4d979546dc377a4792893501e67ea798c9593f6b"},
	} {
		v := v
		t.Run(v.name, func(t *testing.T) {
			t.Parallel()
			for _, workers := range []int{0, 2} {
				cfg := smallUArch(workload.Gzip)
				v.mut(&cfg)
				cfg.Workers = workers
				r, err := RunUArch(cfg)
				if err != nil {
					t.Fatal(err)
				}
				checkDigest(t, fmt.Sprintf("workers=%d", workers), r.Trials, v.want)
			}
		})
	}
}

// TestUArchDigestsTruncated pins the watchdog-truncated geometry of
// TestUArchTruncatedCampaign. The watchdog stops the golden pipeline inside
// warm-up, so the pinned result is the empty, non-nil trial slice: JSON "[]",
// where a nil slice would marshal as "null".
func TestUArchDigestsTruncated(t *testing.T) {
	const want = "4f53cda18c2baa0c0354bb5f9a3ecbe5ed12ab4d8e11ba873c2f11161202b945"
	for _, workers := range []int{0, 8} {
		cfg := smallUArch(workload.MCF)
		cfg.Workers = workers
		pcfg := pipeline.DefaultConfig()
		pcfg.WatchdogCycles = 64
		cfg.Pipeline = &pcfg
		r, err := RunUArch(cfg)
		if err != nil {
			t.Fatal(err)
		}
		checkDigest(t, fmt.Sprintf("workers=%d", workers), r.Trials, want)
	}
}

// TestUArchDigestsGoldenImage pins a campaign that saves a golden image and
// one that warm-starts from it.
func TestUArchDigestsGoldenImage(t *testing.T) {
	const want = "6618e5ea3183e2da75bb4d02f8ab5b6eef7a6c52b7569d99b95f28d92e590604"
	img := filepath.Join(t.TempDir(), "warm.golden")
	for _, label := range []string{"save", "load"} {
		cfg := smallUArch(workload.Parser)
		cfg.GoldenImage = img
		r, err := RunUArch(cfg)
		if err != nil {
			t.Fatal(err)
		}
		checkDigest(t, label, r.Trials, want)
	}
}

// TestUArchDigestsResumed reaches one result three ways: one shot;
// interrupted and resumed unsharded; and two shards, one of them interrupted
// and resumed, then merged.
func TestUArchDigestsResumed(t *testing.T) {
	const want = "eb8a37dbc92d9e323bd3ae485d5cbd5b1b393b059ebdc88d88c721ffd1fafc02"
	oneShot, err := RunUArch(resumeUArch(workload.Gzip))
	if err != nil {
		t.Fatal(err)
	}
	checkDigest(t, "one-shot", oneShot.Trials, want)

	dir := filepath.Join(t.TempDir(), "campaign")
	cfg := resumeUArch(workload.Gzip)
	cfg.ResumeFrom = dir
	cfg.Interrupt, cfg.Progress = interruptAfter(12)
	if _, err := RunUArch(cfg); !errors.Is(err, ErrInterrupted) {
		t.Fatalf("interrupted run returned %v, want ErrInterrupted", err)
	}
	cfg = resumeUArch(workload.Gzip)
	cfg.ResumeFrom = dir
	resumed, err := RunUArch(cfg)
	if err != nil {
		t.Fatal(err)
	}
	checkDigest(t, "interrupt+resume", resumed.Trials, want)

	dirs := []string{filepath.Join(t.TempDir(), "s0"), filepath.Join(t.TempDir(), "s1")}
	scfg := resumeUArch(workload.Gzip)
	scfg.ResumeFrom, scfg.ShardIndex, scfg.ShardCount = dirs[1], 1, 2
	scfg.Interrupt, scfg.Progress = interruptAfter(6)
	if _, err := RunUArch(scfg); !errors.Is(err, ErrInterrupted) {
		t.Fatalf("interrupted shard returned %v, want ErrInterrupted", err)
	}
	for i, d := range dirs {
		scfg := resumeUArch(workload.Gzip)
		scfg.ResumeFrom, scfg.ShardIndex, scfg.ShardCount = d, i, 2
		scfg.Workers = 2
		if _, err := RunUArch(scfg); err != nil {
			t.Fatalf("shard %d: %v", i, err)
		}
	}
	merged, err := MergeUArch(resumeUArch(workload.Gzip), dirs)
	if err != nil {
		t.Fatal(err)
	}
	checkDigest(t, "shard+merge", merged.Trials, want)
}

// TestCampaignIDPinned pins the campaign directory names, so journals and
// golden images written by earlier builds stay resumable.
func TestCampaignIDPinned(t *testing.T) {
	pol := smallUArch(workload.Gzip)
	pol.Policy = testPolicy()
	for _, c := range []struct {
		name string
		cfg  interface{ CampaignID() string }
		want string
	}{
		{"uarch", smallUArch(workload.Gzip), "uarch-gzip-7d935e59c293a96d"},
		{"vm", smallVM(workload.Gzip, false), "vm-gzip-2289a4a051087067"},
		{"uarch-policy", pol, "uarch-gzip-96a2babba6b2af6d"},
	} {
		if got := c.cfg.CampaignID(); got != c.want {
			t.Errorf("%s: CampaignID %q, want %q", c.name, got, c.want)
		}
	}
}
