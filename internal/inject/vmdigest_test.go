package inject

import (
	"crypto/sha256"
	"encoding/hex"
	"encoding/json"
	"errors"
	"fmt"
	"path/filepath"
	"testing"

	"repro/internal/isa"
	"repro/internal/mem"
	"repro/internal/workload"
)

// Committed VM result digests: the SHA-256 of json.Marshal(Trials) for a
// fixed set of campaign geometries, serial and parallel. They pin the VM
// engine's output absolutely, so any rewrite of how the golden run is
// recorded or replayed must reproduce every trial byte for byte.

// trialsDigest is the SHA-256 of json.Marshal(trials); both engines' digest
// tests pin their results through it.
func trialsDigest[T any](t *testing.T, trials []T) string {
	t.Helper()
	b, err := json.Marshal(trials)
	if err != nil {
		t.Fatal(err)
	}
	sum := sha256.Sum256(b)
	return hex.EncodeToString(sum[:])
}

func checkDigest[T any](t *testing.T, label string, trials []T, want string) {
	t.Helper()
	if got := trialsDigest(t, trials); got != want {
		t.Errorf("%s: trials digest %s, want %s (%d trials)", label, got, want, len(trials))
	}
}

// denseVMDigests covers smallVM: 20 points in a 40k-instruction spread with
// 20k-instruction windows, so consecutive windows overlap heavily.
var denseVMDigests = map[workload.Benchmark]string{
	workload.Bzip2:  "9974979b6dbd132d0e528685d9bf1e1d28464633bcfa6f7aa7dc6f885dc02d10",
	workload.Gap:    "287f38235918d23b11602ef40b037b7ce41c0305296fbfedf801bd6c79be6a7c",
	workload.GCC:    "8f87dbab027ef65eda9757d6f986810eacaaf6305675aa996203c0ce909f4311",
	workload.Gzip:   "46e155497864486c084c6f95e253b0f1671d048f5df32b26a35214b12d6d56ff",
	workload.MCF:    "c83ddaa72179e4810d3e5b4e70b1480bb188f72b36a645b48e9b60991233a8c7",
	workload.Parser: "7cbe5778ec02f30bf306218aff2b220d10686e0c612c8dcb10bb49b2ee9f20ed",
	workload.Vortex: "5bda0c0797104939615e02f86c45d7ba49b97233a747e4a2aa460ab6c1c96cbb",
}

func TestVMDigestsDense(t *testing.T) {
	for _, bench := range workload.Benchmarks() {
		bench := bench
		t.Run(string(bench), func(t *testing.T) {
			t.Parallel()
			for _, workers := range []int{0, 2} {
				cfg := smallVM(bench, false)
				cfg.Workers = workers
				r, err := RunVM(cfg)
				if err != nil {
					t.Fatal(err)
				}
				checkDigest(t, fmt.Sprintf("workers=%d", workers), r.Trials, denseVMDigests[bench])
			}
		})
	}
}

// TestVMDigestsSparse spreads a few short windows far apart (Spread much
// larger than Points×Window), so no two windows share an instruction.
func TestVMDigestsSparse(t *testing.T) {
	const want = "98f9dbf42da6f7371b34d14f4516ae554398095d0d5273ed1f8e0f635eda4d49"
	for _, workers := range []int{0, 2} {
		cfg := VMConfig{
			Bench: workload.Gzip, Seed: 3, Scale: 0.5,
			Trials: 30, Points: 6, Window: 2_000, Spread: 300_000,
			RunOptions: RunOptions{Workers: workers},
		}
		r, err := RunVM(cfg)
		if err != nil {
			t.Fatal(err)
		}
		if len(r.Trials) != cfg.Trials {
			t.Fatalf("workers=%d: %d trials, want %d", workers, len(r.Trials), cfg.Trials)
		}
		checkDigest(t, fmt.Sprintf("workers=%d", workers), r.Trials, want)
	}
}

// finiteProgram loops iters times over a small read-modify-write buffer and
// then halts — or, with fault set, first loads from an unmapped address.
// The suite's workloads loop forever, so this is the only way to reach the
// campaign's halt and golden-exception paths.
func finiteProgram(t *testing.T, iters uint64, fault bool) *workload.Program {
	t.Helper()
	b := workload.NewBuilder("finite")
	buf := b.AllocData("buf", make([]byte, 256), mem.PermRW)
	b.LoadImm(1, iters)
	b.LoadImm(2, buf)
	b.LoadImm(3, 0)
	b.Label("loop")
	b.OpLit(isa.OpAND, 1, 31, 5)
	b.OpLit(isa.OpSLL, 5, 3, 5)
	b.Op(isa.OpADDQ, 2, 5, 6)
	b.Load(isa.OpLDQ, 4, 0, 6)
	b.Op(isa.OpADDQ, 4, 1, 4)
	b.Store(isa.OpSTQ, 4, 0, 6)
	b.Op(isa.OpXOR, 3, 4, 3)
	b.OpLit(isa.OpSUBQ, 1, 1, 1)
	b.Branch(isa.OpBGT, 1, "loop")
	if fault {
		b.LoadImm(6, 0x10)
		b.Load(isa.OpLDQ, 4, 0, 6)
	}
	b.Emit(isa.Inst{Op: isa.OpHALT})
	p, err := b.Build()
	if err != nil {
		t.Fatal(err)
	}
	return p
}

// finiteVM places points so the finite program's end (~18k instructions)
// falls inside a later point's observation window.
func finiteVM(workers int) VMConfig {
	cfg := VMConfig{
		Seed: 5, Trials: 40, Points: 10,
		Warmup: 1_000, Spread: 24_000, Window: 4_000,
		RunOptions: RunOptions{Workers: workers},
	}
	cfg.applyDefaults()
	return cfg
}

// TestVMDigestsHaltInWindow truncates the campaign at the first point whose
// window the golden program halts inside.
func TestVMDigestsHaltInWindow(t *testing.T) {
	const (
		want       = "fc4232f4301c70a24b6253f0c3a31d287111e0a9b98d3a1cae43dc1a0472b892"
		wantTrials = 16
	)
	for _, workers := range []int{0, 2} {
		r, err := runVM(finiteVM(workers), finiteProgram(t, 2_000, false))
		if err != nil {
			t.Fatal(err)
		}
		if len(r.Trials) != wantTrials {
			t.Errorf("workers=%d: %d trials, want %d", workers, len(r.Trials), wantTrials)
		}
		checkDigest(t, fmt.Sprintf("workers=%d", workers), r.Trials, want)
	}
}

// TestVMGoldenExceptionInWindow fails the campaign with the golden run's
// own exception when it faults inside an observation window.
func TestVMGoldenExceptionInWindow(t *testing.T) {
	const want = "inject: golden exception at 0x10048"
	for _, workers := range []int{0, 2} {
		_, err := runVM(finiteVM(workers), finiteProgram(t, 2_000, true))
		if err == nil || err.Error() != want {
			t.Errorf("workers=%d: err = %v, want %q", workers, err, want)
		}
	}
}

// TestVMDigestsResumed reaches one result three ways: one shot; interrupted
// and resumed unsharded, so the resumed run skips fully recovered points;
// and two shards, one of them interrupted and resumed, then merged.
func TestVMDigestsResumed(t *testing.T) {
	const want = "f111c3baebbd83c2b2683d08a86ae03a1623ef449dae9ecaad8615dedae08441"
	oneShot, err := RunVM(resumeVM(workload.Gzip))
	if err != nil {
		t.Fatal(err)
	}
	checkDigest(t, "one-shot", oneShot.Trials, want)

	dir := filepath.Join(t.TempDir(), "campaign")
	cfg := resumeVM(workload.Gzip)
	cfg.ResumeFrom = dir
	cfg.Interrupt, cfg.Progress = interruptAfter(15)
	if _, err := RunVM(cfg); !errors.Is(err, ErrInterrupted) {
		t.Fatalf("interrupted run returned %v, want ErrInterrupted", err)
	}
	cfg = resumeVM(workload.Gzip)
	cfg.ResumeFrom = dir
	resumed, err := RunVM(cfg)
	if err != nil {
		t.Fatal(err)
	}
	checkDigest(t, "interrupt+resume", resumed.Trials, want)

	dirs := []string{filepath.Join(t.TempDir(), "s0"), filepath.Join(t.TempDir(), "s1")}
	scfg := resumeVM(workload.Gzip)
	scfg.ResumeFrom, scfg.ShardIndex, scfg.ShardCount = dirs[0], 0, 2
	scfg.Interrupt, scfg.Progress = interruptAfter(8)
	if _, err := RunVM(scfg); !errors.Is(err, ErrInterrupted) {
		t.Fatalf("interrupted shard returned %v, want ErrInterrupted", err)
	}
	for i, d := range dirs {
		scfg := resumeVM(workload.Gzip)
		scfg.ResumeFrom, scfg.ShardIndex, scfg.ShardCount = d, i, 2
		scfg.Workers = 2
		if _, err := RunVM(scfg); err != nil {
			t.Fatalf("shard %d: %v", i, err)
		}
	}
	merged, err := MergeVM(resumeVM(workload.Gzip), dirs)
	if err != nil {
		t.Fatal(err)
	}
	checkDigest(t, "shard+merge", merged.Trials, want)
}
