package inject

import (
	"encoding/json"
	"fmt"
	"math/rand"
	"sort"

	"repro/internal/arch"
	"repro/internal/campaignio"
	"repro/internal/harden"
	"repro/internal/isa"
	"repro/internal/pipeline"
	"repro/internal/protect"
	"repro/internal/workload"
)

// consultProtection is the single sanctioned point where campaign code reads
// a protection map (the restorelint protectpolicy analyzer enforces this).
// Centralising the read keeps the fault-model semantics in one place: a flip
// landing in a parity domain is detected on read and recovered by flush, one
// landing in an ECC domain is corrected — either way it cannot fail.
func consultProtection(m *harden.Map, elem int) harden.Protection {
	return m.Protection(elem)
}

// UArchConfig parameterises a microarchitectural fault-injection campaign
// (Section 4.2): single bit flips into the pipeline's latches and SRAM
// cells, with caches and predictor tables excluded, at pre-selected
// injection points, each trial monitored for up to WindowCycles against a
// golden execution.
type UArchConfig struct {
	Bench workload.Benchmark
	Seed  int64
	Scale float64 // workload scale; 0 = 1.0

	// Points is the number of injection points (paper: 250-300 across
	// the campaign); TrialsPerPoint bits are flipped at each.
	Points         int
	TrialsPerPoint int

	// WarmupCycles runs the pipeline before the first point ("the model
	// was allowed to warm-up prior to each fault injection").
	WarmupCycles uint64
	// SpreadCycles is the range after warm-up that points are drawn
	// from.
	SpreadCycles uint64
	// WindowCycles is the per-trial observation window (paper: 10000).
	WindowCycles uint64

	// LatchesOnly restricts targeting to pipeline latches, excluding
	// SRAM arrays (the Section 5.1.2 campaign).
	LatchesOnly bool

	// BurstBits flips a run of adjacent bits per trial instead of one
	// (default 1). The paper's fault model is single-bit (Section 4.2);
	// this extension models the spatial multi-bit upsets that grow more
	// common as cells shrink.
	BurstBits int

	// Harden applies a protection scheme; flips landing in protected
	// elements are corrected/flushed and cannot fail (Figure 6).
	Harden harden.Scheme

	// Policy, if non-nil, overrides Harden with an explicit protection
	// policy (internal/protect) — e.g. one derived by the budgeted
	// optimizer from static vulnerability analysis. Protection is consulted
	// only after each pre-drawn bit pick, so campaigns at the same seed
	// visit identical picks under every policy; its fingerprint enters the
	// durable-campaign plan string.
	Policy *protect.Policy

	// Pipeline optionally overrides the processor configuration.
	Pipeline *pipeline.Config

	// RunOptions hold the run-time settings: workers, progress,
	// telemetry, interruption and durability.
	RunOptions
}

func (c *UArchConfig) applyDefaults() {
	if c.Scale == 0 {
		c.Scale = 1.0
	}
	if c.Points == 0 {
		c.Points = 25
	}
	if c.TrialsPerPoint == 0 {
		c.TrialsPerPoint = 50
	}
	if c.WarmupCycles == 0 {
		c.WarmupCycles = 10_000
	}
	if c.SpreadCycles == 0 {
		c.SpreadCycles = 40_000
	}
	if c.WindowCycles == 0 {
		c.WindowCycles = 10_000
	}
	if c.BurstBits == 0 {
		c.BurstBits = 1
	}
	if c.ShardCount == 0 {
		c.ShardCount = 1
	}
}

// UArchResult is the outcome of one microarchitectural campaign.
type UArchResult struct {
	Config      UArchConfig
	Trials      []UArchTrial
	TotalBits   uint64
	LatchBits   uint64
	HardenStats harden.Stats
}

// Distribution bins the trials at a checkpoint interval under a detector.
func (r *UArchResult) Distribution(interval uint64, det Detector) map[string]float64 {
	return UArchDistribution(r.Trials, interval, det).Fraction
}

// goldenTrace is the recorded golden continuation at one injection point.
type goldenTrace struct {
	commits []pipeline.CommitEvent
	// hashAt maps a state digest to the first cycle (relative to the
	// point) it occurred at, enabling masked detection even when the
	// faulty run lags the golden by a few cycles of timing skew.
	hashAt map[uint64]uint64
	// mispredicts is the golden run's conditional-misprediction
	// resolution schedule. Faulty-run mispredictions matching this
	// schedule are natural, not fault-induced, and do not count as
	// control-flow symptoms (the paper classifies cfv as faults that
	// CAUSED incorrect control flow).
	mispredicts []mispRec
}

type mispRec struct {
	pc       uint64
	taken    bool
	highConf bool
}

// uarchPick is one pre-drawn (point, trial) bit selection.
type uarchPick struct {
	ref     pipeline.BitRef
	isLatch bool
}

// RunUArch executes the campaign (see runCampaign): warm up, fork a golden
// pipeline at each injection point, record its continuation, then run
// TrialsPerPoint corrupted clones against it — serially, or fanned out
// across cfg.Workers goroutines with bit-identical results (all bit picks
// are pre-drawn on the dispatching goroutine; each trial fills a
// pre-assigned result slot). Every trial uses the shared decode cache and
// stops as soon as its outcome is decided.
//
// If the golden pipeline stops during warm-up or before an injection point
// (a short workload at small Scale ends before the spread is exhausted),
// the remaining points are truncated and the partial result is returned
// with TotalBits and the completed Trials populated.
//
// With ResumeFrom set the campaign is durable: completed trials are
// journalled and recovered on the next run (see the package comment in
// journal.go). With ShardCount > 1 only the owned slots run — the returned
// result is partial (other shards' slots are zero-valued) and MergeUArch
// reassembles the full one. When Interrupt fires, in-flight trials drain,
// the journal flushes, and RunUArch returns ErrInterrupted.
func RunUArch(cfg UArchConfig) (*UArchResult, error) {
	cfg.applyDefaults()
	result := &UArchResult{Config: cfg}
	trials, err := runCampaign(&cfg.RunOptions, "campaign_uarch", func() (campaign[UArchTrial], error) {
		return newUArchCampaign(&cfg, result)
	})
	if err != nil {
		return nil, err
	}
	result.Trials = trials
	return result, nil
}

// uarchCampaign is the microarchitectural engine's side of runCampaign.
type uarchCampaign struct {
	cfg     *UArchConfig
	result  *UArchResult // geometry aggregates, for the manifest
	pcfg    pipeline.Config
	master  *pipeline.Pipeline
	space   *pipeline.StateSpace
	protMap *harden.Map
	offsets []uint64    // injection points as cycle offsets past warm-up
	picks   []uarchPick // one per slot
	pool    *clonePool  // by pointer, for the reason given on vmCampaign.memPool

	base  uint64       // master's cycle count
	trace *goldenTrace // the current point's golden continuation
}

// newUArchCampaign builds the master pipeline, draws every injection point
// and bit pick, surveys the state space into result, and warms the master
// up (or restores it from a golden image).
func newUArchCampaign(cfg *UArchConfig, result *UArchResult) (*uarchCampaign, error) {
	prog, err := workload.Generate(cfg.Bench, workload.Config{Seed: cfg.Seed, Scale: cfg.Scale})
	if err != nil {
		return nil, err
	}
	m, err := prog.NewMemory()
	if err != nil {
		return nil, err
	}
	u := &uarchCampaign{cfg: cfg, result: result, pcfg: pipeline.DefaultConfig(), base: cfg.WarmupCycles}
	if cfg.Pipeline != nil {
		u.pcfg = *cfg.Pipeline
	}
	if u.master, err = pipeline.New(u.pcfg, m, prog.Entry); err != nil {
		return nil, err
	}
	// Decode the code image once; every clone shares the cache read-only
	// (Clone/ResetFrom propagate the pointer).
	u.master.SetDecodeCache(isa.NewDecodeCache(prog.CodeBase, prog.Code))
	// Per-stage counters and occupancy histograms track the master (warm-up
	// walk + golden recording); per-trial clones never inherit the
	// attachment (Clone/ResetFrom drop it).
	u.master.AttachObs(cfg.Obs, "pipeline")
	rng := rand.New(rand.NewSource(cfg.Seed ^ 0x0A12C4))

	// Injection points, visited in order.
	u.offsets = make([]uint64, cfg.Points)
	for i := range u.offsets {
		u.offsets[i] = uint64(rng.Int63n(int64(cfg.SpreadCycles)))
	}
	sort.Slice(u.offsets, func(i, j int) bool { return u.offsets[i] < u.offsets[j] })

	u.space = u.master.State()
	assign := harden.SchemeAssignments(cfg.Harden)
	if cfg.Policy != nil {
		assign = cfg.Policy.Assignments()
	}
	if u.protMap, err = harden.NewMapExact(u.space, assign); err != nil {
		return nil, err
	}
	result.TotalBits = u.space.TotalBits(false)
	result.LatchBits = u.space.TotalBits(true)
	result.HardenStats = harden.Survey(u.space, u.protMap)
	if cfg.LatchesOnly && result.LatchBits == 0 {
		return nil, fmt.Errorf("latch-only campaign over %d latch bits: %w",
			result.LatchBits, ErrNoEligibleBits)
	}

	// Pre-draw every (point, trial) bit pick serially, in exactly the
	// order the serial engine consumes the stream. The picks depend only
	// on the state space's fixed geometry, so drawing them up front (and
	// never handing the rand.Rand to a worker) is what makes the parallel
	// campaign bit-identical to the serial one.
	u.picks = make([]uarchPick, cfg.Points*cfg.TrialsPerPoint)
	for i := range u.picks {
		ref, isLatch, err := pickBit(u.space, rng, cfg.LatchesOnly)
		if err != nil {
			return nil, err
		}
		u.picks[i] = uarchPick{ref: ref, isLatch: isLatch}
	}
	u.pool = &clonePool{
		hits:   cfg.Obs.Counter("campaign_uarch_clone_pool_hits_total"),
		misses: cfg.Obs.Counter("campaign_uarch_clone_pool_misses_total"),
	}
	// The golden image captures bit-identical state, so a restored and a
	// simulated warm-up give byte-identical campaigns
	// (TestUArchGoldenImageEquivalence).
	if err := warmUp(&cfg.RunOptions, "campaign_uarch", u); err != nil {
		return nil, err
	}
	return u, nil
}

// manifest carries the geometry aggregates (Aux) that a merge reconstructs
// without building a pipeline.
func (u *uarchCampaign) manifest() (campaignio.Manifest, error) {
	man := u.cfg.manifest()
	var err error
	man.Aux, err = json.Marshal(uarchAux{
		TotalBits:   u.result.TotalBits,
		LatchBits:   u.result.LatchBits,
		HardenStats: hardenStatsJSON(u.result.HardenStats),
	})
	return man, err
}

func (u *uarchCampaign) points() int      { return u.cfg.Points }
func (u *uarchCampaign) slots(pi int) int { return u.cfg.TrialsPerPoint }

// advance runs the master to point pi; a master that stopped (the program
// ended inside warm-up or the spread) truncates the campaign.
func (u *uarchCampaign) advance(pi int) (bool, error) {
	if target := u.cfg.WarmupCycles + u.offsets[pi]; target > u.base {
		u.master.RunCycles(target - u.base)
		u.base = target
	}
	return u.master.Status() == pipeline.StatusRunning, nil
}

func (u *uarchCampaign) golden() (bool, error) {
	var err error
	u.trace, err = recordGolden(u.master, u.cfg.WindowCycles)
	return u.trace != nil, err
}

func (u *uarchCampaign) trial(slot int) (UArchTrial, func() UArchTrial) {
	pick := u.picks[slot]
	trial := UArchTrial{
		PointCycle:  u.master.Cycles(),
		Elem:        u.space.Elements()[pick.ref.Elem].Name,
		Bit:         pick.ref.Bit,
		IsLatch:     pick.isLatch,
		DeadlockLat: Never,
		ExcLat:      Never,
		CFVLat:      Never,
		HCMispLat:   Never,
		AnyMispLat:  Never,
		DivergeLat:  Never,
	}
	if consultProtection(u.protMap, pick.ref.Elem) != harden.Unprotected {
		// Parity detects the flip on read (recovered by flush); ECC
		// corrects it. Either way it cannot cause failure.
		trial.Protected = true
		return trial, nil
	}
	// Clone (or pool-reset) on the dispatching goroutine, while the master
	// still sits at this point.
	faulty, trace := u.pool.acquire(u.master), u.trace
	burst, window := u.cfg.BurstBits, u.cfg.WindowCycles
	return trial, func() UArchTrial {
		runUArchTrial(faulty, pick.ref, burst, trace, window, &trial)
		u.pool.release(faulty)
		return trial
	}
}

func (u *uarchCampaign) settle() {}

// category classifies a trial at the observation window under the perfect
// detector — the raw upset taxonomy, before any checkpoint-interval policy.
func (u *uarchCampaign) category(t UArchTrial) string {
	return t.CategoryAt(u.cfg.WindowCycles, DetectorPerfect).String()
}

// pickBitAttempts bounds the rejection sampler. Latches are the majority of
// the state space, so honest configurations terminate in a couple of draws;
// the bound exists so a degenerate state space surfaces ErrNoEligibleBits
// instead of hanging the campaign.
const pickBitAttempts = 1 << 16

// pickBit samples a uniformly random eligible bit (rejection sampling for
// the latch-only campaign). It fails with ErrNoEligibleBits when the
// constraints leave nothing to sample.
func pickBit(space *pipeline.StateSpace, rng *rand.Rand, latchesOnly bool) (pipeline.BitRef, bool, error) {
	if space.TotalBits(false) == 0 || (latchesOnly && space.TotalBits(true) == 0) {
		return pipeline.BitRef{}, false, ErrNoEligibleBits
	}
	for attempt := 0; attempt < pickBitAttempts; attempt++ {
		n := uint64(rng.Int63n(int64(space.TotalBits(false))))
		ref, ok := space.NthBit(n)
		if !ok {
			continue
		}
		isLatch := space.Elements()[ref.Elem].Kind == pipeline.KindLatch
		if latchesOnly && !isLatch {
			continue
		}
		return ref, isLatch, nil
	}
	return pipeline.BitRef{}, false, ErrNoEligibleBits
}

// recordGolden forks the master and records its continuation: per-cycle
// state digests and the committed instruction stream. A (nil, nil) return
// means the golden continuation stopped inside the observation window — the
// program is ending — and the campaign should truncate at this point rather
// than fail.
func recordGolden(master *pipeline.Pipeline, window uint64) (*goldenTrace, error) {
	g := master.Clone()
	trace := &goldenTrace{
		commits: make([]pipeline.CommitEvent, 0, window),
		hashAt:  make(map[uint64]uint64, window),
	}
	g.CommitHook = func(ev pipeline.CommitEvent) {
		trace.commits = append(trace.commits, ev)
	}
	g.BranchHook = func(ev pipeline.BranchEvent) {
		if ev.IsCond && ev.Mispredicted {
			trace.mispredicts = append(trace.mispredicts,
				mispRec{pc: ev.PC, taken: ev.ActualTaken, highConf: ev.HighConf})
		}
	}
	// Record with 25% slack so a faulty run that gets slightly ahead
	// still has golden events to compare against.
	total := window + window/4
	for c := uint64(0); c <= total; c++ {
		h := g.State().Hash()
		if _, seen := trace.hashAt[h]; !seen {
			trace.hashAt[h] = c
		}
		if c < total {
			g.Cycle()
			if g.Status() == pipeline.StatusHalted {
				return nil, nil // program ends inside the window: truncate
			}
			if g.Status() != pipeline.StatusRunning {
				return nil, fmt.Errorf("inject: golden continuation stopped: %v", g.Status())
			}
		}
	}
	return trace, nil
}

// runUArchTrial flips the bit and monitors the clone against the golden
// trace. The trial stops as soon as its classification is decided — a
// terminal pipeline status or a masked reconvergence — because no further
// simulation can change a decided outcome.
func runUArchTrial(f *pipeline.Pipeline, ref pipeline.BitRef, burst int, trace *goldenTrace, window uint64, trial *UArchTrial) {
	const hashEvery = 16

	// Flip a run of adjacent bits within the element (single-bit unless
	// the campaign models burst upsets). The run clips at the element's
	// width, as a physical strike clips at the array edge.
	width := f.State().Elements()[ref.Elem].Bits
	for b := 0; b < burst && ref.Bit+uint8(b) < width; b++ {
		f.State().Flip(pipeline.BitRef{Elem: ref.Elem, Bit: ref.Bit + uint8(b)})
	}
	flippedBit := f.State().Peek(ref)

	injRetired := f.Retired()
	var (
		commitIdx   int
		cfv         bool
		diverged    [32]bool
		divergedN   int
		divergedMem map[uint64]bool
	)
	markReg := func(r isa.Reg, diff bool) {
		if r == isa.RegZero {
			return
		}
		i := int(r) % 32
		if diff && !diverged[i] {
			diverged[i] = true
			divergedN++
		} else if !diff && diverged[i] {
			diverged[i] = false
			divergedN--
		}
	}

	latency := func() uint64 {
		lat := f.Retired() - injRetired
		if lat == 0 {
			lat = 1
		}
		return lat
	}

	f.CommitHook = func(ev pipeline.CommitEvent) {
		if cfv || commitIdx >= len(trace.commits) {
			commitIdx++
			return
		}
		g := trace.commits[commitIdx]
		commitIdx++

		if ev.Exception != arch.ExcNone {
			return // recorded via pipeline status
		}
		noteDiverge := func() {
			if trial.DivergeLat == Never {
				trial.DivergeLat = latency()
			}
		}

		// Control-flow violation detection, Table 1's two varieties:
		// legal-but-incorrect (a branch resolving to the wrong outcome)
		// and illegal (branching behaviour appearing or disappearing,
		// or the committed stream walking a different path — PC and
		// instruction both differ). A corrupted PC latch under an
		// unchanged non-branch instruction is bookkeeping damage, not a
		// violation; its real effects (wrong branch targets, wrong link
		// values) surface through these checks.
		branchChanged := ev.IsBranch != g.IsBranch ||
			(ev.IsBranch && (ev.Taken != g.Taken || ev.Target != g.Target))
		wrongPath := ev.PC != g.PC && ev.Inst != g.Inst
		if branchChanged || wrongPath {
			if trial.CFVLat == Never {
				trial.CFVLat = latency()
			}
			cfv = true
			trial.EverDiverged = true
			noteDiverge()
			return
		}

		// Register effects. When the faulty run writes a different
		// destination than the golden run, both registers diverge: the
		// one that got a wrong value and the one that missed its write.
		if ev.HasDest || g.HasDest {
			switch {
			case ev.HasDest && g.HasDest && ev.DestArch == g.DestArch:
				same := ev.DestVal == g.DestVal
				if !same {
					trial.EverDiverged = true
					noteDiverge()
				}
				markReg(ev.DestArch, !same)
			default:
				trial.EverDiverged = true
				noteDiverge()
				if ev.HasDest {
					markReg(ev.DestArch, true)
				}
				if g.HasDest {
					markReg(g.DestArch, true)
				}
			}
		}

		// Memory effects, including stores appearing or disappearing
		// under a corrupted control word.
		if ev.IsStore || g.IsStore {
			if divergedMem == nil && !(ev.IsStore && g.IsStore &&
				ev.MemAddr == g.MemAddr && ev.StoreVal == g.StoreVal) {
				divergedMem = make(map[uint64]bool)
			}
			switch {
			case ev.IsStore && !g.IsStore:
				trial.EverDiverged = true
				noteDiverge()
				divergedMem[ev.MemAddr] = true
			case !ev.IsStore && g.IsStore:
				trial.EverDiverged = true
				noteDiverge()
				divergedMem[g.MemAddr] = true
			case ev.MemAddr != g.MemAddr:
				trial.EverDiverged = true
				noteDiverge()
				divergedMem[ev.MemAddr] = true
				divergedMem[g.MemAddr] = true
			case ev.StoreVal != g.StoreVal:
				trial.EverDiverged = true
				noteDiverge()
				divergedMem[ev.MemAddr] = true
			default:
				if divergedMem != nil {
					delete(divergedMem, ev.MemAddr)
				}
			}
		}
	}
	mispIdx := 0
	f.BranchHook = func(ev pipeline.BranchEvent) {
		if !ev.Mispredicted || !ev.IsCond {
			return
		}
		// Match against the golden misprediction schedule: the k-th
		// faulty misprediction is natural iff it coincides with the
		// golden run's k-th. Any deviation — different branch, outcome
		// or confidence, or an extra event — is fault-induced.
		natural := mispIdx < len(trace.mispredicts) &&
			trace.mispredicts[mispIdx] == mispRec{pc: ev.PC, taken: ev.ActualTaken, highConf: ev.HighConf}
		mispIdx++
		if natural {
			return
		}
		if trial.AnyMispLat == Never {
			trial.AnyMispLat = latency()
		}
		if ev.HighConf && trial.HCMispLat == Never {
			trial.HCMispLat = latency()
		}
	}

	for c := uint64(1); c <= window; c++ {
		f.Step()
		switch f.Status() {
		case pipeline.StatusExcepted:
			kind, _, _ := f.Exception()
			trial.ExcLat = latency()
			trial.ExcKind = kind
			return
		case pipeline.StatusDeadlocked:
			trial.DeadlockLat = latency()
			return
		case pipeline.StatusHalted:
			// Synthetic workloads never halt; a committed HALT means
			// corrupted control flow reached a halt encoding.
			if trial.CFVLat == Never {
				trial.CFVLat = latency()
			}
			trial.EverDiverged = true
			return
		}
		if c%hashEvery == 0 && !cfv && divergedN == 0 && len(divergedMem) == 0 {
			if gc, ok := trace.hashAt[f.State().Hash()]; ok && gc <= c {
				// Microarchitectural state matches the golden run
				// (possibly lagged): the fault is gone.
				trial.Masked = true
				return
			}
		}
	}

	trial.ArchCorrupt = cfv || divergedN > 0 || len(divergedMem) > 0
	// The fault is "stuck" when the flipped bit still holds its post-flip
	// value and nothing architectural ever diverged: it sits unread in
	// (very likely dead) state, the paper's "other" category. Bits that
	// self-heal (overwritten back) converge to the golden hash and are
	// classified masked before reaching here.
	trial.FaultStuck = f.State().Peek(ref) == flippedBit && !trial.EverDiverged
}
