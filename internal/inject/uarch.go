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
	"repro/internal/obs"
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

	// NoDecodeCache disables the shared pre-decoded instruction cache
	// built once per campaign from the workload's code image. The cache
	// verifies every fetched word before hitting, so it is inert: results
	// are byte-identical either way (the equivalence tests prove it), and
	// the toggle is excluded from the durable-campaign plan string.
	NoDecodeCache bool

	// NoEarlyExit keeps every trial simulating to the end of its window
	// even after its outcome classification is final (terminal pipeline
	// status or masked reconvergence), instead of stopping at the
	// decision. Inert by construction — the decided classification is
	// what the trial reports either way — and excluded from the plan
	// string; exists to prove the early-exit engine sound.
	NoEarlyExit bool

	// LegacyHash selects the original per-element state digest instead of
	// the packed extent walk. Trials compare hashes only for equality
	// within one campaign, so the choice is inert and excluded from the
	// plan string; exists to prove campaign outcomes digest-independent.
	LegacyHash bool

	// Workers is the number of goroutines trials fan out across; 0 (or 1)
	// runs the campaign serially on the calling goroutine. Results are
	// bit-identical for every worker count: all random bit picks are
	// pre-drawn serially and each trial writes a pre-assigned result slot.
	Workers int

	// Progress, if set, is called after each completed trial with the
	// running and total trial counts. With Workers > 1 it is invoked from
	// worker goroutines and must be safe for concurrent use. It must not
	// influence campaign state.
	Progress func(done, total int)

	// Obs, if non-nil, receives campaign telemetry under the
	// campaign_uarch_* namespace, plus per-stage pipeline counters and
	// occupancy histograms from the master pipeline under pipeline_*.
	// Purely observational: results are byte-identical with or without a
	// sink.
	Obs obs.Sink

	// ResumeFrom, if non-empty, makes the campaign durable: a manifest and
	// an append-only checksummed trial journal live in this directory
	// (internal/campaignio). Slots already journalled are loaded instead
	// of re-run, and newly completed trials are appended, so an
	// interrupted campaign pointed back at the same directory continues
	// where it stopped — with results byte-identical to a one-shot run.
	// The manifest is validated against this configuration's plan
	// fingerprint; a mismatch is an error, never a silent overwrite.
	ResumeFrom string

	// ShardIndex/ShardCount partition the pre-drawn trial plan across
	// processes: shard i of n runs the slots s with s%n == i. Each shard
	// journals into its own ResumeFrom directory; MergeUArch (or the
	// restore-sim merge subcommand) reassembles the full result. Zero
	// ShardCount means unsharded. Sharding requires ResumeFrom.
	ShardIndex int
	ShardCount int

	// GoldenImage, if non-empty, is the path of a warmed-state golden
	// image (internal/ckptio). When the file exists the campaign loads it
	// instead of simulating WarmupCycles; when it does not, the campaign
	// warms up normally and saves the image for the next run — so N
	// sharded workers pointed at one image pay for warm-up once. The image
	// records the configuration that produced it (bench, seed, scale,
	// warm-up length, pipeline config); loading a mismatched image is an
	// error, never silently wrong state. Results are byte-identical with
	// or without an image, so — like the other inert toggles — the field
	// is excluded from the durable-campaign plan string.
	GoldenImage string

	// CompressJournal selects the compressed-segment journal encoding
	// (campaignio format RSTJRNL2) for newly created durable journals.
	// Existing journals keep their own format on resume, scans read both,
	// and merged output is identical either way, so the toggle is inert
	// and excluded from the plan string.
	CompressJournal bool

	// Interrupt, if non-nil, stops the campaign cleanly when it becomes
	// readable: in-flight trials drain, the journal tail is flushed, and
	// RunUArch returns ErrInterrupted.
	Interrupt <-chan struct{}
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

// RunUArch executes the campaign: warm up, fork a golden pipeline at each
// injection point, record its continuation, then run TrialsPerPoint
// corrupted clones against it — serially, or fanned out across cfg.Workers
// goroutines with bit-identical results (all bit picks are pre-drawn on the
// dispatching goroutine; each trial fills a pre-assigned result slot).
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
	if err := validateSharding(cfg.ResumeFrom, cfg.ShardIndex, cfg.ShardCount); err != nil {
		return nil, err
	}
	prog, err := workload.Generate(cfg.Bench, workload.Config{Seed: cfg.Seed, Scale: cfg.Scale})
	if err != nil {
		return nil, err
	}
	m, err := prog.NewMemory()
	if err != nil {
		return nil, err
	}
	pcfg := pipeline.DefaultConfig()
	if cfg.Pipeline != nil {
		pcfg = *cfg.Pipeline
	}
	master, err := pipeline.New(pcfg, m, prog.Entry)
	if err != nil {
		return nil, err
	}
	if !cfg.NoDecodeCache {
		// Decode the code image once; every clone shares the cache
		// read-only (Clone/ResetFrom propagate the pointer).
		master.SetDecodeCache(isa.NewDecodeCache(prog.CodeBase, prog.Code))
	}
	master.State().SetLegacyHash(cfg.LegacyHash)
	// Per-stage counters and occupancy histograms track the master (warm-up
	// walk + golden recording); per-trial clones never inherit the
	// attachment (Clone/ResetFrom drop it).
	master.AttachObs(cfg.Obs, "pipeline")
	wall := cfg.Obs.Timer("campaign_uarch_wall").Start()
	rng := rand.New(rand.NewSource(cfg.Seed ^ 0x0A12C4))

	// Injection points as cycle offsets past warm-up, visited in order.
	// Drawn before the warm-up status check so a truncated campaign
	// consumes the same RNG stream as a full one.
	offsets := make([]uint64, cfg.Points)
	for i := range offsets {
		offsets[i] = uint64(rng.Int63n(int64(cfg.SpreadCycles)))
	}
	sort.Slice(offsets, func(i, j int) bool { return offsets[i] < offsets[j] })

	space := master.State()
	assign := harden.SchemeAssignments(cfg.Harden)
	if cfg.Policy != nil {
		assign = cfg.Policy.Assignments()
	}
	protMap, err := harden.NewMapExact(space, assign)
	if err != nil {
		return nil, err
	}
	result := &UArchResult{
		Config:      cfg,
		TotalBits:   space.TotalBits(false),
		LatchBits:   space.TotalBits(true),
		HardenStats: harden.Survey(space, protMap),
	}
	if cfg.LatchesOnly && result.LatchBits == 0 {
		return nil, fmt.Errorf("latch-only campaign over %d latch bits: %w",
			result.LatchBits, ErrNoEligibleBits)
	}

	// Pre-draw every (point, trial) bit pick serially, in exactly the
	// order the serial engine consumes the stream. The picks depend only
	// on the state space's fixed geometry, so drawing them up front (and
	// never handing the rand.Rand to a worker) is what makes the parallel
	// campaign bit-identical to the serial one.
	picks := make([]uarchPick, cfg.Points*cfg.TrialsPerPoint)
	for i := range picks {
		ref, isLatch, err := pickBit(space, rng, cfg.LatchesOnly)
		if err != nil {
			return nil, err
		}
		picks[i] = uarchPick{ref: ref, isLatch: isLatch}
	}

	// Durable campaigns: validate/write the manifest, recover already
	// journalled slots (decoded straight into their result slots), and
	// append every newly completed trial. All randomness is pre-drawn
	// above, so skipping recovered slots cannot perturb the RNG stream.
	var jr *campaignJournal
	trials := make([]UArchTrial, len(picks))
	done := make([]bool, len(picks))
	if cfg.ResumeFrom != "" {
		man, err := cfg.manifest(result)
		if err != nil {
			return nil, err
		}
		var loaded [][]byte
		jr, loaded, err = openCampaignJournal(cfg.ResumeFrom, man, cfg.CompressJournal)
		if err != nil {
			return nil, err
		}
		for slot, p := range loaded {
			if p == nil {
				continue
			}
			if err := json.Unmarshal(p, &trials[slot]); err != nil {
				jr.finish(nil, "")
				return nil, fmt.Errorf("inject: %s: %w: slot %d: %v",
					cfg.ResumeFrom, campaignio.ErrCorrupt, slot, err)
			}
			done[slot] = true
		}
	}
	owns := func(slot int) bool { return ownsSlot(slot, cfg.ShardIndex, cfg.ShardCount) }
	// pointLoaded reports whether EVERY slot of a point was recovered from
	// the journal — only then is golden recording skippable (see journal.go
	// on why ownership alone is not enough: truncation detection must stay
	// identical across shards).
	pointLoaded := func(pi int) bool {
		for t := 0; t < cfg.TrialsPerPoint; t++ {
			if !done[pi*cfg.TrialsPerPoint+t] {
				return false
			}
		}
		return true
	}
	// totalTrials sizes the progress meter to the slots this run is
	// responsible for: owned slots, whether recovered or re-run.
	totalTrials := 0
	for slot := range picks {
		if owns(slot) {
			totalTrials++
		}
	}

	// Warm up the master — or restore the warm-up boundary from a golden
	// image. The image captures bit-identical state, so both paths produce
	// byte-identical campaigns (TestUArchGoldenImageEquivalence).
	loaded, err := loadUArchGolden(&cfg, pcfg, master)
	if err != nil {
		jr.finish(nil, "")
		return nil, err
	}
	if !loaded {
		master.RunCycles(cfg.WarmupCycles)
		if err := saveUArchGolden(&cfg, pcfg, master); err != nil {
			jr.finish(nil, "")
			return nil, err
		}
	}
	if master.Status() != pipeline.StatusRunning {
		// The program ended inside warm-up: nothing to inject into.
		result.Trials = []UArchTrial{}
		recordUArchTelemetry(cfg.Obs, result, true, wall.Stop())
		if err := jr.finish(cfg.Obs, "campaign_uarch"); err != nil {
			return nil, err
		}
		return result, nil
	}

	eng := newEngine(cfg.Workers, cfg.Obs, "campaign_uarch")
	pool := clonePool{
		hits:   cfg.Obs.Counter("campaign_uarch_clone_pool_hits_total"),
		misses: cfg.Obs.Counter("campaign_uarch_clone_pool_misses_total"),
	}
	pointsRun := 0
	stopped := false

	base := cfg.WarmupCycles
	for pi, off := range offsets {
		if interrupted(cfg.Interrupt) {
			stopped = true
			break
		}
		target := cfg.WarmupCycles + off
		if target > base {
			master.RunCycles(target - base)
			base = target
		}
		if master.Status() != pipeline.StatusRunning {
			break // program ended mid-spread: truncate remaining points
		}

		// A point whose every slot was recovered needs no golden trace
		// and no trials; the master walks on to the next point.
		if pointLoaded(pi) {
			for t := 0; t < cfg.TrialsPerPoint; t++ {
				if owns(pi*cfg.TrialsPerPoint + t) {
					eng.done(cfg.Progress, totalTrials)
				}
			}
			pointsRun = pi + 1
			continue
		}

		// Golden-trace recording stays on the dispatching goroutine;
		// the master cannot be shared with in-flight trials.
		trace, err := recordGolden(master, cfg.WindowCycles)
		if err != nil {
			eng.wait()
			jr.finish(cfg.Obs, "campaign_uarch")
			return nil, err
		}
		if trace == nil {
			break // golden continuation ended inside the window: truncate
		}

		for t := 0; t < cfg.TrialsPerPoint; t++ {
			slot := pi*cfg.TrialsPerPoint + t
			if !owns(slot) {
				continue // another shard's slot
			}
			if done[slot] {
				eng.done(cfg.Progress, totalTrials)
				continue // recovered from the journal
			}
			if interrupted(cfg.Interrupt) {
				stopped = true
				break
			}
			pick := picks[slot]
			elem := space.Elements()[pick.ref.Elem]

			trial := UArchTrial{
				PointCycle:  master.Cycles(),
				Elem:        elem.Name,
				Bit:         pick.ref.Bit,
				IsLatch:     pick.isLatch,
				DeadlockLat: Never,
				ExcLat:      Never,
				CFVLat:      Never,
				HCMispLat:   Never,
				AnyMispLat:  Never,
				DivergeLat:  Never,
			}

			if consultProtection(protMap, pick.ref.Elem) != harden.Unprotected {
				// Parity detects the flip on read (recovered by
				// flush); ECC corrects it. Either way it cannot
				// cause failure.
				trial.Protected = true
				trials[slot] = trial
				jr.record(slot, &trials[slot])
				eng.done(cfg.Progress, totalTrials)
				continue
			}

			// Clone (or pool-reset) on the dispatching goroutine,
			// while the master still sits at this point.
			faulty := pool.acquire(master)
			ref := pick.ref
			eng.submit(func() {
				runUArchTrial(faulty, ref, cfg.BurstBits, trace, cfg.WindowCycles, &trial, cfg.NoEarlyExit)
				trials[slot] = trial
				jr.record(slot, &trials[slot])
				pool.release(faulty)
				eng.done(cfg.Progress, totalTrials)
			})
		}
		if stopped {
			break
		}
		pointsRun = pi + 1
	}
	eng.wait()
	if stopped {
		// Drained workers have journalled their trials; flush the tail so
		// a resumed run recovers every completed slot.
		cfg.Obs.Counter("campaign_uarch_interrupted_total").Inc()
		if err := jr.finish(cfg.Obs, "campaign_uarch"); err != nil {
			return nil, err
		}
		return nil, ErrInterrupted
	}
	result.Trials = trials[:pointsRun*cfg.TrialsPerPoint]
	recordUArchTelemetry(cfg.Obs, result, pointsRun < cfg.Points, wall.Stop())
	if err := jr.finish(cfg.Obs, "campaign_uarch"); err != nil {
		return nil, err
	}
	return result, nil
}

// manifest builds the durable-campaign manifest for this configuration.
// result supplies the geometry aggregates (Aux) that a merge reconstructs
// without building a pipeline. The receiver must already have defaults
// applied.
func (c UArchConfig) manifest(result *UArchResult) (campaignio.Manifest, error) {
	aux, err := json.Marshal(uarchAux{
		TotalBits: result.TotalBits,
		LatchBits: result.LatchBits,
		HardenStats: hardenStatsJSON{
			TotalBits:    result.HardenStats.TotalBits,
			ECCBits:      result.HardenStats.ECCBits,
			ParityBits:   result.HardenStats.ParityBits,
			OverheadBits: result.HardenStats.OverheadBits,
		},
	})
	if err != nil {
		return campaignio.Manifest{}, err
	}
	shards := c.ShardCount
	if shards == 0 {
		shards = 1
	}
	return campaignio.Manifest{
		Version:    campaignio.FormatVersion,
		Kind:       "uarch",
		ConfigHash: fingerprint(c.planString()),
		Seed:       c.Seed,
		Bench:      string(c.Bench),
		Slots:      c.Points * c.TrialsPerPoint,
		ShardIndex: c.ShardIndex,
		ShardCount: shards,
		Aux:        aux,
	}, nil
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
// terminal pipeline status or a masked reconvergence — unless noEarlyExit
// asks for the proof mode, which freezes the decision (trialDecision), runs
// the window out, and returns the frozen record.
func runUArchTrial(f *pipeline.Pipeline, ref pipeline.BitRef, burst int, trace *goldenTrace, window uint64, trial *UArchTrial, noEarlyExit bool) {
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

	var dec trialDecision
	for c := uint64(1); c <= window; c++ {
		f.Step()
		switch f.Status() {
		case pipeline.StatusExcepted:
			if !dec.decided {
				kind, _, _ := f.Exception()
				trial.ExcLat = latency()
				trial.ExcKind = kind
				dec.decide(trial)
			}
			if !noEarlyExit {
				return
			}
		case pipeline.StatusDeadlocked:
			if !dec.decided {
				trial.DeadlockLat = latency()
				dec.decide(trial)
			}
			if !noEarlyExit {
				return
			}
		case pipeline.StatusHalted:
			// Synthetic workloads never halt; a committed HALT means
			// corrupted control flow reached a halt encoding.
			if !dec.decided {
				if trial.CFVLat == Never {
					trial.CFVLat = latency()
				}
				trial.EverDiverged = true
				dec.decide(trial)
			}
			if !noEarlyExit {
				return
			}
		}
		if c%hashEvery == 0 && !cfv && divergedN == 0 && len(divergedMem) == 0 {
			if gc, ok := trace.hashAt[f.State().Hash()]; ok && gc <= c {
				// Microarchitectural state matches the golden run
				// (possibly lagged): the fault is gone.
				if !dec.decided {
					trial.Masked = true
					dec.decide(trial)
				}
				if !noEarlyExit {
					return
				}
			}
		}
	}

	if dec.decided {
		// NoEarlyExit ran the window out past the decision; the frozen
		// classification is the result, and final classification is
		// skipped exactly as the early-exit returns skip it.
		*trial = dec.frozen
		return
	}
	trial.ArchCorrupt = cfv || divergedN > 0 || len(divergedMem) > 0
	// The fault is "stuck" when the flipped bit still holds its post-flip
	// value and nothing architectural ever diverged: it sits unread in
	// (very likely dead) state, the paper's "other" category. Bits that
	// self-heal (overwritten back) converge to the golden hash and are
	// classified masked before reaching here.
	trial.FaultStuck = f.State().Peek(ref) == flippedBit && !trial.EverDiverged
}
