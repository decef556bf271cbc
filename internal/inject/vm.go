package inject

import (
	"encoding/json"
	"fmt"
	"math/rand"
	"sort"
	"sync"

	"repro/internal/arch"
	"repro/internal/campaignio"
	"repro/internal/harden"
	"repro/internal/isa"
	"repro/internal/mem"
	"repro/internal/obs"
	"repro/internal/protect"
	"repro/internal/workload"
)

// VMConfig parameterises the software-level campaign of Section 3.1: the
// fault model is a single bit flip in the result of a randomly chosen
// instruction, executed on the architectural simulator ("we abstract away
// the processor implementation ... focusing on the propagation of the
// incorrect architectural state into a soft error symptom").
type VMConfig struct {
	Bench workload.Benchmark
	Seed  int64
	Scale float64 // workload scale; 0 = 1.0

	// Trials is the number of injections (paper: ~1000 per benchmark).
	Trials int
	// Points is the number of distinct injection instructions; trials
	// are spread across them with different bit positions. 0 derives
	// Trials/8.
	Points int

	// Warmup is the instruction index where injection points begin.
	Warmup uint64
	// Spread is the range of instruction indices points are drawn from.
	Spread uint64
	// Window is how many instructions each trial observes after the
	// injection (the largest finite latency bin of Figure 2).
	Window uint64

	// Low32 restricts flips to result bits 0..31, reproducing the
	// Section 3.1 sensitivity study of virtual-address-space size.
	Low32 bool

	// NoDecodeCache disables the shared pre-decoded instruction cache
	// built once per campaign from the workload's code image. The cache
	// verifies every fetched word before hitting, so it is inert: results
	// are byte-identical either way (the equivalence tests prove it), and
	// the toggle is excluded from the durable-campaign plan string.
	NoDecodeCache bool

	// NoEarlyExit keeps every trial replaying its full golden window even
	// after the faulty machine has halted behind a control-flow
	// divergence, where every remaining step is a stopped no-op. Inert by
	// construction and excluded from the plan string; exists to prove the
	// early exit sound.
	NoEarlyExit bool

	// Policy, if non-nil, applies a protection policy (internal/protect)
	// at this campaign's architectural fault model: the flipped result bit
	// lives in the physical register file, so a policy covering "prf.val"
	// absorbs every trial (ECC corrects the flip before any consumer reads
	// it; parity detects it and a flush refetches). Bit picks stay
	// pre-drawn, so trial plans are identical under every policy; the
	// policy fingerprint enters the durable-campaign plan string.
	Policy *protect.Policy

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

	// Obs, if non-nil, receives campaign telemetry (trial/outcome counts,
	// throughput, pool and queue accounting) under the campaign_vm_*
	// namespace. Purely observational: results are byte-identical with or
	// without a sink.
	Obs obs.Sink

	// ResumeFrom, if non-empty, makes the campaign durable: a manifest and
	// an append-only checksummed trial journal live in this directory
	// (internal/campaignio). Journalled slots are recovered instead of
	// re-run; results are byte-identical to a one-shot run.
	ResumeFrom string

	// ShardIndex/ShardCount partition the trial plan across processes:
	// shard i of n runs the slots s with s%n == i, journalling into its
	// own ResumeFrom directory; MergeVM reassembles the full result. Zero
	// ShardCount means unsharded. Sharding requires ResumeFrom.
	ShardIndex int
	ShardCount int

	// GoldenImage, if non-empty, is the path of a warmed-state golden
	// image (internal/ckptio). When the file exists the campaign loads it
	// instead of walking the golden simulator to the Warmup boundary; when
	// it does not, the campaign walks there normally and saves the image
	// for the next run. The image records the configuration that produced
	// it; a mismatch is an error. Results are byte-identical with or
	// without an image, so the field is excluded from the durable-campaign
	// plan string.
	GoldenImage string

	// CompressJournal selects the compressed-segment journal encoding
	// (campaignio format RSTJRNL2) for newly created durable journals.
	// Existing journals keep their own format on resume, scans read both,
	// and merged output is identical either way, so the toggle is inert
	// and excluded from the plan string.
	CompressJournal bool

	// Interrupt, if non-nil, stops the campaign cleanly when it becomes
	// readable: in-flight trials drain, the journal tail is flushed, and
	// RunVM returns ErrInterrupted.
	Interrupt <-chan struct{}
}

func (c *VMConfig) applyDefaults() {
	if c.Scale == 0 {
		c.Scale = 1.0
	}
	if c.Trials == 0 {
		c.Trials = 1000
	}
	if c.Points == 0 {
		c.Points = (c.Trials + 7) / 8
	}
	if c.Points > c.Trials {
		c.Points = c.Trials
	}
	if c.Warmup == 0 {
		c.Warmup = 5_000
	}
	if c.Spread == 0 {
		c.Spread = 200_000
	}
	if c.Window == 0 {
		c.Window = 100_000
	}
	if c.ShardCount == 0 {
		c.ShardCount = 1
	}
}

// manifest builds the durable-campaign manifest for this configuration. The
// receiver must already have defaults applied.
func (c VMConfig) manifest() campaignio.Manifest {
	shards := c.ShardCount
	if shards == 0 {
		shards = 1
	}
	return campaignio.Manifest{
		Version:    campaignio.FormatVersion,
		Kind:       "vm",
		ConfigHash: fingerprint(c.planString()),
		Seed:       c.Seed,
		Bench:      string(c.Bench),
		Slots:      c.Trials,
		ShardIndex: c.ShardIndex,
		ShardCount: shards,
	}
}

// VMResult is the outcome of one software-level campaign.
type VMResult struct {
	Config VMConfig
	Trials []VMTrial
}

// MaskedFraction returns the fraction of trials whose faults were masked.
// A campaign truncated down to zero trials (golden program halts before the
// first injection point) has no evidence either way and reports 0, not NaN
// — the same convention as FailureRate/RawFailureRate.
func (r *VMResult) MaskedFraction() float64 {
	if len(r.Trials) == 0 {
		return 0
	}
	masked := 0
	for _, t := range r.Trials {
		if t.Masked {
			masked++
		}
	}
	return float64(masked) / float64(len(r.Trials))
}

// Distribution bins the trials at one detection latency.
func (r *VMResult) Distribution(latency uint64) map[string]float64 {
	return VMDistribution(r.Trials, latency).Fraction
}

// RunVM executes the campaign. Two golden simulators walk the program once
// each. The trailing simulator stops at every injection point, executes the
// injection instruction and hands each trial its post-injection state —
// rewound in place serially, forked per trial when cfg.Workers fans trials
// out. The lead simulator runs ahead on its own copy of memory and records
// the golden run into one campaign-wide trace (see vmGoldenTrace), so each
// point's observation window is a slice of that trace rather than a
// re-simulation. Each trial replays the continuation with one result bit
// flipped and compares it against its window instruction by instruction.
// Results are bit-identical for every worker count: every bit pick is
// pre-drawn on the dispatching goroutine and every trial fills a
// pre-assigned result slot.
//
// If the golden program halts before an injection point or inside a golden
// observation window (a short workload at small Scale), the remaining
// points are truncated and the partial result is returned.
//
// With ResumeFrom set the campaign is durable: completed trials are
// journalled and recovered on the next run (see the package comment in
// journal.go). With ShardCount > 1 only the owned slots run — the returned
// result is partial and MergeVM reassembles the full one. When Interrupt
// fires, in-flight trials drain, the journal flushes, and RunVM returns
// ErrInterrupted.
func RunVM(cfg VMConfig) (*VMResult, error) {
	cfg.applyDefaults()
	if err := validateSharding(cfg.ResumeFrom, cfg.ShardIndex, cfg.ShardCount); err != nil {
		return nil, err
	}
	prog, err := workload.Generate(cfg.Bench, workload.Config{Seed: cfg.Seed, Scale: cfg.Scale})
	if err != nil {
		return nil, err
	}
	return runVM(cfg, prog)
}

// runVM runs the campaign of a defaulted, validated cfg over prog.
func runVM(cfg VMConfig, prog *workload.Program) (*VMResult, error) {
	m, err := prog.NewMemory()
	if err != nil {
		return nil, err
	}
	m.EnableJournal()
	sim := arch.New(m, prog.Entry)
	var dcache *isa.DecodeCache
	if !cfg.NoDecodeCache {
		// Decode the code image once; the golden simulators and every
		// per-trial fork share the cache read-only.
		dcache = isa.NewDecodeCache(prog.CodeBase, prog.Code)
	}
	sim.DCache = dcache
	// Walk the golden simulator to the warm-up boundary — or restore that
	// boundary from a golden image. Injection points all lie at or past
	// cfg.Warmup, so pre-walking here replays exactly the Steps the points
	// loop below would have taken; journal records written before the first
	// point's snapshot mark are never rewound, only discarded, so both paths
	// are byte-identical (TestVMGoldenImageEquivalence). The walk consumes
	// no randomness, so the RNG stream is untouched either way.
	goldenLoaded, err := loadVMGoldenIfPresent(&cfg, sim, m)
	if err != nil {
		return nil, err
	}
	if !goldenLoaded {
		for sim.InstRet < cfg.Warmup && !sim.Stopped() {
			sim.Step()
		}
		if err := saveVMGolden(&cfg, sim, m); err != nil {
			return nil, err
		}
	}
	rng := rand.New(rand.NewSource(cfg.Seed ^ 0x5EED))

	// Injection points: sorted instruction indices. Points must land on
	// register-writing instructions; the walker skips forward to the
	// next one.
	points := make([]uint64, cfg.Points)
	for i := range points {
		points[i] = cfg.Warmup + uint64(rng.Int63n(int64(cfg.Spread)))
	}
	sort.Slice(points, func(i, j int) bool { return points[i] < points[j] })

	trialsPerPoint := cfg.Trials / len(points)
	extra := cfg.Trials - trialsPerPoint*len(points)

	// Pre-draw every trial's bit position serially, in exactly the order
	// the serial engine consumes the stream, so the parallel campaign is
	// bit-identical to the serial one.
	maxBit := 64
	if cfg.Low32 {
		maxBit = 32
	}
	bits := make([]uint8, cfg.Trials)
	for i := range bits {
		bits[i] = uint8(rng.Intn(maxBit))
	}

	result := &VMResult{Config: cfg}
	// This campaign's fault model corrupts one register-file value, so a
	// policy covering the PRF absorbs every trial at the injection site.
	// Evaluated once, against the policy itself — campaign code never reads
	// a compiled protection map directly (see consultProtection).
	prfProtected := cfg.Policy.ProtectionOf("prf.val") != harden.Unprotected
	wall := cfg.Obs.Timer("campaign_vm_wall").Start()
	eng := newEngine(cfg.Workers, cfg.Obs, "campaign_vm")
	parallel := cfg.Workers > 1
	trials := make([]VMTrial, cfg.Trials)

	// Durable campaigns: recover journalled slots into their result slots
	// up front; every bit pick is pre-drawn above, so skipping them cannot
	// perturb the RNG stream.
	var jr *campaignJournal
	doneSlots := make([]bool, cfg.Trials)
	if cfg.ResumeFrom != "" {
		var loaded [][]byte
		jr, loaded, err = openCampaignJournal(cfg.ResumeFrom, cfg.manifest(), cfg.CompressJournal)
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
			doneSlots[slot] = true
		}
	}
	owns := func(slot int) bool { return ownsSlot(slot, cfg.ShardIndex, cfg.ShardCount) }
	totalTrials := 0
	for slot := 0; slot < cfg.Trials; slot++ {
		if owns(slot) {
			totalTrials++
		}
	}
	// The lead simulator records the golden run from the warm-up boundary
	// onward on its own copy of memory; workers keep reading windows of the
	// trace while the dispatcher extends it, hence shared under parallel.
	lead := arch.New(m.Clone(), prog.Entry)
	lead.DCache = dcache
	lead.Restore(sim.Snapshot())
	golden := newVMGoldenTrace(lead, cfg.Window, parallel)
	// memPool recycles per-trial memory images for the parallel engine; the
	// counters (nil without a sink) expose its recycling rate.
	var memPool sync.Pool
	poolHits := cfg.Obs.Counter("campaign_vm_mem_pool_hits_total")
	poolMisses := cfg.Obs.Counter("campaign_vm_mem_pool_misses_total")

	filled := 0
	truncated := false
	stopped := false
	for pi, point := range points {
		if interrupted(cfg.Interrupt) {
			stopped = true
			break
		}
		// Advance the trailing simulator to the injection point.
		for sim.InstRet < point && !sim.Stopped() {
			sim.Step()
		}
		if sim.Excepted {
			eng.wait()
			jr.finish(cfg.Obs, "campaign_vm")
			return nil, fmt.Errorf("inject: golden run excepted at %d: %v", sim.InstRet, sim.LastException)
		}
		if sim.Halted {
			break // program over before this point: truncate
		}
		// Find the next register-writing instruction and execute it;
		// its event carries the result to corrupt. The program may halt
		// first (short workloads), which also truncates the campaign.
		var injEv arch.Event
		for {
			injEv = sim.Step()
			if injEv.Exception != arch.ExcNone {
				eng.wait()
				jr.finish(cfg.Obs, "campaign_vm")
				return nil, fmt.Errorf("inject: golden exception at %#x", injEv.PC)
			}
			if injEv.Halted {
				truncated = true
				break
			}
			if injEv.DestValid && injEv.Dest != isa.RegZero {
				break
			}
		}
		if truncated {
			break
		}

		n := trialsPerPoint
		if pi < extra {
			n++
		}

		// A point whose every slot was recovered from the journal needs
		// no golden window and no trials. Executing the injection
		// instruction above already left memory, simulator and write
		// journal exactly where the full path's final rewind leaves them.
		// Ownership alone is NOT enough to skip: taking the window is what
		// detects workload truncation, and that detection must stay
		// identical across shards (see journal.go).
		pointDone := true
		for t := 0; t < n; t++ {
			if !doneSlots[filled+t] {
				pointDone = false
				break
			}
		}
		if pointDone {
			for t := 0; t < n; t++ {
				if owns(filled + t) {
					eng.done(cfg.Progress, totalTrials)
				}
			}
			filled += n
			continue
		}

		// The golden continuation: the window of the campaign trace that
		// starts right after the injection instruction.
		window, goldenEnd, err := golden.window(sim.InstRet)
		if err != nil {
			eng.wait()
			jr.finish(cfg.Obs, "campaign_vm")
			return nil, err
		}
		if window == nil {
			break // window incomplete: truncate at this point
		}

		preRegs := sim.Snapshot()
		preMark := m.Snapshot()
		injDest, injPC := injEv.Dest, injEv.PC
		for t := 0; t < n; t++ {
			slot := filled + t
			if !owns(slot) {
				continue // another shard's slot
			}
			if doneSlots[slot] {
				eng.done(cfg.Progress, totalTrials)
				continue // recovered from the journal
			}
			if interrupted(cfg.Interrupt) {
				stopped = true
				break
			}
			bit := bits[slot]
			if prfProtected {
				trials[slot] = protectedVMTrial(injPC, bit)
				jr.record(slot, &trials[slot])
				eng.done(cfg.Progress, totalTrials)
				continue
			}
			// The serial engine rewinds the trailing simulator in place;
			// the parallel engine forks an independent memory image and
			// simulator per trial on the dispatcher (the pool resets a
			// retired image via Memory.CopyFrom) while workers run behind.
			tsim := sim
			var fm *mem.Memory
			if parallel {
				if v := memPool.Get(); v != nil {
					poolHits.Inc()
					fm = v.(*mem.Memory)
					fm.CopyFrom(m)
				} else {
					poolMisses.Inc()
					fm = m.Clone()
				}
				tsim = arch.New(fm, prog.Entry)
				tsim.DCache = dcache
			} else {
				m.RestoreTo(preMark)
			}
			tsim.Restore(preRegs)
			tsim.SetReg(injDest, tsim.Reg(injDest)^(1<<bit))
			eng.submit(func() {
				trial := runVMTrial(tsim, injDest, window, goldenEnd, cfg.NoEarlyExit)
				trial.Point = injPC
				trial.Bit = bit
				trials[slot] = trial
				jr.record(slot, &trials[slot])
				if fm != nil {
					memPool.Put(fm)
				}
				eng.done(cfg.Progress, totalTrials)
			})
		}
		if stopped {
			break
		}

		// Rewind to the injection point and make the golden path up to it
		// permanent so the walk to the next point starts clean.
		m.RestoreTo(preMark)
		sim.Restore(preRegs)
		m.DiscardTo(0)
		filled += n
	}
	eng.wait()
	if stopped {
		// Drained workers have journalled their trials; flush the tail so
		// a resumed run recovers every completed slot.
		cfg.Obs.Counter("campaign_vm_interrupted_total").Inc()
		if err := jr.finish(cfg.Obs, "campaign_vm"); err != nil {
			return nil, err
		}
		return nil, ErrInterrupted
	}
	result.Trials = trials[:filled]
	// filled < Trials covers both truncation paths (halt before a point and
	// halt inside a window).
	recordVMTelemetry(cfg.Obs, result, filled < cfg.Trials, wall.Stop())
	if err := jr.finish(cfg.Obs, "campaign_vm"); err != nil {
		return nil, err
	}
	return result, nil
}

// goldenRec is one golden instruction as a trial compares against it: the
// fields runVMTrial reads from the golden run, 32 bytes against the 96 of a
// full arch.Event.
type goldenRec struct {
	PC, DestVal, MemAddr, StoreVal uint64
}

// vmGoldenTrace is the campaign's single record of the golden run. Its lead
// simulator walks forward once, never rewinding, and appends one record per
// retired instruction; a point's observation window is the slice starting
// at the instruction after its injection. Points are sorted, so windows
// start ever later and the lead only moves forward: the campaign simulates
// each golden instruction twice (trailing and lead) instead of once per
// overlapping window.
//
// The trace holds at most 2×window records. Records before the current
// window are dropped when it fills: compacted in place serially, or, when
// shared with workers still reading earlier windows, moved into a fresh
// buffer so those windows stay intact. A window starting past every
// recorded instruction skips the lead ahead without recording.
type vmGoldenTrace struct {
	lead   *arch.Sim
	buf    []goldenRec
	lo, hi int    // buf[lo:hi] records instructions base, base+1, ...
	base   uint64 // instruction index of buf[lo]
	n      uint64 // window length
	shared bool
}

func newVMGoldenTrace(lead *arch.Sim, window uint64, shared bool) *vmGoldenTrace {
	return &vmGoldenTrace{
		lead:   lead,
		buf:    make([]goldenRec, 2*window),
		base:   lead.InstRet,
		n:      window,
		shared: shared,
	}
}

// window returns the golden records of instructions start through
// start+n-1 and the golden state after them. A nil window means the golden
// program halts first (the campaign truncates); a golden exception is an
// error. Successive calls must not decrease start.
func (g *vmGoldenTrace) window(start uint64) ([]goldenRec, arch.Snapshot, error) {
	end := start + g.n
	if g.base+uint64(g.hi-g.lo) < start {
		// Nothing recorded is live: drop it and skip the lead ahead.
		g.lo = g.hi
		for g.lead.InstRet < start && !g.lead.Stopped() {
			g.lead.Step()
		}
		g.base = g.lead.InstRet
	}
	for g.base+uint64(g.hi-g.lo) < end && !g.lead.Stopped() {
		if g.hi == len(g.buf) {
			g.dropBefore(start)
		}
		ev := g.lead.Step()
		if ev.Exception != arch.ExcNone || ev.Halted {
			break
		}
		g.buf[g.hi] = goldenRec{PC: ev.PC, DestVal: ev.DestVal, MemAddr: ev.MemAddr, StoreVal: ev.StoreVal}
		g.hi++
	}
	if g.base+uint64(g.hi-g.lo) < end {
		if g.lead.Excepted {
			return nil, arch.Snapshot{}, fmt.Errorf("inject: golden exception at %#x", g.lead.PC)
		}
		return nil, arch.Snapshot{}, nil
	}
	from := g.lo + int(start-g.base)
	return g.buf[from : from+int(g.n) : from+int(g.n)], g.lead.Snapshot(), nil
}

// dropBefore discards the records of instructions before start to make
// room in a full trace.
func (g *vmGoldenTrace) dropBefore(start uint64) {
	live := g.buf[g.lo+int(start-g.base) : g.hi]
	dst := g.buf
	if g.shared {
		dst = make([]goldenRec, len(g.buf))
	}
	g.lo, g.hi = 0, copy(dst, live)
	g.buf, g.base = dst, start
}

// protectedVMTrial is the outcome of a trial absorbed by protection at the
// injection site: no fault enters the machine, so the trial is masked by
// construction, and Protected records why.
func protectedVMTrial(point uint64, bit uint8) VMTrial {
	return VMTrial{
		Point:      point,
		Bit:        bit,
		Protected:  true,
		Masked:     true,
		ExcLat:     Never,
		CFVLat:     Never,
		MemAddrLat: Never,
		MemDataLat: Never,
	}
}

// runVMTrial executes the faulty continuation against the recorded golden
// window and classifies its outcome. Once the faulty machine halts behind a
// control-flow divergence, every remaining Step is a stopped no-op that can
// no longer change the classification, so the replay stops early (unless
// noEarlyExit asks for the full-window proof mode).
func runVMTrial(sim *arch.Sim, injReg isa.Reg, golden []goldenRec, goldenEnd arch.Snapshot, noEarlyExit bool) VMTrial {
	trial := VMTrial{
		ExcLat:     Never,
		CFVLat:     Never,
		MemAddrLat: Never,
		MemDataLat: Never,
	}

	// Divergence ledgers: registers and memory addresses whose faulty
	// values currently differ from golden.
	var divergedRegs [32]bool
	divergedCount := 0
	markReg := func(r isa.Reg, diff bool) {
		if r == isa.RegZero {
			return
		}
		i := int(r) % 32
		if diff && !divergedRegs[i] {
			divergedRegs[i] = true
			divergedCount++
		} else if !diff && divergedRegs[i] {
			divergedRegs[i] = false
			divergedCount--
		}
	}
	divergedMem := make(map[uint64]bool)

	// The injected register starts diverged.
	markReg(injReg, true)
	cfv := false
	for i := range golden {
		lat := uint64(i) + 1
		g := golden[i]
		ev := sim.Step()

		if ev.Exception != arch.ExcNone {
			trial.ExcLat = lat
			trial.ExcKind = ev.Exception
			return trial // execution cannot continue (Section 3.2.1)
		}
		if cfv {
			// After control-flow divergence only exceptions are
			// meaningful; keep running the faulty path. A halted faulty
			// machine, though, steps as a stopped no-op forever — the
			// same event every time, never an exception — so nothing in
			// the remaining window can change the classification.
			if ev.Halted && !noEarlyExit {
				break
			}
			continue
		}
		if ev.PC != g.PC {
			trial.CFVLat = lat
			cfv = true
			continue
		}
		if ev.DestValid {
			markReg(ev.Dest, ev.DestVal != g.DestVal)
		}
		if ev.IsLoad || ev.IsStore {
			if ev.MemAddr != g.MemAddr {
				if trial.MemAddrLat == Never {
					trial.MemAddrLat = lat
				}
				if ev.IsStore {
					divergedMem[ev.MemAddr] = true
					divergedMem[g.MemAddr] = true
				}
			} else if ev.IsStore {
				if ev.StoreVal != g.StoreVal {
					if trial.MemDataLat == Never {
						trial.MemDataLat = lat
					}
					divergedMem[ev.MemAddr] = true
				} else {
					delete(divergedMem, ev.MemAddr)
				}
			}
		}
		if divergedCount == 0 && len(divergedMem) == 0 {
			// All architectural effects have washed out; determinism
			// guarantees the remainder of the run matches the golden
			// execution exactly.
			trial.Masked = true
			return trial
		}
	}
	if cfv {
		return trial
	}

	// Window complete without exception or control divergence: masked iff
	// all architectural effects washed out.
	if divergedCount == 0 && len(divergedMem) == 0 {
		trial.Masked = true
		// Cross-check registers against the golden end state; the
		// ledger should never disagree, but memory aliasing through
		// differing addresses is approximated, so verify cheaply.
		for r := 0; r < 31; r++ {
			if sim.Regs[r] != goldenEnd.Regs[r] {
				trial.Masked = false
				break
			}
		}
	}
	return trial
}
