package inject

import (
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

	// Policy, if non-nil, applies a protection policy (internal/protect)
	// at this campaign's architectural fault model: the flipped result bit
	// lives in the physical register file, so a policy covering "prf.val"
	// absorbs every trial (ECC corrects the flip before any consumer reads
	// it; parity detects it and a flush refetches). Bit picks stay
	// pre-drawn, so trial plans are identical under every policy; the
	// policy fingerprint enters the durable-campaign plan string.
	Policy *protect.Policy

	// RunOptions hold the run-time settings: workers, progress,
	// telemetry, interruption and durability.
	RunOptions
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

// RunVM executes the campaign (see runCampaign). Two golden simulators walk
// the program once each. The trailing simulator stops at every injection
// point, executes the injection instruction and hands each trial its
// post-injection state — rewound in place serially, forked per trial when
// cfg.Workers fans trials out. The lead simulator runs ahead on its own copy
// of memory and records the golden run into one campaign-wide trace (see
// vmGoldenTrace), so each point's observation window is a slice of that
// trace rather than a re-simulation. Each trial replays the continuation
// with one result bit flipped and compares it against its window
// instruction by instruction, stopping once a halted faulty machine can no
// longer change its outcome. Results are bit-identical for every worker
// count: every bit pick is pre-drawn on the dispatching goroutine and every
// trial fills a pre-assigned result slot.
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
	prog, err := workload.Generate(cfg.Bench, workload.Config{Seed: cfg.Seed, Scale: cfg.Scale})
	if err != nil {
		return nil, err
	}
	return runVM(cfg, prog)
}

// runVM runs the campaign of a defaulted cfg over prog.
func runVM(cfg VMConfig, prog *workload.Program) (*VMResult, error) {
	trials, err := runCampaign(&cfg.RunOptions, "campaign_vm", func() (campaign[VMTrial], error) {
		return newVMCampaign(&cfg, prog)
	})
	if err != nil {
		return nil, err
	}
	return &VMResult{Config: cfg, Trials: trials}, nil
}

// vmCampaign is the software-level engine's side of runCampaign.
type vmCampaign struct {
	cfg      *VMConfig
	entry    uint64
	m        *mem.Memory // the trailing simulator's memory, journalled
	sim      *arch.Sim   // the trailing simulator
	dcache   *isa.DecodeCache
	at       []uint64 // sorted injection instruction indices
	bits     []uint8  // one per slot
	perPoint int      // trials per point; the first extra points hold one more
	extra    int
	// prfProtected: this campaign's fault model corrupts one register-file
	// value, so a policy covering the PRF absorbs every trial at the
	// injection site.
	prfProtected bool
	parallel     bool
	trace        *vmGoldenTrace
	// memPool recycles per-trial memory images for the parallel engine;
	// the counters (nil without a sink) expose its recycling rate. It is
	// held by pointer: a used sync.Pool stays registered with the runtime
	// until two GCs pass, and a pool embedded here would keep the whole
	// campaign — memories, simulators, golden trace — alive with it.
	memPool              *sync.Pool
	poolHits, poolMisses *obs.Counter

	// The current point: the injection instruction, the state right
	// after it, and the golden window that follows.
	injDest   isa.Reg
	injPC     uint64
	preRegs   arch.Snapshot
	preMark   mem.Mark
	window    []goldenRec
	goldenEnd arch.Snapshot
}

// newVMCampaign walks the trailing simulator to the warm-up boundary (or
// restores it from a golden image), draws every injection point and bit
// pick, and starts the lead simulator there.
func newVMCampaign(cfg *VMConfig, prog *workload.Program) (*vmCampaign, error) {
	m, err := prog.NewMemory()
	if err != nil {
		return nil, err
	}
	m.EnableJournal()
	v := &vmCampaign{
		cfg:   cfg,
		entry: prog.Entry,
		m:     m,
		sim:   arch.New(m, prog.Entry),
		// Decode the code image once; the golden simulators and every
		// per-trial fork share the cache read-only.
		dcache:     isa.NewDecodeCache(prog.CodeBase, prog.Code),
		parallel:   cfg.Workers > 1,
		memPool:    new(sync.Pool),
		poolHits:   cfg.Obs.Counter("campaign_vm_mem_pool_hits_total"),
		poolMisses: cfg.Obs.Counter("campaign_vm_mem_pool_misses_total"),
		// Evaluated once, against the policy itself — campaign code never
		// reads a compiled protection map directly (see consultProtection).
		prfProtected: cfg.Policy.ProtectionOf("prf.val") != harden.Unprotected,
	}
	v.sim.DCache = v.dcache
	// The walk consumes no randomness, so the RNG stream is untouched
	// whether it runs or an image replaces it.
	if err := warmUp(&cfg.RunOptions, "campaign_vm", v); err != nil {
		return nil, err
	}
	rng := rand.New(rand.NewSource(cfg.Seed ^ 0x5EED))

	// Injection points: sorted instruction indices. Points must land on
	// register-writing instructions; advance skips forward to the next one.
	v.at = make([]uint64, cfg.Points)
	for i := range v.at {
		v.at[i] = cfg.Warmup + uint64(rng.Int63n(int64(cfg.Spread)))
	}
	sort.Slice(v.at, func(i, j int) bool { return v.at[i] < v.at[j] })
	v.perPoint = cfg.Trials / len(v.at)
	v.extra = cfg.Trials - v.perPoint*len(v.at)

	// Pre-draw every trial's bit position serially, in exactly the order
	// the serial engine consumes the stream, so the parallel campaign is
	// bit-identical to the serial one.
	maxBit := 64
	if cfg.Low32 {
		maxBit = 32
	}
	v.bits = make([]uint8, cfg.Trials)
	for i := range v.bits {
		v.bits[i] = uint8(rng.Intn(maxBit))
	}

	// The lead simulator records the golden run from the warm-up boundary
	// onward on its own copy of memory; workers keep reading windows of the
	// trace while the dispatcher extends it, hence shared under parallel.
	lead := arch.New(m.Clone(), prog.Entry)
	lead.DCache = v.dcache
	lead.Restore(v.sim.Snapshot())
	v.trace = newVMGoldenTrace(lead, cfg.Window, v.parallel)
	return v, nil
}

func (v *vmCampaign) manifest() (campaignio.Manifest, error) { return v.cfg.manifest(), nil }
func (v *vmCampaign) points() int                            { return len(v.at) }

func (v *vmCampaign) slots(pi int) int {
	if pi < v.extra {
		return v.perPoint + 1
	}
	return v.perPoint
}

// advance walks the trailing simulator to point pi, then finds the next
// register-writing instruction and executes it; its result is what the
// point's trials corrupt. The program may halt first (short workloads),
// which truncates the campaign.
func (v *vmCampaign) advance(pi int) (bool, error) {
	sim := v.sim
	for sim.InstRet < v.at[pi] && !sim.Stopped() {
		sim.Step()
	}
	if sim.Excepted {
		return false, fmt.Errorf("inject: golden run excepted at %d: %v", sim.InstRet, sim.LastException)
	}
	if sim.Halted {
		return false, nil
	}
	for {
		ev := sim.Step()
		switch {
		case ev.Exception != arch.ExcNone:
			return false, fmt.Errorf("inject: golden exception at %#x", ev.PC)
		case ev.Halted:
			return false, nil
		case ev.DestValid && ev.Dest != isa.RegZero:
			v.injDest, v.injPC = ev.Dest, ev.PC
			return true, nil
		}
	}
}

// golden takes the point's golden continuation: the window of the campaign
// trace that starts right after the injection instruction.
func (v *vmCampaign) golden() (bool, error) {
	var err error
	v.window, v.goldenEnd, err = v.trace.window(v.sim.InstRet)
	v.preRegs, v.preMark = v.sim.Snapshot(), v.m.Snapshot()
	return v.window != nil, err
}

// trial flips slot's bit in the post-injection state. The serial engine
// rewinds the trailing simulator in place; the parallel engine forks an
// independent memory image and simulator per trial (the pool resets a
// retired image via Memory.CopyFrom) while workers run behind.
func (v *vmCampaign) trial(slot int) (VMTrial, func() VMTrial) {
	bit, pc, dest := v.bits[slot], v.injPC, v.injDest
	if v.prfProtected {
		// No fault enters the machine, so the trial is masked by
		// construction, and Protected records why.
		return VMTrial{
			Point: pc, Bit: bit, Protected: true, Masked: true,
			ExcLat: Never, CFVLat: Never, MemAddrLat: Never, MemDataLat: Never,
		}, nil
	}
	tsim := v.sim
	var fm *mem.Memory
	if v.parallel {
		if p := v.memPool.Get(); p != nil {
			v.poolHits.Inc()
			fm = p.(*mem.Memory)
			fm.CopyFrom(v.m)
		} else {
			v.poolMisses.Inc()
			fm = v.m.Clone()
		}
		tsim = arch.New(fm, v.entry)
		tsim.DCache = v.dcache
	} else {
		v.m.RestoreTo(v.preMark)
	}
	tsim.Restore(v.preRegs)
	tsim.SetReg(dest, tsim.Reg(dest)^(1<<bit))
	window, end := v.window, v.goldenEnd
	return VMTrial{}, func() VMTrial {
		trial := runVMTrial(tsim, dest, window, end)
		trial.Point, trial.Bit = pc, bit
		if fm != nil {
			v.memPool.Put(fm)
		}
		return trial
	}
}

// settle rewinds to the injection point and makes the golden path up to it
// permanent, so the walk to the next point starts clean. A point whose
// every slot was recovered from the journal skips this: executing its
// injection instruction already left memory, simulator and write journal
// where this rewind would.
func (v *vmCampaign) settle() {
	v.m.RestoreTo(v.preMark)
	v.sim.Restore(v.preRegs)
	v.m.DiscardTo(0)
}

func (v *vmCampaign) category(t VMTrial) string { return t.CategoryAt(v.cfg.Window).String() }

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

// runVMTrial executes the faulty continuation against the recorded golden
// window and classifies its outcome. Once the faulty machine halts behind a
// control-flow divergence, every remaining Step is a stopped no-op that can
// no longer change the classification, so the replay stops early.
func runVMTrial(sim *arch.Sim, injReg isa.Reg, golden []goldenRec, goldenEnd arch.Snapshot) VMTrial {
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
			if ev.Halted {
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
