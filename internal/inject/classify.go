// Package inject implements the paper's statistical fault-injection
// campaigns: the software-level (virtual machine) campaign behind Figure 2
// and the microarchitectural campaign behind Figures 4-6 and Section 5.1.2.
//
// Both campaigns follow Section 4.2's methodology: a single bit flip per
// trial, injection times drawn from a set of pre-selected points, the
// corrupted bit drawn uniformly over all eligible state, and trial outcomes
// classified against golden executions. Each trial records the latency from
// injection to every symptom class it exhibits, so a single campaign
// post-processes into every latency bin of Figure 2 and every checkpoint
// interval of Figures 4-6.
package inject

import (
	"repro/internal/arch"
	"repro/internal/stats"
)

// Never marks a symptom that did not occur within the observation window.
const Never = ^uint64(0)

// ---------------------------------------------------------------------------
// Software-level (virtual machine) campaign categories: Table 1.

// VMCategory classifies a software-level trial at a given detection latency.
type VMCategory uint8

// Table 1 categories, in stacking order (bottom of the bar first).
const (
	// VMMasked: the injected fault was masked (did not cause failure).
	VMMasked VMCategory = iota + 1
	// VMException: an ISA-defined exception was raised.
	VMException
	// VMCFV: a control-flow violation — the wrong instruction executed.
	VMCFV
	// VMMemAddr: the address of a memory operation was affected.
	VMMemAddr
	// VMMemData: a store wrote incorrect data to memory.
	VMMemData
	// VMRegister: only registers were corrupted (so far).
	VMRegister
)

// String names the category as in Table 1.
func (c VMCategory) String() string {
	switch c {
	case VMMasked:
		return "masked"
	case VMException:
		return "exception"
	case VMCFV:
		return "cfv"
	case VMMemAddr:
		return "mem-addr"
	case VMMemData:
		return "mem-data"
	case VMRegister:
		return "register"
	}
	return "unknown"
}

// VMCategories lists all categories in Figure 2's stacking order.
func VMCategories() []string {
	return []string{"masked", "exception", "cfv", "mem-addr", "mem-data", "register"}
}

// VMTrial is the outcome record of one software-level injection.
type VMTrial struct {
	Point uint64 // dynamic instruction index of the corrupted result
	Bit   uint8  // flipped bit position within the 64-bit result

	// Protected is set when a protection policy covered the register file:
	// the flip was corrected (or flushed) at the injection site, so the
	// trial is masked by construction.
	Protected bool

	// Masked is true when the fault never caused failure: architectural
	// state reconverged with the golden execution.
	Masked bool

	// First-occurrence latencies (retired instructions after injection);
	// Never when the symptom did not occur within the window.
	ExcLat     uint64
	CFVLat     uint64
	MemAddrLat uint64
	MemDataLat uint64

	// ExcKind records the exception raised, if any.
	ExcKind arch.ExceptionKind
}

// CategoryAt classifies the trial assuming symptoms can be observed up to
// `latency` instructions after the fault. Precedence follows the paper:
// lower (earlier-listed) categories win, so a trial that is both an
// exception and a cfv counts as an exception.
func (t VMTrial) CategoryAt(latency uint64) VMCategory {
	if t.Masked {
		return VMMasked
	}
	switch {
	case t.ExcLat <= latency:
		return VMException
	case t.CFVLat <= latency:
		return VMCFV
	case t.MemAddrLat <= latency:
		return VMMemAddr
	case t.MemDataLat <= latency:
		return VMMemData
	default:
		return VMRegister
	}
}

// VMDistribution bins a trial set at one detection latency.
func VMDistribution(trials []VMTrial, latency uint64) stats.Distribution {
	d := stats.NewDistribution(VMCategories())
	if len(trials) == 0 {
		return d
	}
	for _, t := range trials {
		d.Fraction[t.CategoryAt(latency).String()] += 1
	}
	for k := range d.Fraction {
		d.Fraction[k] /= float64(len(trials))
	}
	return d
}

// ---------------------------------------------------------------------------
// Microarchitectural campaign categories: Table 2.

// UArchCategory classifies a pipeline-level trial at a given checkpoint
// interval under a given detector.
type UArchCategory uint8

// Table 2 categories.
const (
	// UMasked: the fault was masked or overwritten (microarchitectural
	// state reconverged with the golden run).
	UMasked UArchCategory = iota + 1
	// UOther: the fault is still sitting, unread, in (very likely dead)
	// state — failure unlikely.
	UOther
	// ULatent: no failure detected yet, but the fault is still latent.
	ULatent
	// USDC: register file or memory state corruption that no symptom
	// covers within the interval.
	USDC
	// UCFV: a control-flow violation covered by the detector.
	UCFV
	// UException: an ISA-defined exception within the interval.
	UException
	// UDeadlock: watchdog-detected deadlock.
	UDeadlock
)

// String names the category as in Table 2.
func (c UArchCategory) String() string {
	switch c {
	case UMasked:
		return "masked"
	case UOther:
		return "other"
	case ULatent:
		return "latent"
	case USDC:
		return "sdc"
	case UCFV:
		return "cfv"
	case UException:
		return "exception"
	case UDeadlock:
		return "deadlock"
	}
	return "unknown"
}

// UArchCategories lists categories in Figure 4's stacking order.
func UArchCategories() []string {
	return []string{"masked", "deadlock", "exception", "cfv", "sdc", "latent", "other"}
}

// Detector selects which control-flow-violation evidence counts as a
// rollback trigger.
type Detector uint8

// Detectors.
const (
	// DetectorPerfect covers every committed control-flow divergence —
	// the "perfect identification of incorrect control flow" of Section
	// 5.1.1 (Figure 4).
	DetectorPerfect Detector = iota + 1
	// DetectorJRS covers only high-confidence conditional-branch
	// mispredictions flagged by the JRS estimator (Figure 5).
	DetectorJRS
	// DetectorOracleConfidence covers every conditional-branch
	// misprediction — the perfect-confidence-predictor ablation of
	// Section 5.2.1.
	DetectorOracleConfidence
	// DetectorNone disables control-flow symptoms (exception+deadlock
	// only).
	DetectorNone
	// DetectorDMR models full execution replication (package dmr): ANY
	// committed architectural divergence — wrong value, wrong store,
	// wrong path, exception — is caught at retirement. The coverage
	// bound ReStore trades away for its near-zero hardware cost.
	DetectorDMR
)

// UArchTrial is the outcome record of one microarchitectural injection.
type UArchTrial struct {
	PointCycle uint64 // warm-up cycle count at injection
	Elem       string // state element name
	Bit        uint8
	IsLatch    bool

	// Protected is set when the flip landed in a parity- or ECC-covered
	// element of a hardened pipeline: it is corrected or flushed away and
	// can never cause failure.
	Protected bool

	// Masked: microarchitectural state reconverged with the golden run
	// (possibly with a small timing lag) with no architectural damage.
	Masked bool
	// ArchCorrupt: committed register or memory state still differed
	// from the golden execution at the end of the window.
	ArchCorrupt bool
	// EverDiverged: some committed event mismatched the golden run at
	// any point (even if later overwritten).
	EverDiverged bool
	// FaultStuck: the flipped word still held its post-flip value at the
	// end of the window (the fault sits unread in dead state).
	FaultStuck bool

	// First-occurrence latencies in retired instructions after injection.
	DeadlockLat uint64
	ExcLat      uint64
	CFVLat      uint64 // first committed control-flow divergence
	HCMispLat   uint64 // first high-confidence cond mispredict resolution
	AnyMispLat  uint64 // first cond mispredict resolution
	DivergeLat  uint64 // first committed divergence of any kind (DMR's view)

	ExcKind arch.ExceptionKind
}

// cfvLatFor returns the control-flow symptom latency under the detector.
func (t UArchTrial) cfvLatFor(det Detector) uint64 {
	switch det {
	case DetectorPerfect:
		return t.CFVLat
	case DetectorJRS:
		return t.HCMispLat
	case DetectorOracleConfidence:
		return t.AnyMispLat
	case DetectorDMR:
		return t.DivergeLat
	default:
		return Never
	}
}

// Failing reports whether the trial is a failure per Section 4.2's
// definition: deadlock, exception, control-flow violation, persistent
// architectural corruption, or a still-latent fault.
func (t UArchTrial) Failing() bool {
	if t.Protected || t.Masked {
		return false
	}
	if t.DeadlockLat != Never || t.ExcLat != Never || t.CFVLat != Never || t.ArchCorrupt {
		return true
	}
	// No symptom and no corruption: a stuck fault in dead state is
	// "other" (not failing); a fault that moved is latent (failing).
	return !t.FaultStuck
}

// CategoryAt classifies the trial for a checkpoint interval under a
// detector, with the paper's precedence deadlock > exception > cfv > sdc.
func (t UArchTrial) CategoryAt(interval uint64, det Detector) UArchCategory {
	if t.Protected {
		// Covered by parity/ECC; the paper's Figure 6 shows these as
		// the enlarged "other" band.
		return UOther
	}
	if !t.Failing() {
		if t.Masked {
			return UMasked
		}
		return UOther
	}
	switch {
	case t.DeadlockLat <= interval:
		return UDeadlock
	case t.ExcLat <= interval:
		return UException
	case t.cfvLatFor(det) <= interval:
		return UCFV
	case t.ArchCorrupt || t.EverDiverged ||
		t.DeadlockLat != Never || t.ExcLat != Never || t.CFVLat != Never:
		return USDC
	default:
		return ULatent
	}
}

// Covered reports whether ReStore with the given interval and detector
// detects and recovers this trial's fault.
func (t UArchTrial) Covered(interval uint64, det Detector) bool {
	switch t.CategoryAt(interval, det) {
	case UDeadlock, UException, UCFV:
		return true
	}
	return false
}

// UArchDistribution bins a trial set at one checkpoint interval.
func UArchDistribution(trials []UArchTrial, interval uint64, det Detector) stats.Distribution {
	d := stats.NewDistribution(UArchCategories())
	if len(trials) == 0 {
		return d
	}
	for _, t := range trials {
		d.Fraction[t.CategoryAt(interval, det).String()] += 1
	}
	for k := range d.Fraction {
		d.Fraction[k] /= float64(len(trials))
	}
	return d
}

// FailureRate returns the fraction of trials that fail despite ReStore
// coverage at the given interval and detector — the paper's headline
// metric (7% baseline, ~3.5% ReStore, ~1% lhf+ReStore).
func FailureRate(trials []UArchTrial, interval uint64, det Detector) float64 {
	if len(trials) == 0 {
		return 0
	}
	failures := 0
	for _, t := range trials {
		if t.Failing() && !t.Covered(interval, det) {
			failures++
		}
	}
	return float64(failures) / float64(len(trials))
}

// RawFailureRate returns the fraction of failing trials with no detection
// at all (the baseline processor).
func RawFailureRate(trials []UArchTrial) float64 {
	if len(trials) == 0 {
		return 0
	}
	failures := 0
	for _, t := range trials {
		if t.Failing() {
			failures++
		}
	}
	return float64(failures) / float64(len(trials))
}
