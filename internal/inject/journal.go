// Durable campaigns: resuming, sharding and merging.
//
// Both campaign engines are pure functions of their configuration — every
// random decision is pre-drawn from the seed and every trial fills a
// pre-assigned (point, trial) slot. That purity is what makes durability
// cheap: a campaign directory (internal/campaignio) is nothing more than a
// cache of slots already computed, keyed by a fingerprint of every
// plan-relevant configuration field. A run pointed at the directory loads the
// cached slots, re-runs only the missing ones, and produces a result
// byte-identical to a one-shot serial run; k processes configured as shards
// k/n each own the slots s with s%n == k-1 and their merged journals
// reconstruct the same result.
//
// Truncation discipline: a workload that halts early truncates a campaign at
// a point boundary, deterministically. Golden-trace recording at a point is
// skipped only when EVERY slot of that point is journal-loaded — a shard that
// merely owns no remaining work there still records (and so still detects
// truncation at) the point, which keeps the set of journalled points
// identical across shards and makes the merge's gap-free-prefix check sound.
package inject

import (
	"bytes"
	"encoding/json"
	"errors"
	"fmt"
	"hash/fnv"
	"sync"

	"repro/internal/campaignio"
	"repro/internal/obs"
	"repro/internal/pipeline"
)

// ErrInterrupted is returned by RunUArch/RunVM when the configured Interrupt
// channel fires. In-flight trials are drained and journalled first, so a
// resumed run loses no completed work.
var ErrInterrupted = errors.New("inject: campaign interrupted")

// journalBatch is the number of trial records per fsync. Small enough that an
// interruption loses at most a batch of cheap-to-recompute trials, large
// enough that the fsync cost disappears under the trial cost.
const journalBatch = 64

// fingerprint hashes the canonical form of a campaign's plan-relevant fields.
// Workers, Progress, Obs, Interrupt, the durability fields and the inert
// engine toggles (NoDecodeCache, NoEarlyExit, LegacyHash) are excluded: they
// never influence results, and a campaign journalled serially must resume
// under any worker count or engine setting.
func fingerprint(canonical string) string {
	h := fnv.New64a()
	h.Write([]byte(canonical))
	return fmt.Sprintf("%016x", h.Sum64())
}

func (c UArchConfig) planString() string {
	pcfg := pipeline.DefaultConfig()
	if c.Pipeline != nil {
		pcfg = *c.Pipeline
	}
	s := fmt.Sprintf("uarch|bench=%s|seed=%d|scale=%g|points=%d|tpp=%d|warmup=%d|spread=%d|window=%d|latches=%t|burst=%d|harden=%d|pipe=%+v",
		c.Bench, c.Seed, c.Scale, c.Points, c.TrialsPerPoint,
		c.WarmupCycles, c.SpreadCycles, c.WindowCycles,
		c.LatchesOnly, c.BurstBits, c.Harden, pcfg)
	// The policy suffix appears only when a policy is set, so campaign
	// directories journalled before policies existed stay resumable.
	if c.Policy != nil {
		s += "|policy=" + c.Policy.Fingerprint()
	}
	return s
}

func (c VMConfig) planString() string {
	s := fmt.Sprintf("vm|bench=%s|seed=%d|scale=%g|trials=%d|points=%d|warmup=%d|spread=%d|window=%d|low32=%t",
		c.Bench, c.Seed, c.Scale, c.Trials, c.Points,
		c.Warmup, c.Spread, c.Window, c.Low32)
	if c.Policy != nil {
		s += "|policy=" + c.Policy.Fingerprint()
	}
	return s
}

// CampaignID names the campaign directory for this configuration: the
// campaign kind, the benchmark, and the plan fingerprint. Two configurations
// share an ID exactly when their journals are interchangeable.
func (c UArchConfig) CampaignID() string {
	c.applyDefaults()
	return fmt.Sprintf("uarch-%s-%s", c.Bench, fingerprint(c.planString()))
}

// CampaignID names the campaign directory for this configuration.
func (c VMConfig) CampaignID() string {
	c.applyDefaults()
	return fmt.Sprintf("vm-%s-%s", c.Bench, fingerprint(c.planString()))
}

// uarchAux is the microarchitectural campaign's manifest aggregate: state
// derived from the pipeline geometry, carried in the manifest so a merge can
// rebuild the full UArchResult without constructing a pipeline.
type uarchAux struct {
	TotalBits   uint64          `json:"total_bits"`
	LatchBits   uint64          `json:"latch_bits"`
	HardenStats hardenStatsJSON `json:"harden_stats"`
}

// hardenStatsJSON mirrors harden.Stats with stable JSON names.
type hardenStatsJSON struct {
	TotalBits    uint64 `json:"total_bits"`
	ECCBits      uint64 `json:"ecc_bits"`
	ParityBits   uint64 `json:"parity_bits"`
	OverheadBits uint64 `json:"overhead_bits"`
}

// validateSharding checks the durability fields shared by both campaign
// types. shardCount == 0 means unsharded (normalised to 1 of 1).
func validateSharding(resumeFrom string, shardIndex, shardCount int) error {
	if shardCount == 0 && shardIndex == 0 {
		return nil
	}
	if shardCount < 1 || shardIndex < 0 || shardIndex >= shardCount {
		return fmt.Errorf("inject: invalid shard %d of %d", shardIndex, shardCount)
	}
	if shardCount > 1 && resumeFrom == "" {
		return fmt.Errorf("inject: a sharded campaign needs a campaign directory (ResumeFrom) to journal into")
	}
	return nil
}

// ownsSlot reports whether shard index of count runs plan slot slot; a
// count of 0 or 1 is unsharded.
func ownsSlot(slot, index, count int) bool {
	return count <= 1 || slot%count == index
}

// openJournals tracks every live campaignJournal so an emergency shutdown —
// a process forced to exit while campaigns are still draining — can flush
// the records of already-completed trials without waiting for the drain.
// Entries are registered by openCampaignJournal and removed by finish.
var openJournals sync.Map // *campaignJournal -> struct{}

// FlushJournals fsyncs the buffered records of every open campaign journal.
// It is the emergency half of the interruption protocol: the orderly path
// (Interrupt channel) drains in-flight trials and closes each journal via
// finish, while FlushJournals makes whatever is already journalled durable
// right now, from any goroutine, without stopping the campaigns. Records
// flushed here are exactly the completed trials a resumed run recovers.
// It returns the first flush error, if any.
func FlushJournals() error {
	var first error
	openJournals.Range(func(k, _ any) bool {
		if err := k.(*campaignJournal).w.Flush(); err != nil && first == nil {
			first = err
		}
		return true
	})
	return first
}

// campaignJournal couples a campaignio.Writer with the bookkeeping a running
// campaign needs: which slots were loaded, whether a torn tail was repaired,
// and the first append error (workers journal concurrently; the dispatcher
// surfaces the error after draining). All methods are nil-receiver-safe so
// the engines call them unconditionally.
type campaignJournal struct {
	w       *campaignio.Writer
	resumed int
	torn    bool

	mu  sync.Mutex
	err error
}

// openCampaignJournal opens (or creates) the campaign directory, validates
// its manifest against the live plan, scans the journal — truncating a torn
// tail, failing hard on any other corruption — and returns the journal plus
// the recovered payloads indexed by slot (nil where missing). compress
// selects the compressed-segment journal framing for a freshly created
// journal (an existing journal keeps its own framing).
func openCampaignJournal(dir string, want campaignio.Manifest, compress bool) (*campaignJournal, [][]byte, error) {
	if campaignio.HasManifest(dir) {
		have, err := campaignio.ReadManifest(dir)
		if err != nil {
			return nil, nil, err
		}
		if err := want.Resumable(have); err != nil {
			return nil, nil, fmt.Errorf("inject: %s is not resumable by this configuration: %w", dir, err)
		}
	} else if err := campaignio.WriteManifest(dir, want); err != nil {
		return nil, nil, err
	}
	scan, err := campaignio.ScanJournal(dir, want.Slots)
	if err != nil {
		return nil, nil, err
	}
	loaded := make([][]byte, want.Slots)
	distinct := 0
	for _, rec := range scan.Records {
		if !want.Owns(rec.Slot) {
			return nil, nil, fmt.Errorf("inject: %s: %w: slot %d belongs to another shard",
				dir, campaignio.ErrCorrupt, rec.Slot)
		}
		if prev := loaded[rec.Slot]; prev != nil {
			// A slot journalled twice with identical bytes is the benign
			// residue of an interrupted run whose batch re-ran after an
			// older scan; only differing payloads are corruption.
			if !bytes.Equal(prev, rec.Payload) {
				return nil, nil, fmt.Errorf("inject: %s: %w: slot %d recorded twice with differing payloads",
					dir, campaignio.ErrCorrupt, rec.Slot)
			}
			continue
		}
		loaded[rec.Slot] = rec.Payload
		distinct++
	}
	w, err := campaignio.OpenWriterWith(dir, scan.ValidLen, campaignio.Options{
		Batch:    journalBatch,
		Compress: compress,
	})
	if err != nil {
		return nil, nil, err
	}
	j := &campaignJournal{w: w, resumed: distinct, torn: scan.Torn}
	openJournals.Store(j, struct{}{})
	return j, loaded, nil
}

// record journals one completed trial. Called from worker goroutines as
// trials retire; marshal errors and write errors are captured for the
// dispatcher (the journal is durability bookkeeping — it must never perturb
// the trial results themselves).
func (j *campaignJournal) record(slot int, trial any) {
	if j == nil {
		return
	}
	payload, err := json.Marshal(trial)
	if err == nil {
		err = j.w.Append(slot, payload)
	}
	if err != nil {
		j.mu.Lock()
		if j.err == nil {
			j.err = err
		}
		j.mu.Unlock()
	}
}

// finish flushes and closes the journal, emits the durability telemetry, and
// returns the first error encountered anywhere in the journal's life.
func (j *campaignJournal) finish(sink obs.Sink, prefix string) error {
	if j == nil {
		return nil
	}
	openJournals.Delete(j)
	ferr := j.w.Close()
	sink.Counter(prefix + "_resumed_slots_total").Add(int64(j.resumed))
	sink.Counter(prefix + "_journal_flushes_total").Add(j.w.Flushes())
	if j.torn {
		sink.Counter(prefix + "_journal_torn_repairs_total").Inc()
	}
	j.mu.Lock()
	defer j.mu.Unlock()
	if j.err != nil {
		return j.err
	}
	return ferr
}

// interrupted reports whether the campaign's interrupt channel has fired.
func interrupted(ch <-chan struct{}) bool {
	if ch == nil {
		return false
	}
	select {
	case <-ch:
		return true
	default:
		return false
	}
}

// MergeUArch merges the shard directories of a microarchitectural campaign
// into the result an unsharded run of cfg would return. Every shard manifest
// must match cfg's plan; overlapping, stray, missing or torn records are
// errors (campaignio.MergeScan) — a damaged shard is resumed, never patched
// over here.
func MergeUArch(cfg UArchConfig, dirs []string) (*UArchResult, error) {
	cfg.applyDefaults()
	man, payloads, err := campaignio.MergeScan(dirs)
	if err != nil {
		return nil, err
	}
	if err := checkMergedManifest(man, "uarch", fingerprint(cfg.planString()),
		cfg.Seed, string(cfg.Bench), cfg.Points*cfg.TrialsPerPoint); err != nil {
		return nil, err
	}
	var aux uarchAux
	if err := json.Unmarshal(man.Aux, &aux); err != nil {
		return nil, fmt.Errorf("inject: %w: campaign aggregates: %v", campaignio.ErrCorrupt, err)
	}
	res := &UArchResult{
		Config:    cfg,
		TotalBits: aux.TotalBits,
		LatchBits: aux.LatchBits,
	}
	res.HardenStats.TotalBits = aux.HardenStats.TotalBits
	res.HardenStats.ECCBits = aux.HardenStats.ECCBits
	res.HardenStats.ParityBits = aux.HardenStats.ParityBits
	res.HardenStats.OverheadBits = aux.HardenStats.OverheadBits
	res.Trials = make([]UArchTrial, len(payloads))
	for slot, p := range payloads {
		if err := json.Unmarshal(p, &res.Trials[slot]); err != nil {
			return nil, fmt.Errorf("inject: %w: slot %d: %v", campaignio.ErrCorrupt, slot, err)
		}
	}
	return res, nil
}

// MergeVM merges the shard directories of a software-level campaign into the
// result an unsharded run of cfg would return.
func MergeVM(cfg VMConfig, dirs []string) (*VMResult, error) {
	cfg.applyDefaults()
	man, payloads, err := campaignio.MergeScan(dirs)
	if err != nil {
		return nil, err
	}
	if err := checkMergedManifest(man, "vm", fingerprint(cfg.planString()),
		cfg.Seed, string(cfg.Bench), cfg.Trials); err != nil {
		return nil, err
	}
	res := &VMResult{Config: cfg}
	res.Trials = make([]VMTrial, len(payloads))
	for slot, p := range payloads {
		if err := json.Unmarshal(p, &res.Trials[slot]); err != nil {
			return nil, fmt.Errorf("inject: %w: slot %d: %v", campaignio.ErrCorrupt, slot, err)
		}
	}
	return res, nil
}

func checkMergedManifest(m campaignio.Manifest, kind, hash string, seed int64, bench string, slots int) error {
	switch {
	case m.Kind != kind:
		return fmt.Errorf("%w: campaign kind %q, expected %q", campaignio.ErrManifestMismatch, m.Kind, kind)
	case m.ConfigHash != hash:
		return fmt.Errorf("%w: config hash %s, expected %s", campaignio.ErrManifestMismatch, m.ConfigHash, hash)
	case m.Seed != seed:
		return fmt.Errorf("%w: seed %d, expected %d", campaignio.ErrManifestMismatch, m.Seed, seed)
	case m.Bench != bench:
		return fmt.Errorf("%w: benchmark %q, expected %q", campaignio.ErrManifestMismatch, m.Bench, bench)
	case m.Slots != slots:
		return fmt.Errorf("%w: %d slots, expected %d", campaignio.ErrManifestMismatch, m.Slots, slots)
	}
	return nil
}
