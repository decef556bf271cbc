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
// reconstruct the same result. The campaign driver (runCampaign) applies all
// of this for both engines, and mergeShards is the one merge.
//
// Truncation discipline: a workload that halts early truncates a campaign at
// a point boundary, deterministically. Golden-trace recording at a point is
// skipped only when EVERY slot of that point is journal-loaded — a shard that
// merely owns no remaining work there still records (and so still detects
// truncation at) the point, which keeps the set of journalled points
// identical across shards and makes the merge's gap-free-prefix check sound.
package inject

import (
	"encoding/json"
	"errors"
	"fmt"
	"hash/fnv"
	"sync"

	"repro/internal/campaignio"
	"repro/internal/harden"
	"repro/internal/obs"
	"repro/internal/pipeline"
	"repro/internal/workload"
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
// The RunOptions (workers, progress, telemetry, interrupt and the
// durability fields) are excluded: they never influence results, and a
// campaign journalled serially must resume under any worker count.
func fingerprint(canonical string) string {
	h := fnv.New64a()
	h.Write([]byte(canonical))
	return fmt.Sprintf("%016x", h.Sum64())
}

// newManifest builds the manifest of a campaign plan: its kind, benchmark,
// seed, canonical plan string and slot count, plus ro's shard.
func newManifest(kind string, bench workload.Benchmark, seed int64, plan string, slots int, ro RunOptions) campaignio.Manifest {
	return campaignio.Manifest{
		Version:    campaignio.FormatVersion,
		Kind:       kind,
		ConfigHash: fingerprint(plan),
		Seed:       seed,
		Bench:      string(bench),
		Slots:      slots,
		ShardIndex: ro.ShardIndex,
		ShardCount: max(1, ro.ShardCount),
	}
}

// manifest describes this configuration's trial plan and shard. The
// receiver must already have defaults applied.
func (c UArchConfig) manifest() campaignio.Manifest {
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
	return newManifest("uarch", c.Bench, c.Seed, s, c.Points*c.TrialsPerPoint, c.RunOptions)
}

// manifest describes this configuration's trial plan and shard. The
// receiver must already have defaults applied.
func (c VMConfig) manifest() campaignio.Manifest {
	s := fmt.Sprintf("vm|bench=%s|seed=%d|scale=%g|trials=%d|points=%d|warmup=%d|spread=%d|window=%d|low32=%t",
		c.Bench, c.Seed, c.Scale, c.Trials, c.Points,
		c.Warmup, c.Spread, c.Window, c.Low32)
	if c.Policy != nil {
		s += "|policy=" + c.Policy.Fingerprint()
	}
	return newManifest("vm", c.Bench, c.Seed, s, c.Trials, c.RunOptions)
}

// CampaignID names the campaign directory for this configuration: the
// campaign kind, the benchmark, and the plan fingerprint. Two configurations
// share an ID exactly when their journals are interchangeable.
func (c UArchConfig) CampaignID() string {
	c.applyDefaults()
	return campaignID(c.manifest())
}

// CampaignID names the campaign directory for this configuration.
func (c VMConfig) CampaignID() string {
	c.applyDefaults()
	return campaignID(c.manifest())
}

func campaignID(m campaignio.Manifest) string {
	return fmt.Sprintf("%s-%s-%s", m.Kind, m.Bench, m.ConfigHash)
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
	distinct, err := want.FillSlots(loaded, scan.Records)
	if err != nil {
		return nil, nil, fmt.Errorf("inject: %s: %w", dir, err)
	}
	w, err := campaignio.OpenWriter(dir, scan.ValidLen, campaignio.Options{
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
// into the result an unsharded run of cfg would return (see mergeShards).
func MergeUArch(cfg UArchConfig, dirs []string) (*UArchResult, error) {
	cfg.applyDefaults()
	man, trials, err := mergeShards[UArchTrial](dirs, cfg.manifest())
	if err != nil {
		return nil, err
	}
	var aux uarchAux
	if err := json.Unmarshal(man.Aux, &aux); err != nil {
		return nil, fmt.Errorf("inject: %w: campaign aggregates: %v", campaignio.ErrCorrupt, err)
	}
	return &UArchResult{
		Config:      cfg,
		Trials:      trials,
		TotalBits:   aux.TotalBits,
		LatchBits:   aux.LatchBits,
		HardenStats: harden.Stats(aux.HardenStats),
	}, nil
}

// MergeVM merges the shard directories of a software-level campaign into the
// result an unsharded run of cfg would return (see mergeShards).
func MergeVM(cfg VMConfig, dirs []string) (*VMResult, error) {
	cfg.applyDefaults()
	_, trials, err := mergeShards[VMTrial](dirs, cfg.manifest())
	if err != nil {
		return nil, err
	}
	return &VMResult{Config: cfg, Trials: trials}, nil
}

// mergeShards merges the shard directories of the campaign whose plan want
// describes into the trials an unsharded run returns, plus the merged
// manifest. Every shard manifest must match the plan; overlapping, stray,
// missing or torn records are errors (campaignio.MergeScan) — a damaged
// shard is resumed, never patched over here.
func mergeShards[T any](dirs []string, want campaignio.Manifest) (campaignio.Manifest, []T, error) {
	man, payloads, err := campaignio.MergeScan(dirs)
	if err != nil {
		return man, nil, err
	}
	if err := checkMergedManifest(man, want); err != nil {
		return man, nil, err
	}
	trials := make([]T, len(payloads))
	for slot, p := range payloads {
		if err := json.Unmarshal(p, &trials[slot]); err != nil {
			return man, nil, fmt.Errorf("inject: %w: slot %d: %v", campaignio.ErrCorrupt, slot, err)
		}
	}
	return man, trials, nil
}

func checkMergedManifest(have, want campaignio.Manifest) error {
	m := campaignio.ErrManifestMismatch
	switch {
	case have.Kind != want.Kind:
		return fmt.Errorf("%w: campaign kind %q, expected %q", m, have.Kind, want.Kind)
	case have.ConfigHash != want.ConfigHash:
		return fmt.Errorf("%w: config hash %s, expected %s", m, have.ConfigHash, want.ConfigHash)
	case have.Seed != want.Seed:
		return fmt.Errorf("%w: seed %d, expected %d", m, have.Seed, want.Seed)
	case have.Bench != want.Bench:
		return fmt.Errorf("%w: benchmark %q, expected %q", m, have.Bench, want.Bench)
	case have.Slots != want.Slots:
		return fmt.Errorf("%w: %d slots, expected %d", m, have.Slots, want.Slots)
	}
	return nil
}
