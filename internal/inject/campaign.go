package inject

import (
	"encoding/json"
	"fmt"
	"slices"

	"repro/internal/campaignio"
	"repro/internal/obs"
)

// The campaign driver: the one loop both engines run.
//
// The software-level (Section 3.1) and microarchitectural (Section 4.2)
// campaigns apply one statistical method. Both pre-select sorted injection
// points, flip bits in a batch of trials at each point, and compare every
// trial against the golden run. runCampaign owns everything that method
// shares: shard validation, the journal and the slots it recovers, slot
// ownership and progress totals, the point × slot loop, protected trials,
// interruption, truncation and the campaign telemetry. An engine supplies
// only what is its own (the campaign interface): its set-up, how many slots
// each point holds, how to walk the golden run to a point, record the golden
// continuation there and build one trial.

// RunOptions are the run-time settings both campaign kinds share. None of
// them enters the plan fingerprint: results are byte-identical under every
// value, so a campaign journalled one way resumes under any other.
type RunOptions struct {
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

	// Obs, if non-nil, receives campaign telemetry (trial, point and
	// outcome counts, throughput, pool and queue accounting) under the
	// campaign_uarch_* or campaign_vm_* namespace; a microarchitectural
	// campaign adds per-stage counters and occupancy histograms from its
	// master pipeline under pipeline_*. Purely observational: results are
	// byte-identical with or without a sink.
	Obs obs.Sink

	// ResumeFrom, if non-empty, makes the campaign durable: a manifest and
	// an append-only checksummed trial journal live in this directory
	// (internal/campaignio). Slots already journalled are loaded instead
	// of re-run, and newly completed trials are appended, so an
	// interrupted campaign pointed back at the same directory continues
	// where it stopped — with results byte-identical to a one-shot run.
	// The manifest is validated against the configuration's plan
	// fingerprint; a mismatch is an error, never a silent overwrite.
	ResumeFrom string

	// ShardIndex/ShardCount partition the pre-drawn trial plan across
	// processes: shard i of n runs the slots s with s%n == i. Each shard
	// journals into its own ResumeFrom directory; MergeUArch/MergeVM (or
	// the restore-sim merge subcommand) reassemble the full result. Zero
	// ShardCount means unsharded. Sharding requires ResumeFrom.
	ShardIndex int
	ShardCount int

	// GoldenImage, if non-empty, is the path of a warmed-state golden
	// image (internal/ckptio). When the file exists the campaign loads it
	// instead of simulating the warm-up; when it does not, the campaign
	// warms up normally and saves the image for the next run — so N
	// sharded workers pointed at one image pay for warm-up once. The image
	// records the configuration that produced it; loading a mismatched
	// image is an error, never silently wrong state.
	GoldenImage string

	// CompressJournal selects the compressed-segment journal encoding
	// (campaignio format RSTJRNL2) for newly created durable journals.
	// Existing journals keep their own format on resume, scans read both,
	// and merged output is identical either way.
	CompressJournal bool

	// Interrupt, if non-nil, stops the campaign cleanly when it becomes
	// readable: in-flight trials drain, the journal tail is flushed, and
	// the campaign returns ErrInterrupted.
	Interrupt <-chan struct{}
}

// campaign is one engine's side of runCampaign; T is its trial record.
// Slots are numbered point by point: point pi's slots follow point pi-1's.
type campaign[T any] interface {
	// manifest describes the trial plan to a durable journal.
	manifest() (campaignio.Manifest, error)
	// points is the number of injection points; slots(pi) the number of
	// trial slots at point pi.
	points() int
	slots(pi int) int
	// advance walks the golden run to point pi. False truncates the
	// campaign there: the golden program has ended.
	advance(pi int) (bool, error)
	// golden records the golden continuation at the current point. False
	// truncates the campaign: the golden program ends inside the window.
	golden() (bool, error)
	// trial prepares slot's trial at the current point on the dispatching
	// goroutine. A trial absorbed by protection comes back finished with a
	// nil run; otherwise run simulates it, possibly on a worker.
	trial(slot int) (done T, run func() T)
	// settle runs after a recorded point's trials are all dispatched.
	settle()
	// category names a trial's outcome for the outcome counters.
	category(t T) string
}

// runCampaign runs the campaign that setup builds and returns its trials,
// trimmed to the points run when the golden program ends early. ns is the
// metric namespace (campaign_uarch or campaign_vm).
//
// A point is skipped — no golden recording, no trials — only when every one
// of its slots was loaded from the journal; see journal.go on why owning no
// remaining work there is not enough.
func runCampaign[T any](ro *RunOptions, ns string, setup func() (campaign[T], error)) ([]T, error) {
	if err := validateSharding(ro.ResumeFrom, ro.ShardIndex, ro.ShardCount); err != nil {
		return nil, err
	}
	wall := ro.Obs.Timer(ns + "_wall").Start()
	c, err := setup()
	if err != nil {
		return nil, err
	}
	nslots := 0
	for pi := 0; pi < c.points(); pi++ {
		nslots += c.slots(pi)
	}
	owns := func(slot int) bool { return ownsSlot(slot, ro.ShardIndex, ro.ShardCount) }
	// total sizes the progress meter to the slots this run is responsible
	// for: owned slots, whether recovered or re-run.
	total := 0
	for slot := 0; slot < nslots; slot++ {
		if owns(slot) {
			total++
		}
	}

	// Durable campaigns: recover journalled slots straight into their
	// result slots. Every random pick is pre-drawn in setup, so skipping
	// recovered slots cannot perturb the RNG stream.
	trials := make([]T, nslots)
	loaded := make([]bool, nslots)
	var jr *campaignJournal
	if ro.ResumeFrom != "" {
		man, err := c.manifest()
		if err != nil {
			return nil, err
		}
		var payloads [][]byte
		jr, payloads, err = openCampaignJournal(ro.ResumeFrom, man, ro.CompressJournal)
		if err != nil {
			return nil, err
		}
		for slot, p := range payloads {
			if p == nil {
				continue
			}
			if err := json.Unmarshal(p, &trials[slot]); err != nil {
				jr.finish(nil, "")
				return nil, fmt.Errorf("inject: %s: %w: slot %d: %v",
					ro.ResumeFrom, campaignio.ErrCorrupt, slot, err)
			}
			loaded[slot] = true
		}
	}

	eng := newEngine(ro.Workers, ro.Obs, ns)
	tick := func() { eng.done(ro.Progress, total) }
	fail := func(err error) ([]T, error) {
		eng.wait()
		jr.finish(ro.Obs, ns)
		return nil, err
	}
	filled, points, stopped := 0, 0, false
loop:
	for pi := 0; pi < c.points(); pi++ {
		if interrupted(ro.Interrupt) {
			stopped = true
			break
		}
		if ok, err := c.advance(pi); err != nil {
			return fail(err)
		} else if !ok {
			break
		}
		n := c.slots(pi)
		if !slices.Contains(loaded[filled:filled+n], false) {
			for slot := filled; slot < filled+n; slot++ {
				if owns(slot) {
					tick()
				}
			}
			filled += n
			points++
			continue
		}
		if ok, err := c.golden(); err != nil {
			return fail(err)
		} else if !ok {
			break
		}
		for t := 0; t < n; t++ {
			slot := filled + t
			if !owns(slot) {
				continue // another shard's slot
			}
			if loaded[slot] {
				tick()
				continue
			}
			if interrupted(ro.Interrupt) {
				stopped = true
				break loop
			}
			done, run := c.trial(slot)
			if run == nil {
				trials[slot] = done
				jr.record(slot, &trials[slot])
				tick()
				continue
			}
			eng.submit(func() {
				trials[slot] = run()
				jr.record(slot, &trials[slot])
				tick()
			})
		}
		c.settle()
		filled += n
		points++
	}
	eng.wait()
	if stopped {
		// Drained workers have journalled their trials; flush the tail so
		// a resumed run recovers every completed slot.
		ro.Obs.Counter(ns + "_interrupted_total").Inc()
		if err := jr.finish(ro.Obs, ns); err != nil {
			return nil, err
		}
		return nil, ErrInterrupted
	}
	trials = trials[:filled]
	recordCampaignTelemetry(ro, ns, trials, c.category, points, filled < nslots, wall.Stop())
	if err := jr.finish(ro.Obs, ns); err != nil {
		return nil, err
	}
	return trials, nil
}
