package main

import (
	"crypto/sha256"
	"encoding/hex"
	"encoding/json"
	"fmt"
	"math"
	"math/rand"
	"strings"
	"time"

	"repro/internal/experiments"
	"repro/internal/inject"
	"repro/internal/obs"
	"repro/internal/workload"
)

// engineKind selects the campaign engine an in-memory workload drives.
type engineKind int

const (
	kindUArch engineKind = iota // experiments.Campaign: the Figure 4/5 pipeline campaign
	kindVM                      // experiments.Fig2: the Figure 2 VM campaign
)

// Reference values from the paper, read off its figures (EXPERIMENTS.md).
const (
	paperJRSFailurePct = 3.5  // ReStore (JRS) failure rate at a 100-instruction interval
	paperVMMaskedPct   = 59.0 // masked fraction of the VM campaign
)

// inMemory runs one paper-scale campaign sweep per batch of operations: one
// operation is the campaign of one benchmark, so a sweep is seven calls and
// concatenating them gives the trials of a single all-benchmark call. Sweep
// 0 runs on the workload seed and each later sweep on a seed drawn from it,
// so a run averages over more programs.
type inMemory struct {
	c       config
	kind    engineKind
	benches []workload.Benchmark
	seeds   []int64 // campaign seed of each sweep
	rng     *rand.Rand
	reg     *obs.Registry
	tr      *tracer

	sets     []trialSet // trials of each op of the phase
	paperErr float64    // |measured − paper| in percentage points, from the first sweep
}

// trialSet holds one campaign call's trials; only the engine's field is set.
type trialSet struct {
	uarch []inject.UArchTrial
	vm    []inject.VMTrial
}

func (t trialSet) len() int { return len(t.uarch) + len(t.vm) }

// digest identifies a trial set: the SHA-256 of its JSON encoding,
// truncated to 64 bits.
func (t trialSet) digest() (string, error) {
	var data []byte
	var err error
	if t.uarch != nil {
		data, err = json.Marshal(t.uarch)
	} else {
		data, err = json.Marshal(t.vm)
	}
	if err != nil {
		return "", err
	}
	sum := sha256.Sum256(data)
	return hex.EncodeToString(sum[:8]), nil
}

func newInMemory(c config, kind engineKind) *inMemory {
	return &inMemory{c: c, kind: kind, benches: workload.Benchmarks(),
		seeds: []int64{c.seed}, rng: rand.New(rand.NewSource(c.seed))}
}

// sweepSeed returns the campaign seed of sweep k.
func (w *inMemory) sweepSeed(k int) int64 {
	for len(w.seeds) <= k {
		w.seeds = append(w.seeds, 1+w.rng.Int63n(1<<31))
	}
	return w.seeds[k]
}

// opName names the campaign of one benchmark on one seed.
func opName(bench workload.Benchmark, seed int64) string {
	return fmt.Sprintf("%s/seed=%d", bench, seed)
}

// trialFactor is the campaign scale: 1.0 is the paper's §4.4 campaign size.
func (w *inMemory) trialFactor() float64 {
	if w.c.tiny {
		return 0.02
	}
	return 1.0
}

// plannedTrials is the trial count of one benchmark's campaign, by the
// same scaling rule experiments applies.
func (w *inMemory) plannedTrials() int {
	f := w.trialFactor()
	if w.kind == kindUArch {
		return scaleCount(25, f, 4) * scaleCount(70, f, 12)
	}
	return scaleCount(1000, f, 40)
}

func scaleCount(base int, factor float64, min int) int {
	return max(int(float64(base)*factor), min)
}

func (w *inMemory) options(bench workload.Benchmark, seed int64, workers int, reg *obs.Registry) experiments.Options {
	return experiments.Options{
		Seed:        seed,
		TrialFactor: w.trialFactor(),
		Benchmarks:  []workload.Benchmark{bench},
		Workers:     workers,
		Obs:         reg,
	}
}

func (w *inMemory) callName() string {
	if w.kind == kindUArch {
		return "experiments.Campaign"
	}
	return "experiments.Fig2"
}

func (w *inMemory) setup(reg *obs.Registry, tr *tracer) error {
	w.reg, w.tr = reg, tr
	w.sets = nil
	return nil
}

func (w *inMemory) shape() (batch, minOps int) { return len(w.benches), len(w.benches) }

func (w *inMemory) teardown() {}

// campaign runs one benchmark's campaign and returns its trials.
func (w *inMemory) campaign(bench workload.Benchmark, seed int64, workers int, reg *obs.Registry) (trialSet, error) {
	opts := w.options(bench, seed, workers, reg)
	if w.kind == kindUArch {
		e, err := experiments.Campaign(opts, experiments.CampaignConfig{})
		if err != nil {
			return trialSet{}, err
		}
		return trialSet{uarch: e.AllTrials}, nil
	}
	r, err := experiments.Fig2(opts, false)
	if err != nil {
		return trialSet{}, err
	}
	return trialSet{vm: r.AllTrials}, nil
}

func (w *inMemory) run(i int) op {
	bench, seed := w.benches[i%len(w.benches)], w.sweepSeed(i/len(w.benches))
	id := w.tr.begin(w.callName(), -1, i)
	start := time.Now()
	set, err := w.campaign(bench, seed, w.c.workers, w.reg)
	o := op{name: opName(bench, seed), latency: time.Since(start)}
	w.tr.end(id)
	w.sets = append(w.sets, set)
	if err != nil {
		o.failure = err.Error()
	}
	return o
}

func (w *inMemory) check(p *phase, ref map[string]string) map[string]string {
	plan := w.plannedTrials()
	recorded := recordedDigests(w.c)
	known := make(map[string]string)
	for k, v := range ref {
		known[k] = v
	}
	for i := range p.ops {
		o := &p.ops[i]
		if o.failure != "" {
			continue
		}
		id := w.tr.begin("check.digest", -1, i)
		d, err := w.sets[i].digest()
		w.tr.end(id)
		o.trials, o.digest = w.sets[i].len(), d
		switch {
		case err != nil:
			o.failure = "digest: " + err.Error()
		case o.trials != plan:
			o.failure = fmt.Sprintf("%d trials, the plan has %d", o.trials, plan)
		default:
			o.failure = digestFailure(w.c, i, o.name, d, recorded, known)
		}
		if known[o.name] == "" {
			known[o.name] = d
		}
	}
	if ref == nil {
		w.checkSerial(p, recorded)
	}
	w.paperErr = w.paperError(p)
	w.sets = nil
	return known
}

// checkSerial covers campaigns without recorded digests: it re-runs one of
// them, the benchmark chosen by the seed in the last sweep, on the serial
// engine and requires every call of it to match.
func (w *inMemory) checkSerial(p *phase, recorded map[string]string) {
	n := len(w.benches)
	last := (len(p.ops) - 1) / n
	bench, seed := w.benches[w.c.seed%int64(n)], w.sweepSeed(last)
	name := opName(bench, seed)
	if recorded[name] != "" {
		return
	}
	set, err := w.campaign(bench, seed, 0, nil)
	want := ""
	if err == nil {
		want, err = set.digest()
	}
	for i := range p.ops {
		o := &p.ops[i]
		switch {
		case o.name != name || o.failure != "":
		case err != nil:
			o.failure = "serial re-run: " + err.Error()
		case o.digest != want:
			o.failure = fmt.Sprintf("digest %s, serial engine gives %s", o.digest, want)
		}
	}
}

// paperError compares the first sweep with the paper's headline value. It
// returns 0 when that sweep did not complete.
func (w *inMemory) paperError(p *phase) float64 {
	n := len(w.benches)
	if len(p.ops) < n {
		return 0
	}
	for _, o := range p.ops[:n] {
		if o.failure != "" {
			return 0
		}
	}
	if w.kind == kindUArch {
		var all []inject.UArchTrial
		for _, t := range w.sets[:n] {
			all = append(all, t.uarch...)
		}
		return math.Abs(100*inject.FailureRate(all, 100, inject.DetectorJRS) - paperJRSFailurePct)
	}
	masked, total := 0, 0
	for _, set := range w.sets[:n] {
		for _, t := range set.vm {
			total++
			if t.Masked {
				masked++
			}
		}
	}
	return math.Abs(100*float64(masked)/float64(total) - paperVMMaskedPct)
}

func (w *inMemory) layers(p *phase, reg *obs.Registry) []metric {
	prefix := "inject.uarch.campaign_s."
	if w.kind == kindVM {
		prefix = "inject.vm.campaign_s."
	}
	var out []metric
	for _, b := range w.benches {
		var lat []float64
		for _, o := range p.ops {
			if strings.HasPrefix(o.name, string(b)+"/") {
				lat = append(lat, o.latency.Seconds())
			}
		}
		out = append(out, metric{name: prefix + string(b), value: median(lat)})
	}
	return out
}

func (w *inMemory) paperErrPP() (float64, bool) { return w.paperErr, true }
