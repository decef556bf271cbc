package main

import (
	"fmt"
	"io"
	"os"
	"path/filepath"
	"time"

	"repro/internal/arch"
	"repro/internal/ckptio"
	"repro/internal/isa"
	"repro/internal/obs"
	"repro/internal/pipeline"
	"repro/internal/workload"
)

// layerUnits lists the per-layer metrics, with their units, in report
// order. BENCHMARK.json names the same set. A metric of a layer that the
// workload does not use reads 0.
var layerUnits = func() []metric {
	out := []metric{
		{name: "pipeline.cycle_ns", unit: "ns"},
		{name: "pipeline.hash_ns", unit: "ns"},
		{name: "pipeline.reset_from_us", unit: "us"},
		{name: "pipeline.clone_us", unit: "us"},
		{name: "pipeline.warmup_ms", unit: "ms"},
		{name: "inject.uarch.clone_pool_hit_ratio", unit: "ratio"},
		{name: "inject.uarch.worker_util", unit: "ratio"},
		{name: "inject.uarch.queue_depth_mean", unit: "count"},
		{name: "arch.step_ns", unit: "ns"},
		{name: "mem.clone_us", unit: "us"},
		{name: "mem.restore_us", unit: "us"},
		{name: "inject.vm.mem_pool_hit_ratio", unit: "ratio"},
		{name: "inject.vm.worker_util", unit: "ratio"},
		{name: "inject.vm.queue_depth_mean", unit: "count"},
	}
	for _, kind := range []string{"uarch", "vm"} {
		for _, b := range workload.Benchmarks() {
			out = append(out, metric{name: "inject." + kind + ".campaign_s." + string(b), unit: "s"})
		}
	}
	return append(out, []metric{
		{name: "inject.trials", unit: "count"},
		{name: "workload.generate_ms", unit: "ms"},
		{name: "ckptio.golden_write_ms", unit: "ms"},
		{name: "ckptio.golden_load_ms", unit: "ms"},
		{name: "ckptio.golden_hit_ratio", unit: "ratio"},
		{name: "ckptio.golden_saves", unit: "count"},
		{name: "ckptio.golden_loads", unit: "count"},
		{name: "ckptio.golden_stored_bytes", unit: "bytes"},
		{name: "campaignio.journal_flushes", unit: "1/job"},
		{name: "campaignio.journal_bytes_per_trial", unit: "bytes"},
		{name: "campaignio.merge_scan_ms", unit: "ms"},
		{name: "campaignio.scan_ms", unit: "ms"},
		{name: "service.submit_ms", unit: "ms"},
		{name: "service.poll_ms", unit: "ms"},
		{name: "service.queue_wait_ms", unit: "ms"},
		{name: "service.run_s", unit: "s"},
		{name: "trace.overhead_pct", unit: "%"},
		{name: "paper_err_pp", unit: "pp"},
		{name: "error_rate", unit: "ratio"},
	}...)
}()

// knownProblems are measured behaviours of the program that make some layer
// metrics vary or read 0. They are printed beside the metrics so that they
// are not mistaken for noise.
var knownProblems = []string{
	"ckptio.golden_saves and ckptio.golden_loads vary from run to run: both shards of a new campaign can warm up and write the same golden image before either has saved it",
	"inject.vm.worker_util reads 0 on the daemon's serial shards: the serial VM engine records no campaign_vm_worker_busy, so the metric is defined only at 2 or more workers",
	"campaign_uarch_trials_total and campaign_vm_trials_total count every slot of the plan on every shard, also the slots other shards own, so on daemon-jobs they read shards x the plan; inject.trials there is read from service_trials_completed_total, which counts owned slots",
}

// perLayer assembles the per-layer metrics of a traced run: the program's
// own obs counters from the traced phase, the workload's metrics, and the
// layer probes. It writes the spans out and reports the tracing overhead.
func perLayer(c config, w scenario, plain, traced *phase, reg *obs.Registry, tr *tracer, errorRate float64, out io.Writer) ([]metric, error) {
	values := obsLayers(reg, c.engineWorkers())
	values["inject.trials"] = float64(obsTrials(reg, c.workload == "daemon-jobs"))
	for _, m := range w.layers(traced, reg) {
		values[m.name] = m.value
	}
	probes, err := probe(c, tr)
	if err != nil {
		return nil, fmt.Errorf("probe: %w", err)
	}
	for _, m := range probes {
		values[m.name] = m.value
	}
	values["trace.overhead_pct"] = 100 * (1 - traced.trialsPerSecond()/plain.trialsPerSecond())
	values["error_rate"] = errorRate
	values["paper_err_pp"], _ = w.paperErrPP()
	fmt.Fprintf(out, "trace trials_per_s untraced %.2f traced %.2f\n", plain.trialsPerSecond(), traced.trialsPerSecond())
	for _, p := range knownProblems {
		fmt.Fprintln(out, "known problem:", p)
	}
	path := filepath.Join(c.workdir, fmt.Sprintf("spans-%s-seed%d.json", c.workload, c.seed))
	if err := tr.write(path, out); err != nil {
		return nil, err
	}
	metrics := make([]metric, len(layerUnits))
	for i, m := range layerUnits {
		m.value = values[m.name]
		metrics[i] = m
	}
	return metrics, nil
}

// obsLayers reads the campaign engines' counters, timers and histograms.
func obsLayers(reg *obs.Registry, workers int) map[string]float64 {
	count := func(name string) float64 { return float64(reg.Counter(name).Value()) }
	share := func(a, b float64) float64 {
		if a+b == 0 {
			return 0
		}
		return a / (a + b)
	}
	util := func(prefix string) float64 {
		wall := reg.Timer(prefix + "_wall").Total()
		if wall == 0 {
			return 0
		}
		return reg.Timer(prefix+"_worker_busy").Total().Seconds() / (wall.Seconds() * float64(workers))
	}
	depth := func(prefix string) float64 {
		h := reg.Hist(prefix + "_queue_depth")
		if h.Count() == 0 {
			return 0
		}
		return float64(h.Sum()) / float64(h.Count())
	}
	loads := count("campaign_uarch_golden_image_loaded_total") + count("campaign_vm_golden_image_loaded_total")
	saves := count("campaign_uarch_golden_image_saved_total") + count("campaign_vm_golden_image_saved_total")
	return map[string]float64{
		"inject.uarch.clone_pool_hit_ratio": share(count("campaign_uarch_clone_pool_hits_total"), count("campaign_uarch_clone_pool_misses_total")),
		"inject.uarch.worker_util":          util("campaign_uarch"),
		"inject.uarch.queue_depth_mean":     depth("campaign_uarch"),
		"inject.vm.mem_pool_hit_ratio":      share(count("campaign_vm_mem_pool_hits_total"), count("campaign_vm_mem_pool_misses_total")),
		"inject.vm.worker_util":             util("campaign_vm"),
		"inject.vm.queue_depth_mean":        depth("campaign_vm"),
		"ckptio.golden_hit_ratio":           share(loads, saves),
		"ckptio.golden_loads":               loads,
		"ckptio.golden_saves":               saves,
	}
}

// Probe sizes: enough repetitions that each timing is far above the clock's
// resolution, small enough that all probes take a few seconds.
const (
	warmupCycles = 10_000
	probeCycles  = 20_000
	probeHashes  = 5_000
	probeClones  = 20
	probeResets  = 200
	probeSteps   = 100_000
	probeCopies  = 50
)

// probe times single layers on the workload's own seed and programs, all
// seven of them. Each timing is the total over the programs divided by the
// total operation count.
func probe(c config, tr *tracer) ([]metric, error) {
	dir, err := os.MkdirTemp(c.workdir, "probe-")
	if err != nil {
		return nil, err
	}
	defer os.RemoveAll(dir)
	var t struct {
		gen, warm, cycle, hash, clone, reset, write, load, step, mclone, mcopy time.Duration
		cycles, steps                                                          uint64
		stored                                                                 int64
	}
	timed := func(d *time.Duration, f func()) {
		start := time.Now()
		f()
		*d += time.Since(start)
	}
	benches := workload.Benchmarks()
	for _, b := range benches {
		id := tr.begin("probe."+string(b), -1, -1)
		var prog *workload.Program
		timed(&t.gen, func() { prog, err = workload.Generate(b, workload.Config{Seed: c.seed}) })
		if err != nil {
			return nil, err
		}
		m, err := prog.NewMemory()
		if err != nil {
			return nil, err
		}
		p, err := pipeline.New(pipeline.DefaultConfig(), m, prog.Entry)
		if err != nil {
			return nil, err
		}
		p.SetDecodeCache(isa.NewDecodeCache(prog.CodeBase, prog.Code))
		timed(&t.warm, func() { p.RunCycles(warmupCycles) })
		timed(&t.cycle, func() { t.cycles += p.RunCycles(probeCycles) })
		var h uint64
		timed(&t.hash, func() {
			for k := 0; k < probeHashes; k++ {
				h ^= p.State().Hash()
			}
		})
		var f *pipeline.Pipeline
		timed(&t.clone, func() {
			for k := 0; k < probeClones; k++ {
				f = p.Clone()
			}
		})
		timed(&t.reset, func() {
			for k := 0; k < probeResets; k++ {
				f.ResetFrom(p)
			}
		})
		if err := probeGolden(&t.write, &t.load, &t.stored, dir, b, prog, p); err != nil {
			return nil, err
		}

		am, err := prog.NewMemory()
		if err != nil {
			return nil, err
		}
		sim := arch.New(am, prog.Entry)
		sim.DCache = isa.NewDecodeCache(prog.CodeBase, prog.Code)
		for k := 0; k < warmupCycles && !sim.Stopped(); k++ {
			sim.Step()
		}
		timed(&t.step, func() {
			for k := 0; k < probeSteps && !sim.Stopped(); k++ {
				sim.Step()
				t.steps++
			}
		})
		var fm = am
		timed(&t.mclone, func() {
			for k := 0; k < probeClones; k++ {
				fm = am.Clone()
			}
		})
		timed(&t.mcopy, func() {
			for k := 0; k < probeCopies; k++ {
				fm.CopyFrom(am)
			}
		})
		tr.end(id)
	}
	n := float64(len(benches))
	per := func(d time.Duration, count float64, unit time.Duration) float64 {
		return float64(d) / float64(unit) / count
	}
	return []metric{
		{name: "workload.generate_ms", value: per(t.gen, n, time.Millisecond)},
		{name: "pipeline.warmup_ms", value: per(t.warm, n, time.Millisecond)},
		{name: "pipeline.cycle_ns", value: per(t.cycle, float64(t.cycles), time.Nanosecond)},
		{name: "pipeline.hash_ns", value: per(t.hash, n*probeHashes, time.Nanosecond)},
		{name: "pipeline.clone_us", value: per(t.clone, n*probeClones, time.Microsecond)},
		{name: "pipeline.reset_from_us", value: per(t.reset, n*probeResets, time.Microsecond)},
		{name: "ckptio.golden_write_ms", value: per(t.write, n, time.Millisecond)},
		{name: "ckptio.golden_load_ms", value: per(t.load, n, time.Millisecond)},
		{name: "ckptio.golden_stored_bytes", value: float64(t.stored) / n},
		{name: "arch.step_ns", value: per(t.step, float64(t.steps), time.Nanosecond)},
		{name: "mem.clone_us", value: per(t.mclone, n*probeClones, time.Microsecond)},
		{name: "mem.restore_us", value: per(t.mcopy, n*probeCopies, time.Microsecond)},
	}, nil
}

// probeGolden writes the warmed pipeline's golden image, reads its frame
// sizes back through ckptio, and loads it into a fresh pipeline, which must
// then digest to the same state.
func probeGolden(write, load *time.Duration, stored *int64, dir string, b workload.Benchmark, prog *workload.Program, p *pipeline.Pipeline) error {
	path := filepath.Join(dir, string(b)+".golden")
	key := []byte("e2ebench probe " + string(b))
	start := time.Now()
	if _, err := p.WriteGoldenImage(path, key, 1); err != nil {
		return err
	}
	*write += time.Since(start)
	f, err := ckptio.Open(path)
	if err != nil {
		return err
	}
	for i := 0; i < f.Frames(); i++ {
		*stored += int64(f.FrameStoredLen(i))
	}
	if err := f.Close(); err != nil {
		return err
	}
	m, err := prog.NewMemory()
	if err != nil {
		return err
	}
	q, err := pipeline.New(pipeline.DefaultConfig(), m, prog.Entry)
	if err != nil {
		return err
	}
	start = time.Now()
	if err := q.LoadGoldenImage(path, key, 1); err != nil {
		return err
	}
	*load += time.Since(start)
	if q.State().Hash() != p.State().Hash() {
		return fmt.Errorf("%s: golden image restored a different state", b)
	}
	return nil
}
