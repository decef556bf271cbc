// Command restore-sim regenerates every table and figure of the ReStore
// paper's evaluation (Wang & Patel, DSN 2005) from the Go reproduction.
//
// Usage:
//
//	restore-sim [flags] <experiment>
//
// Experiments:
//
//	fig2          software-level fault injection (Section 3.1, Figure 2)
//	fig2-low32    low-32-bit injection variant (Section 3.1)
//	fig4          microarchitectural campaign, perfect detection (Figure 4)
//	fig4-latches  latch-only campaign (Section 5.1.2)
//	fig5          ReStore with JRS confidence (Figure 5)
//	fig5-perfect  oracle-confidence ablation (Section 5.2.1)
//	fig6          hardened (parity/ECC) pipeline + ReStore (Figure 6)
//	fig7          false-positive performance cost (Figure 7)
//	fig8          FIT scaling with design size (Figure 8)
//	summary       headline metrics: failure rates and MTBF gains
//	compare       ReStore vs full replication (DMR): coverage and cost
//	ablate-jrs    sweep the JRS confidence threshold (coverage vs cost)
//	ablate-ckpt   sweep the number of live checkpoints (reach vs cost)
//	vulnerability per-structure failure breakdown (AVF-style)
//	analyze       static bit-level ACE/AVF prediction per benchmark (no injection)
//	protect       derive budgeted protection policies from the static analysis
//	              and emit them as JSON with predicted coverage (no injection)
//	protect-compare
//	              measure the derived policies against the hand-picked
//	              parity/ECC placement at equal check-bit budget
//	budget-sweep  coverage vs check-bit budget for the static optimizer
//	demo          run the ReStore processor and print its activity report
//	all           everything above, in order
//
// Paper-scale campaigns take minutes; use -trials to scale them down,
// -workers to fan trials across CPUs (results are bit-identical to serial
// runs), and -progress for a live trial counter with an ETA.
//
// Durable campaigns: with -out <dir>, every injection campaign journals its
// completed trials under <dir> as it runs. Interrupting the process (ctrl-C
// or SIGTERM) drains in-flight trials, flushes the journal and exits;
// rerunning the identical command resumes where it left off and prints the
// same results a one-shot run would have. -shard k/n runs only every n-th
// trial (shard k of n, 1-based) so n machines can split a campaign; their
// -out directories are then combined with
//
//	restore-sim merge -out <merged-dir> <shard-dir-1> ... <shard-dir-n>
//
// and rerunning the experiment with -out <merged-dir> prints the full
// results without re-running any trial. See EXPERIMENTS.md for the on-disk
// format and the crash-consistency guarantees.
//
// -golden-image <dir> saves each campaign's warmed-up simulator state into
// <dir> on first run; reruns and shard workers restore the image instead of
// re-simulating the warm-up, with byte-identical results.
// -compress-journal writes fresh campaign journals with compressed segments.
// `restore-sim ckpt inspect <image>` prints a golden image's frame directory.
//
// Service mode: `restore-sim -root <dir> serve` runs the campaign service
// daemon — an HTTP job queue over the same durable-campaign machinery. Jobs
// are submitted, watched and cancelled with the submit/status/cancel/jobs
// client subcommands (or plain curl; see README.md). The queue is persistent:
// a killed daemon restarted on the same root resumes its jobs from their
// shard journals, and every merged result is byte-identical to a one-shot
// run of the same plan.
package main

import (
	"errors"
	"flag"
	"fmt"
	"net/http"
	_ "net/http/pprof" // registers profiling handlers on DefaultServeMux for -pprof
	"os"
	"os/signal"
	"path/filepath"
	"runtime"
	"strings"
	"sync"
	"sync/atomic"
	"syscall"
	"time"

	"repro/internal/campaignio"
	"repro/internal/ckptio"
	"repro/internal/experiments"
	"repro/internal/fit"
	"repro/internal/harden"
	"repro/internal/inject"
	"repro/internal/obs"
	"repro/internal/perf"
	"repro/internal/restore"
	"repro/internal/staticvuln"
	"repro/internal/stats"
	"repro/internal/workload"
)

func main() {
	if err := run(os.Args[1:]); err != nil {
		fmt.Fprintln(os.Stderr, "restore-sim:", err)
		os.Exit(1)
	}
}

type cli struct {
	opts     experiments.Options
	csv      bool
	interval uint64
	perBench bool
	budget   uint64
	budgets  string

	// campaigns are deterministic for fixed options, so `all` shares one
	// campaign across the figures that reclassify the same trials.
	campaignCache map[campaignKey]*experiments.UArchExperiment
}

type campaignKey struct {
	latchesOnly bool
	scheme      harden.Scheme
}

func run(args []string) error {
	fs := flag.NewFlagSet("restore-sim", flag.ContinueOnError)
	var (
		seed      = fs.Int64("seed", 42, "campaign seed")
		scale     = fs.Float64("scale", 1.0, "workload data-structure scale")
		trials    = fs.Float64("trials", 0.25, "campaign size factor (1.0 = paper scale)")
		benches   = fs.String("bench", "", "comma-separated benchmark subset (default: all seven)")
		csv       = fs.Bool("csv", false, "emit CSV instead of aligned tables")
		interval  = fs.Uint64("interval", 100, "checkpoint interval for summary metrics")
		perBench  = fs.Bool("perbench", false, "append per-benchmark breakdowns")
		workers   = fs.Int("workers", 0, "goroutines per campaign (0 = serial, -1 = all CPUs); results are identical either way")
		progress  = fs.Bool("progress", false, "print a live trial counter with ETA to stderr")
		metrics   = fs.String("metrics", "", "write campaign/pipeline telemetry to this file after the run (.json, .csv, else Prometheus text); results are identical either way")
		pprof     = fs.String("pprof", "", "serve net/http/pprof on this address (e.g. localhost:6060) for live profiling")
		out       = fs.String("out", "", "campaign directory: journal completed trials under this directory and resume from it on rerun; results are identical either way")
		shard     = fs.String("shard", "", "run shard k/n of every campaign (1-based, e.g. 1/4); requires -out, combine shard directories with the merge subcommand")
		stopAfter = fs.Int("stop-after", 0, "interrupt the run after this many trial completions (deterministic stand-in for ctrl-C; mainly for tests and CI)")
		golden    = fs.String("golden-image", "", "golden-image directory: the first run of each campaign saves its warmed-up state under this directory, reruns and shards restore it instead of re-simulating the warm-up; results are identical either way")
		compress  = fs.Bool("compress-journal", false, "write fresh campaign journals with compressed segments (needs -out; an existing journal keeps the framing it was created with)")
		budget    = fs.Uint64("budget", 0, "check-bit budget for the protect subcommand (0 = the hand-picked placement's overhead)")
		budgets   = fs.String("budgets", "", "comma-separated check-bit budgets for budget-sweep (default 0,416,832,1664,3328,6656)")
		sroot     = fs.String("root", "", "campaign service root directory (the serve daemon and its submit/status/cancel/jobs clients)")
		addr      = fs.String("addr", "", "serve: listen address (default 127.0.0.1:0); clients: daemon address (default: discover via <root>/serve.addr)")
		maxShards = fs.Int("max-shards", 2, "serve: shard simulations run concurrently across all jobs")
		shards    = fs.Int("shards", 1, "submit: split every campaign into this many shard journals, merged when the job completes")
		wait      = fs.Bool("wait", false, "submit/status: follow the job until it finishes")
	)
	fs.Usage = func() {
		fmt.Fprintf(fs.Output(), "usage: restore-sim [flags] <experiment>\n")
		fmt.Fprintf(fs.Output(), "       restore-sim merge -out <merged-dir> <shard-dir>...\n")
		fmt.Fprintf(fs.Output(), "       restore-sim ckpt inspect <image>\n")
		fmt.Fprintf(fs.Output(), "       restore-sim -root <dir> serve\n")
		fmt.Fprintf(fs.Output(), "       restore-sim -root <dir> [flags] submit <experiment>\n")
		fmt.Fprintf(fs.Output(), "       restore-sim -root <dir> {status|cancel} <job-id> | jobs\n\n")
		fmt.Fprintf(fs.Output(), "experiments: fig2 fig2-low32 fig4 fig4-latches fig5 fig5-perfect fig6 fig7 fig8 summary compare ablate-jrs ablate-ckpt vulnerability analyze protect protect-compare budget-sweep demo all\n\n")
		fs.PrintDefaults()
	}
	if err := fs.Parse(args); err != nil {
		return err
	}
	if fs.Arg(0) == "ckpt" {
		if fs.NArg() != 3 || fs.Arg(1) != "inspect" {
			return fmt.Errorf("usage: restore-sim ckpt inspect <image>")
		}
		return inspectImage(fs.Arg(2))
	}
	if fs.Arg(0) == "merge" {
		if *out == "" {
			return fmt.Errorf("merge requires -out <merged-dir>")
		}
		if fs.NArg() < 2 {
			return fmt.Errorf("usage: restore-sim merge -out <merged-dir> <shard-dir>...")
		}
		return mergeRoots(*out, fs.Args()[1:])
	}
	switch fs.Arg(0) {
	case "serve":
		if fs.NArg() != 1 {
			return fmt.Errorf("usage: restore-sim -root <dir> [-addr host:port] [-max-shards n] serve")
		}
		return runServe(*sroot, *addr, *maxShards, *workers)
	case "submit":
		if fs.NArg() != 2 {
			return fmt.Errorf("usage: restore-sim -root <dir> [flags] submit <experiment>")
		}
		return runSubmit(*sroot, *addr, fs.Arg(1), *benches, *seed, *scale, *trials,
			*shards, *workers, *compress, *wait)
	case "status":
		if fs.NArg() != 2 {
			return fmt.Errorf("usage: restore-sim -root <dir> [-wait] status <job-id>")
		}
		return runStatus(*sroot, *addr, fs.Arg(1), *wait)
	case "cancel":
		if fs.NArg() != 2 {
			return fmt.Errorf("usage: restore-sim -root <dir> cancel <job-id>")
		}
		return runCancel(*sroot, *addr, fs.Arg(1))
	case "jobs":
		if fs.NArg() != 1 {
			return fmt.Errorf("usage: restore-sim -root <dir> jobs")
		}
		return runJobs(*sroot, *addr)
	}
	if fs.NArg() != 1 {
		fs.Usage()
		return fmt.Errorf("exactly one experiment required")
	}
	shardIndex, shardCount := 0, 0
	if *shard != "" {
		var k, n int
		if _, err := fmt.Sscanf(*shard, "%d/%d", &k, &n); err != nil ||
			fmt.Sprintf("%d/%d", k, n) != *shard || k < 1 || k > n {
			return fmt.Errorf("invalid -shard %q (want k/n with 1 <= k <= n)", *shard)
		}
		if *out == "" {
			return fmt.Errorf("-shard requires -out: shards journal their trials into the campaign directory")
		}
		shardIndex, shardCount = k-1, n
	}

	if *workers < 0 {
		*workers = runtime.NumCPU()
	}
	c := &cli{
		opts: experiments.Options{
			Seed:            *seed,
			Scale:           *scale,
			TrialFactor:     *trials,
			Workers:         *workers,
			CampaignRoot:    *out,
			ShardIndex:      shardIndex,
			ShardCount:      shardCount,
			GoldenImageRoot: *golden,
			CompressJournal: *compress,
		},
		csv:      *csv,
		interval: *interval,
		perBench: *perBench,
		budget:   *budget,
		budgets:  *budgets,
	}
	if *progress {
		c.opts.Progress = (&progressMeter{}).tick
	}

	// One stop channel serves both interruption sources: a signal (when the
	// run is durable there is something worth flushing) and the
	// deterministic -stop-after trial counter. Campaigns drain in-flight
	// trials, flush their journal and return inject.ErrInterrupted.
	stop := make(chan struct{})
	var stopOnce sync.Once
	stopCampaigns := func() { stopOnce.Do(func() { close(stop) }) }
	if *out != "" || *stopAfter > 0 {
		c.opts.Interrupt = stop
	}
	if *out != "" {
		sigc := make(chan os.Signal, 2)
		signal.Notify(sigc, os.Interrupt, syscall.SIGTERM)
		defer signal.Stop(sigc)
		go watchInterrupts(sigc, stopCampaigns, forceExit)
	}
	if *stopAfter > 0 {
		inner := c.opts.Progress
		var ticks int64
		limit := int64(*stopAfter)
		c.opts.Progress = func(done, total int) {
			if atomic.AddInt64(&ticks, 1) >= limit {
				stopCampaigns()
			}
			if inner != nil {
				inner(done, total)
			}
		}
	}
	if *benches != "" {
		for _, name := range strings.Split(*benches, ",") {
			c.opts.Benchmarks = append(c.opts.Benchmarks, workload.Benchmark(strings.TrimSpace(name)))
		}
	}
	if *pprof != "" {
		go func() {
			// DefaultServeMux carries the net/http/pprof handlers.
			if err := http.ListenAndServe(*pprof, nil); err != nil {
				fmt.Fprintln(os.Stderr, "restore-sim: pprof:", err)
			}
		}()
	}
	var reg *obs.Registry
	if *metrics != "" {
		reg = obs.NewRegistry()
		c.opts.Obs = reg
	}

	var err error
	if shardCount > 0 {
		err = c.runShard(fs.Arg(0))
		if err == nil {
			fmt.Printf("shard %s of %q complete; journals under %s\n", *shard, fs.Arg(0), *out)
			fmt.Printf("combine with: restore-sim merge -out <merged-dir> <all %d shard dirs>\n", shardCount)
		}
	} else {
		err = c.dispatch(fs, fs.Arg(0))
	}
	if errors.Is(err, inject.ErrInterrupted) {
		if *out != "" {
			fmt.Fprintf(os.Stderr, "restore-sim: interrupted; completed trials are journalled under %s — rerun the same command to resume\n", *out)
		} else {
			fmt.Fprintln(os.Stderr, "restore-sim: interrupted (no -out directory, completed trials were discarded)")
		}
		return nil
	}
	if err != nil {
		return err
	}
	if reg != nil {
		if err := reg.Snapshot().WriteFile(*metrics); err != nil {
			return fmt.Errorf("writing metrics: %w", err)
		}
	}
	return nil
}

// watchInterrupts implements the two-level interruption protocol shared by
// durable runs and the service daemon. The first signal asks the campaigns
// to drain: in-flight trials finish, journals flush, the process exits
// through the normal ErrInterrupted path. A second signal means the user
// will not wait for the drain: the completed-trial records already buffered
// are flushed to the journals and the process exits immediately. A closed
// channel (signal.Stop on the way out) ends the watcher either way.
func watchInterrupts(sigc <-chan os.Signal, drain, force func()) {
	if _, ok := <-sigc; !ok {
		return
	}
	fmt.Fprintln(os.Stderr, "\nrestore-sim: draining in-flight trials and flushing journals (signal again to force exit)...")
	drain()
	if _, ok := <-sigc; !ok {
		return
	}
	force()
}

// exitFn is swapped out by tests that exercise the forced-exit path.
var exitFn = os.Exit

// forceExit flushes every open campaign journal's completed records and
// terminates with the conventional fatal-signal status. Journals stay
// crash-consistent: the flushed records are exactly what a resumed run
// recovers, and anything in flight re-runs then.
func forceExit() {
	fmt.Fprintln(os.Stderr, "restore-sim: forced exit; journalled trials are flushed, in-flight trials will re-run on resume")
	if err := inject.FlushJournals(); err != nil {
		fmt.Fprintln(os.Stderr, "restore-sim: journal flush:", err)
	}
	exitFn(130)
}

// runShard runs one shard of a campaign experiment. Only the raw campaigns
// can shard: derived experiments (fig8, summary, ...) need the full trial set
// and are produced from the merged directory instead. Partial per-shard
// tables would be misleading, so a shard run prints a completion notice
// rather than results.
func (c *cli) runShard(experiment string) error {
	return experiments.RunShardable(experiment, c.opts)
}

// mergeRoots combines the campaign directories journalled by sharded runs
// (campaignio.MergeRoots; each root is the -out directory of one shard) and
// reports what each merged campaign holds.
func mergeRoots(outRoot string, roots []string) error {
	ids, err := campaignio.MergeRoots(outRoot, roots)
	if err != nil {
		return err
	}
	for _, id := range ids {
		dir := filepath.Join(outRoot, id)
		man, err := campaignio.ReadManifest(dir)
		if err != nil {
			return err
		}
		scan, err := campaignio.ScanJournal(dir, man.Slots)
		if err != nil {
			return err
		}
		fmt.Printf("merged %s: %d/%d slots from %d shards\n", id, len(scan.Records), man.Slots, len(roots))
	}
	fmt.Printf("rerun any merged experiment with -out %s to print its full results\n", outRoot)
	return nil
}

// inspectImage prints the frame directory of a ckptio container (golden
// images or any other RSTCKPT1 file): per-frame style, buffer count and
// plain/stored sizes, plus the identification string when frame 0 carries
// one. Only frame 0 is ever decoded, so inspection of a multi-gigabyte image
// stays cheap.
func inspectImage(path string) error {
	f, err := ckptio.Open(path)
	if err != nil {
		return err
	}
	defer f.Close()
	fmt.Printf("%s: %d frames\n\n", path, f.Frames())
	fmt.Printf("%5s  %-5s %8s %12s %12s %7s\n", "frame", "style", "buffers", "plain", "stored", "ratio")
	var plain, stored int64
	for i := 0; i < f.Frames(); i++ {
		style := "raw"
		if f.FrameStyle(i) == ckptio.StyleFlate {
			style = "flate"
		}
		p, s := f.FramePlainLen(i), f.FrameStoredLen(i)
		plain += int64(p)
		stored += int64(s)
		ratio := 1.0
		if p > 0 {
			ratio = float64(s) / float64(p)
		}
		fmt.Printf("%5d  %-5s %8d %12d %12d %7.2f\n", i, style, f.FrameBuffers(i), p, s, ratio)
	}
	ratio := 1.0
	if plain > 0 {
		ratio = float64(stored) / float64(plain)
	}
	fmt.Printf("\ntotal: %d plain bytes, %d stored (ratio %.2f)\n", plain, stored, ratio)
	if f.Frames() > 0 && f.FrameBuffers(0) == 1 {
		if bufs, err := f.ReadFrame(0); err == nil && printableMeta(bufs[0]) {
			fmt.Printf("meta: %s\n", bufs[0])
		}
	}
	return nil
}

// printableMeta reports whether a frame-0 buffer looks like an
// identification string worth printing verbatim.
func printableMeta(b []byte) bool {
	if len(b) == 0 || len(b) > 1024 {
		return false
	}
	for _, c := range b {
		if c < 0x20 || c > 0x7e {
			return false
		}
	}
	return true
}

func (c *cli) dispatch(fs *flag.FlagSet, experiment string) error {
	switch experiment {
	case "fig2":
		return c.fig2(false)
	case "fig2-low32":
		return c.fig2(true)
	case "fig4":
		return c.fig4(false)
	case "fig4-latches":
		return c.fig4(true)
	case "fig5":
		return c.fig5(inject.DetectorJRS, "Figure 5: ReStore coverage with JRS confidence vs checkpoint interval")
	case "fig5-perfect":
		return c.fig5(inject.DetectorOracleConfidence, "Section 5.2.1 ablation: perfect confidence predictor")
	case "fig6":
		return c.fig6()
	case "fig7":
		return c.fig7()
	case "fig8":
		return c.fig8()
	case "summary":
		return c.summary()
	case "compare":
		return c.compare()
	case "ablate-jrs":
		return c.ablateJRS()
	case "ablate-ckpt":
		return c.ablateCheckpoints()
	case "vulnerability":
		return c.vulnerability()
	case "analyze":
		return c.analyze()
	case "protect":
		return c.protectPolicies()
	case "protect-compare":
		return c.protectCompare()
	case "budget-sweep":
		return c.budgetSweep()
	case "demo":
		return c.demo()
	case "all":
		return c.all()
	default:
		fs.Usage()
		return fmt.Errorf("unknown experiment %q", experiment)
	}
}

// progressMeter renders a throttled single-line trial counter with an ETA on
// stderr. Campaigns report per-trial completions — from worker goroutines
// when -workers is set — so ticks are serialised under a mutex. Each campaign
// counts its own trials; the meter restarts its clock when a new campaign's
// first tick arrives.
type progressMeter struct {
	mu    sync.Mutex
	start time.Time
	last  time.Time
	prev  int
}

func (p *progressMeter) tick(done, total int) {
	p.mu.Lock()
	defer p.mu.Unlock()
	now := time.Now()
	if p.start.IsZero() || done < p.prev {
		p.start = now
		p.last = time.Time{}
	}
	p.prev = done
	if done < total && now.Sub(p.last) < 200*time.Millisecond {
		return
	}
	p.last = now
	line := fmt.Sprintf("\r%d/%d trials (%.0f%%)", done, total, 100*float64(done)/float64(total))
	if elapsed := now.Sub(p.start); done > 0 && done < total && elapsed > time.Second {
		eta := time.Duration(float64(elapsed) * float64(total-done) / float64(done))
		line += fmt.Sprintf("  eta %s", eta.Round(time.Second))
	}
	fmt.Fprintf(os.Stderr, "%-48s", line)
	if done >= total {
		fmt.Fprintln(os.Stderr)
		p.start = time.Time{}
		p.prev = 0
	}
}

// benchList returns the benchmarks this run covers, in suite order.
func (c *cli) benchList() []workload.Benchmark {
	if len(c.opts.Benchmarks) > 0 {
		return c.opts.Benchmarks
	}
	return workload.Benchmarks()
}

func (c *cli) emit(t *stats.StackedTable) {
	if c.csv {
		fmt.Print(t.RenderCSV())
		return
	}
	fmt.Print(t.Render())
}

func (c *cli) fig2(low32 bool) error {
	res, err := experiments.Fig2(c.opts, low32)
	if err != nil {
		return err
	}
	c.emit(res.Table)
	n := len(res.AllTrials)
	masked := res.Table.Cell("masked", "25")
	fmt.Printf("\ntrials: %d  masked: %.1f%%  (95%% CI margin ≤ %.2f%%; paper: ~59%% masked)\n",
		n, 100*masked, 100*stats.WorstCaseMargin95(n))
	if c.perBench {
		fmt.Printf("\n%-10s %8s %10s %8s\n", "benchmark", "masked", "exc@100", "cfv@100")
		for _, bench := range c.benchList() {
			r, ok := res.PerBench[bench]
			if !ok {
				continue
			}
			d := r.Distribution(100)
			fmt.Printf("%-10s %7.1f%% %9.1f%% %7.1f%%\n", bench,
				100*r.MaskedFraction(), 100*d["exception"], 100*d["cfv"])
		}
	}
	return nil
}

func (c *cli) campaign(latchesOnly bool, scheme harden.Scheme) (*experiments.UArchExperiment, error) {
	key := campaignKey{latchesOnly: latchesOnly, scheme: scheme}
	if exp, ok := c.campaignCache[key]; ok {
		return exp, nil
	}
	exp, err := experiments.Campaign(c.opts, experiments.CampaignConfig{
		LatchesOnly: latchesOnly,
		Harden:      scheme,
	})
	if err != nil {
		return nil, err
	}
	if c.campaignCache == nil {
		c.campaignCache = make(map[campaignKey]*experiments.UArchExperiment)
	}
	c.campaignCache[key] = exp
	return exp, nil
}

func (c *cli) fig4(latchesOnly bool) error {
	exp, err := c.campaign(latchesOnly, harden.None)
	if err != nil {
		return err
	}
	title := "Figure 4: soft error propagation vs checkpoint interval (perfect cfv detection)"
	if latchesOnly {
		title = "Section 5.1.2: latch-only injection vs checkpoint interval (perfect cfv detection)"
	}
	c.emit(exp.Table(title, inject.DetectorPerfect))
	c.coverageFooter(exp, inject.DetectorPerfect)
	return nil
}

func (c *cli) fig5(det inject.Detector, title string) error {
	exp, err := c.campaign(false, harden.None)
	if err != nil {
		return err
	}
	c.emit(exp.Table(title, det))
	c.coverageFooter(exp, det)
	return nil
}

func (c *cli) fig6() error {
	exp, err := c.campaign(false, harden.LowHangingFruit)
	if err != nil {
		return err
	}
	c.emit(exp.Table("Figure 6: ReStore coverage in the hardened (parity/ECC) pipeline", inject.DetectorJRS))
	c.coverageFooter(exp, inject.DetectorJRS)
	// The geometry is identical across benchmarks; report the first.
	bench := c.benchList()[0]
	r := exp.PerBench[bench]
	fmt.Printf("%s: protection covers %.1f%% of state bits, overhead %.1f%%\n",
		bench, 100*r.HardenStats.CoveredFraction(), 100*r.HardenStats.OverheadFraction())
	return nil
}

func (c *cli) coverageFooter(exp *experiments.UArchExperiment, det inject.Detector) {
	n := len(exp.AllTrials)
	fmt.Printf("\ntrials: %d  (95%% CI margin ≤ %.2f%%)\n", n, 100*stats.WorstCaseMargin95(n))
	fmt.Printf("failure rate: baseline %.2f%%", 100*exp.RawFailureRate())
	for _, iv := range []uint64{25, 100, 500, 2000} {
		fmt.Printf("  @%d: %.2f%%", iv, 100*exp.FailureRateAt(iv, det))
	}
	fmt.Println()
	if c.perBench {
		fmt.Printf("\n%-10s %8s %10s %10s\n", "benchmark", "trials", "baseline", "@interval")
		for _, bench := range c.benchList() {
			r, ok := exp.PerBench[bench]
			if !ok {
				continue
			}
			fmt.Printf("%-10s %8d %9.2f%% %9.2f%%\n", bench, len(r.Trials),
				100*inject.RawFailureRate(r.Trials),
				100*inject.FailureRate(r.Trials, c.interval, det))
		}
	}
}

func (c *cli) fig7() error {
	res, err := experiments.Fig7(c.opts)
	if err != nil {
		return err
	}
	fmt.Print(res.Table)
	fmt.Printf("\nmodel inputs (suite mean): baseCPI=%.3f replayCPI=%.3f symptomRate=%.5f flush=%.1f\n",
		res.Mean.BaseCPI, res.Mean.ReplayCPI, res.Mean.SymptomRate, res.Mean.FlushPenalty)
	fmt.Println("(paper: ~6% slowdown at a 100-instruction interval; delayed wins beyond ~500)")
	return nil
}

func (c *cli) fig8() error {
	plain, err := c.campaign(false, harden.None)
	if err != nil {
		return err
	}
	hardened, err := c.campaign(false, harden.LowHangingFruit)
	if err != nil {
		return err
	}
	res := experiments.Fig8(plain, hardened, c.interval)
	fmt.Print(res.Table)
	fmt.Printf("\nMTBF improvement over baseline: ReStore %.1fx, lhf %.1fx, lhf+ReStore %.1fx (paper: 2x / - / 7x)\n",
		res.Improvements[fit.ReStore], res.Improvements[fit.LHF], res.Improvements[fit.LHFReStore])
	goal := res.GoalFIT
	fmt.Printf("largest design meeting the 1000-year goal (%.0f FIT): baseline %.0f bits, lhf+ReStore %.0f bits\n",
		goal, res.Model.MaxSizeMeetingGoal(fit.Baseline, goal),
		res.Model.MaxSizeMeetingGoal(fit.LHFReStore, goal))
	return nil
}

func (c *cli) summary() error {
	plain, err := c.campaign(false, harden.None)
	if err != nil {
		return err
	}
	hardened, err := c.campaign(false, harden.LowHangingFruit)
	if err != nil {
		return err
	}
	s := experiments.Summarize(plain, hardened, c.interval)
	fmt.Printf("ReStore headline metrics at a %d-instruction checkpoint interval\n", c.interval)
	fmt.Printf("  (trials: %d plain + %d hardened)\n\n", len(plain.AllTrials), len(hardened.AllTrials))
	fmt.Printf("  %-28s %8s %10s\n", "configuration", "failure", "paper")
	fmt.Printf("  %-28s %7.2f%% %10s\n", "baseline", 100*s.BaselineFailureRate, "~7%")
	fmt.Printf("  %-28s %7.2f%% %10s\n", "ReStore (JRS)", 100*s.ReStoreFailureRate, "~3.5%")
	fmt.Printf("  %-28s %7.2f%% %10s\n", "lhf (parity/ECC)", 100*s.LHFFailureRate, "~3%")
	fmt.Printf("  %-28s %7.2f%% %10s\n", "lhf+ReStore", 100*s.CombinedFailureRate, "~1%")
	fmt.Printf("\n  MTBF gain: ReStore %.1fx (paper ~2x), lhf+ReStore %.1fx (paper ~7x)\n",
		s.ReStoreMTBFGain, s.CombinedMTBFGain)
	return nil
}

// compare contrasts ReStore's on-demand redundancy with full replication
// (the paper's Section 1/6 framing: the IBM G5 duplicated its execution
// pipeline for maximal coverage; ReStore trades some coverage for near-zero
// cost).
func (c *cli) compare() error {
	exp, err := c.campaign(false, harden.None)
	if err != nil {
		return err
	}
	f7, err := experiments.Fig7(c.opts)
	if err != nil {
		return err
	}
	iv := c.interval
	base := exp.RawFailureRate()
	cov := func(det inject.Detector) float64 {
		if base == 0 {
			return 0
		}
		return 1 - exp.FailureRateAt(iv, det)/base
	}
	speedup := perf.Speedup(f7.Mean, iv, restore.PolicyImmediate)

	fmt.Printf("detection schemes at a %d-instruction checkpoint interval (%d trials)\n\n", iv, len(exp.AllTrials))
	fmt.Printf("  %-26s %10s %12s %12s\n", "scheme", "coverage", "perf cost", "extra core")
	fmt.Printf("  %-26s %9.1f%% %12s %12s\n", "none (baseline)", 0.0, "0%", "none")
	fmt.Printf("  %-26s %9.1f%% %11.1f%% %12s\n", "ReStore (JRS symptoms)",
		100*cov(inject.DetectorJRS), 100*(1-speedup), "none")
	fmt.Printf("  %-26s %9.1f%% %11.1f%% %12s\n", "ReStore (perfect cfv)",
		100*cov(inject.DetectorPerfect), 100*(1-speedup), "none")
	fmt.Printf("  %-26s %9.1f%% %12s %12s\n", "full replication (DMR)",
		100*cov(inject.DetectorDMR), "~0%*", "2x pipeline")
	fmt.Println("\n  (*) replicated cores run in parallel; the cost is silicon and power,")
	fmt.Println("      not cycles — exactly the trade the paper's Section 1 motivates.")
	fmt.Printf("\nresidual failure rates: baseline %.2f%%, ReStore %.2f%%, DMR %.2f%%\n",
		100*base, 100*exp.FailureRateAt(iv, inject.DetectorJRS),
		100*exp.FailureRateAt(iv, inject.DetectorDMR))
	return nil
}

func (c *cli) ablateJRS() error {
	opts := c.opts
	if len(opts.Benchmarks) == 0 {
		opts.Benchmarks = experiments.AblationBenchmarks()
	}
	res, err := experiments.AblateJRS(opts, nil, c.interval)
	if err != nil {
		return err
	}
	fmt.Print(res.Render())
	fmt.Println("(lower thresholds flag more mispredictions as high confidence:")
	fmt.Println(" more coverage, more false-positive rollbacks — Section 3.2.2's trade-off)")
	return nil
}

func (c *cli) ablateCheckpoints() error {
	exp, err := c.campaign(false, harden.None)
	if err != nil {
		return err
	}
	f7, err := experiments.Fig7(c.opts)
	if err != nil {
		return err
	}
	res := experiments.AblateCheckpoints(exp, f7.Mean, c.interval, nil)
	fmt.Print(res.Render())
	fmt.Println("(each extra live checkpoint extends the guaranteed rollback reach by one")
	fmt.Println(" interval but lengthens the mean re-execution after every rollback)")
	return nil
}

func (c *cli) vulnerability() error {
	exp, err := c.campaign(false, harden.None)
	if err != nil {
		return err
	}
	rep := inject.VulnerabilityReport(exp.AllTrials, c.interval, inject.DetectorPerfect)
	fmt.Print(inject.RenderVulnerability(rep, c.interval))
	fmt.Println("\n(the structures at the top are where the low-hanging-fruit parity/ECC")
	fmt.Println(" placement of Section 5.2.2 pays off; compare with `fig6`)")
	return nil
}

// analyze runs the static ACE/AVF analysis (no fault injection) over each
// benchmark and prints per-program reports plus a suite summary comparable to
// fig2's measured distribution.
func (c *cli) analyze() error {
	fmt.Println("static bit-level vulnerability analysis (ACE/AVF prediction, no injection)")
	fmt.Printf("seed %d, scale %g\n\n", c.opts.Seed, c.opts.Scale)
	type row struct {
		bench  workload.Benchmark
		masked float64
		fr     map[staticvuln.Symptom]float64
	}
	var rows []row
	for _, bench := range c.benchList() {
		prog, err := workload.Generate(bench, workload.Config{Seed: c.opts.Seed, Scale: c.opts.Scale})
		if err != nil {
			return err
		}
		rep, err := staticvuln.Analyze(prog, staticvuln.Options{})
		if err != nil {
			return fmt.Errorf("analyze %s: %w", bench, err)
		}
		fmt.Print(rep.Render(false))
		fmt.Println()
		rows = append(rows, row{bench, rep.MaskedFraction(false), rep.SymptomFractions(false)})
	}
	fmt.Printf("%-10s %8s %10s %8s %8s %10s\n",
		"benchmark", "masked", "exception", "cfv", "mem", "register")
	for _, r := range rows {
		fmt.Printf("%-10s %7.1f%% %9.1f%% %7.1f%% %7.1f%% %9.1f%%\n", r.bench,
			100*r.masked, 100*r.fr[staticvuln.SymException], 100*r.fr[staticvuln.SymCFV],
			100*r.fr[staticvuln.SymMem], 100*r.fr[staticvuln.SymRegister])
	}
	fmt.Println("\n(predictions follow the fig2 injection model: uniform flips of result")
	fmt.Println(" bits; compare the masked column against `fig2 -perbench`)")
	return nil
}

func (c *cli) demo() error {
	bench := workload.MCF
	if len(c.opts.Benchmarks) > 0 {
		bench = c.opts.Benchmarks[0]
	}
	rep, err := experiments.MeasureRestoreRun(bench, c.opts.Seed, 200_000, restore.Config{
		Interval: c.interval,
		Obs:      c.opts.Obs,
	})
	if err != nil {
		return err
	}
	fmt.Printf("ReStore processor on %s (%d instructions, interval %d):\n", bench, rep.Retired, c.interval)
	fmt.Printf("  cycles            %d (IPC %.2f)\n", rep.Cycles, float64(rep.Retired)/float64(rep.Cycles))
	fmt.Printf("  checkpoints       %d\n", rep.Checkpoints)
	fmt.Printf("  rollbacks         %d\n", rep.Rollbacks)
	fmt.Printf("  branch symptoms   %d (false positives %d, muted %d)\n",
		rep.BranchSymptoms, rep.FalsePositives, rep.MutedSymptoms)
	fmt.Printf("  exception/deadlock symptoms %d/%d\n", rep.ExceptionSymptoms, rep.DeadlockSymptoms)
	fmt.Printf("  detected errors   %d, vanished symptoms %d\n", rep.DetectedErrors, rep.VanishedSymptoms)
	return nil
}

func (c *cli) all() error {
	steps := []func() error{
		func() error { return c.fig2(false) },
		func() error { return c.fig2(true) },
		func() error { return c.fig4(false) },
		func() error { return c.fig4(true) },
		func() error {
			return c.fig5(inject.DetectorJRS, "Figure 5: ReStore coverage with JRS confidence vs checkpoint interval")
		},
		func() error {
			return c.fig5(inject.DetectorOracleConfidence, "Section 5.2.1 ablation: perfect confidence predictor")
		},
		c.fig6,
		c.fig7,
		c.fig8,
		c.summary,
		c.compare,
		c.analyze,
		c.protectPolicies,
		c.protectCompare,
		c.budgetSweep,
	}
	for i, step := range steps {
		if i > 0 {
			fmt.Println("\n" + strings.Repeat("=", 78) + "\n")
		}
		if err := step(); err != nil {
			return err
		}
	}
	return nil
}
