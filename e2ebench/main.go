// Command e2ebench is the repository's end-to-end campaign benchmark. One
// process runs one workload for one seed: it times the workload with
// tracing off, checks every output, and prints each metric by name with its
// unit. The last line of standard output is a JSON summary. With --trace 1
// it also runs the workload traced, probes the layers underneath, writes
// the spans to a file and reports the per-layer metrics instead.
//
// See README.md for the workloads, the metric definitions and the map from
// layer metrics to the end-to-end metrics they should move.
package main

import (
	"bufio"
	"bytes"
	"encoding/json"
	"errors"
	"flag"
	"fmt"
	"io"
	"math"
	"os"
	"os/exec"
	"path/filepath"
	"runtime"
	"sort"
	"strconv"
	"strings"
	"time"

	"repro/internal/obs"
)

func main() { os.Exit(run(os.Args[1:], os.Stdout, os.Stderr)) }

// config is the parsed command line.
type config struct {
	workload     string
	seed         int64
	seconds      float64
	trace        bool
	tiny         bool
	workdir      string
	expectDigest string
	setupProbe   bool
	workers      int
}

// engineWorkers is the engine goroutine count of each campaign the workload
// runs: the daemon's shards are serial.
func (c config) engineWorkers() int {
	if c.workload == "daemon-jobs" || c.workers < 1 {
		return 1
	}
	return c.workers
}

// setupSamples is the number of fresh processes timed for setup_s.
func (c config) setupSamples() int {
	if c.tiny {
		return 2
	}
	return 9
}

func parseFlags(args []string, stderr io.Writer) (config, error) {
	fs := flag.NewFlagSet("e2ebench", flag.ContinueOnError)
	fs.SetOutput(stderr)
	var c config
	var trace int
	var size string
	fs.StringVar(&c.workload, "workload", "", "workload to run: "+strings.Join(workloadNames, ", "))
	fs.Int64Var(&c.seed, "seed", 42, "workload seed (0 means the program default, 42)")
	fs.Float64Var(&c.seconds, "seconds", 15, "minimum length of the timed phase, in seconds")
	fs.IntVar(&trace, "trace", 0, "1 reports per-layer metrics from a traced run, 0 reports end-to-end metrics")
	fs.StringVar(&size, "size", "paper", "paper, or tiny for the benchmark's own test")
	fs.StringVar(&c.workdir, "workdir", filepath.Join(".bench_build", "e2ebench"), "directory for daemon roots, golden images and span files")
	fs.StringVar(&c.expectDigest, "expect-digest", "", "expected digest of operation 0, replacing the recorded one")
	fs.IntVar(&c.workers, "workers", 2, "engine goroutines of each in-memory campaign (0 = the serial engine)")
	fs.BoolVar(&c.setupProbe, "setup-probe", false, "time one set-up in this process, print it and exit")
	if err := fs.Parse(args); err != nil {
		return c, err
	}
	switch {
	case !knownWorkload(c.workload):
		return c, fmt.Errorf("unknown workload %q (have %s)", c.workload, strings.Join(workloadNames, ", "))
	case c.seed < 0:
		return c, fmt.Errorf("negative seed %d", c.seed)
	case trace != 0 && trace != 1:
		return c, fmt.Errorf("--trace must be 0 or 1")
	case size != "paper" && size != "tiny":
		return c, fmt.Errorf("--size must be paper or tiny")
	case c.seconds <= 0 || c.workers < 0:
		return c, fmt.Errorf("--seconds must be positive and --workers not negative")
	}
	if c.seed == 0 {
		c.seed = 42
	}
	c.trace, c.tiny = trace == 1, size == "tiny"
	return c, nil
}

// metric is one reported number.
type metric struct {
	name  string
	unit  string
	value float64
}

// endToEndUnits lists the end-to-end metrics, with their units, in report
// order. BENCHMARK.json names the same set.
var endToEndUnits = []metric{
	{name: "trials_per_s", unit: "1/s"},
	{name: "setup_s", unit: "s"},
	{name: "alloc_bytes_per_trial", unit: "bytes"},
	{name: "peak_rss_mb", unit: "MB"},
	{name: "job_latency_p50_s", unit: "s"},
	{name: "job_latency_p90_s", unit: "s"},
}

// op is one timed operation: a campaign call or a daemon job.
type op struct {
	name    string // the campaign's benchmark and seed, or the job's spec key
	latency time.Duration
	trials  int    // trials the operation produced, counted by check
	digest  string // digest of its outputs, filled by check
	failure string // why it failed; empty when it succeeded
}

// phase is one timed loop over a workload's operations.
type phase struct {
	ops     []op
	elapsed time.Duration
	alloc   uint64  // Go heap bytes allocated during the loop
	peakRSS float64 // the process's VmHWM at the end of the loop, MB
}

func (p *phase) trials() int {
	n := 0
	for _, o := range p.ops {
		n += o.trials
	}
	return n
}

func (p *phase) failed() int {
	n := 0
	for _, o := range p.ops {
		if o.failure != "" {
			n++
		}
	}
	return n
}

func (p *phase) trialsPerSecond() float64 {
	return float64(p.trials()) / p.elapsed.Seconds()
}

// scenario is one benchmark workload.
type scenario interface {
	// setup prepares everything the first timed operation needs. Traced
	// phases pass a registry and a tracer; untraced ones pass nils.
	setup(reg *obs.Registry, tr *tracer) error
	// run executes operation i of the phase.
	run(i int) op
	// shape returns the phase granularity: a phase ends only after a
	// multiple of batch operations and at least minOps of them.
	shape() (batch, minOps int)
	// check verifies the phase's outputs, filling each op's trials, digest
	// and failure. ref maps op names to digests from an earlier phase of
	// the same run, which this phase must reproduce. It returns the digests
	// of this phase by op name.
	check(p *phase, ref map[string]string) map[string]string
	// layers returns the workload's own per-layer metrics for a traced
	// phase.
	layers(p *phase, reg *obs.Registry) []metric
	// paperErrPP is the distance, in percentage points, between the
	// workload's headline result and the paper's; ok is false when the
	// workload has none.
	paperErrPP() (pp float64, ok bool)
	teardown()
}

var workloadNames = []string{"uarch-fig4", "vm-fig2", "daemon-jobs"}

func knownWorkload(name string) bool {
	for _, n := range workloadNames {
		if n == name {
			return true
		}
	}
	return false
}

func newScenario(c config, stderr io.Writer) scenario {
	switch c.workload {
	case "uarch-fig4":
		return newInMemory(c, kindUArch)
	case "vm-fig2":
		return newInMemory(c, kindVM)
	default:
		return newDaemon(c, stderr)
	}
}

func run(args []string, stdout, stderr io.Writer) int {
	c, err := parseFlags(args, stderr)
	if err != nil {
		fmt.Fprintln(stderr, "e2ebench:", err)
		return 2
	}
	if err := os.MkdirAll(c.workdir, 0o755); err != nil {
		fmt.Fprintln(stderr, "e2ebench:", err)
		return 1
	}
	if c.setupProbe {
		return setupProbe(c, stdout, stderr)
	}
	if err := measure(c, stdout, stderr); err != nil {
		fmt.Fprintln(stderr, "e2ebench:", err)
		return 1
	}
	return 0
}

// measure runs the workload and prints the report. A failed operation is
// reported in the summary, not returned as an error; an error means the run
// could not measure at all.
func measure(c config, stdout, stderr io.Writer) error {
	out := bufio.NewWriter(stdout)
	defer out.Flush()
	fmt.Fprintf(out, "workload %s seed %d size %s trace %v\n", c.workload, c.seed, sizeName(c), c.trace)

	// Set-up is timed in fresh processes, half before the timed phase and
	// half after it, so that the samples span the run.
	var setups []float64
	if !c.trace {
		var err error
		if setups, err = setupSamples(c, (c.setupSamples()+1)/2); err != nil {
			return err
		}
	}

	w := newScenario(c, stderr)
	// A traced run times one batch of each phase, so that it takes about as
	// long as an untraced one.
	n := 0
	if c.trace {
		_, n = w.shape()
	}
	plain, ref, err := runPhase(w, c, nil, nil, nil, n)
	if err != nil {
		return err
	}
	printDigests(out, plain)
	if !c.trace {
		more, err := setupSamples(c, c.setupSamples()/2)
		if err != nil {
			return err
		}
		setups = append(setups, more...)
		fmt.Fprintf(out, "setup_samples_s %v\n", setups)
	}
	phases := []*phase{plain}
	var traced *phase
	var reg *obs.Registry
	var tr *tracer
	if c.trace {
		reg, tr = obs.NewRegistry(), newTracer()
		if traced, _, err = runPhase(w, c, reg, tr, ref, len(plain.ops)); err != nil {
			return err
		}
		phases = append(phases, traced)
	}

	attempted, failed := 0, 0
	for _, p := range phases {
		attempted += len(p.ops)
		failed += p.failed()
		for i, o := range p.ops {
			if o.failure != "" {
				fmt.Fprintf(out, "FAILED op %d %s: %s\n", i, o.name, o.failure)
			}
		}
	}
	for i, o := range plain.ops {
		fmt.Fprintf(out, "op %d %s latency_s %.4f trials %d\n", i, o.name, o.latency.Seconds(), o.trials)
	}
	errorRate := float64(failed) / float64(attempted)
	fmt.Fprintf(out, "ops %d trials %d elapsed_s %.3f\n", len(plain.ops), plain.trials(), plain.elapsed.Seconds())
	var metrics []metric
	if !c.trace {
		metrics = endToEnd(plain, median(setups))
		fmt.Fprintf(out, "metric %-36s %14.6g %s\n", "error_rate", errorRate, "ratio")
		if pp, ok := w.paperErrPP(); ok {
			fmt.Fprintf(out, "metric %-36s %14.6g %s\n", "paper_err_pp", pp, "pp")
		}
	} else if metrics, err = perLayer(c, w, plain, traced, reg, tr, errorRate, out); err != nil {
		return err
	}
	for _, m := range metrics {
		fmt.Fprintf(out, "metric %-36s %14.6g %s\n", m.name, m.value, m.unit)
	}
	return writeSummary(out, failed == 0, attempted, failed, metrics)
}

// printDigests prints the output digest of the first operation of each name,
// the values recorded in digests.go.
func printDigests(w io.Writer, p *phase) {
	seen := make(map[string]bool)
	for _, o := range p.ops {
		if o.digest != "" && !seen[o.name] {
			seen[o.name] = true
			fmt.Fprintf(w, "digest %s %s\n", o.name, o.digest)
		}
	}
}

func sizeName(c config) string {
	if c.tiny {
		return "tiny"
	}
	return "paper"
}

// runPhase sets the workload up, runs operations until the phase is long
// enough (or exactly n of them, when n > 0), and checks the outputs.
func runPhase(w scenario, c config, reg *obs.Registry, tr *tracer, ref map[string]string, n int) (*phase, map[string]string, error) {
	if err := w.setup(reg, tr); err != nil {
		return nil, nil, fmt.Errorf("set-up: %w", err)
	}
	defer w.teardown()
	batch, minOps := w.shape()
	p := &phase{}
	var ms runtime.MemStats
	runtime.ReadMemStats(&ms)
	alloc := ms.TotalAlloc
	start := time.Now()
	more := func(i int) bool {
		if n > 0 {
			return i < n
		}
		return i < minOps || i%batch != 0 || time.Since(start).Seconds() < c.seconds
	}
	for i := 0; more(i); i++ {
		p.ops = append(p.ops, w.run(i))
	}
	p.elapsed = time.Since(start)
	runtime.ReadMemStats(&ms)
	p.alloc = ms.TotalAlloc - alloc
	p.peakRSS = peakRSSMB()
	digests := w.check(p, ref)
	checkObsTrials(p, reg, c.workload == "daemon-jobs")
	return p, digests, nil
}

// checkObsTrials holds the program's own count of completed trials against
// the trials of the plan, which the phase's outputs hold.
func checkObsTrials(p *phase, reg *obs.Registry, daemon bool) {
	if reg == nil || len(p.ops) == 0 || p.failed() > 0 {
		return
	}
	if got, want := obsTrials(reg, daemon), int64(p.trials()); got != want {
		p.ops[len(p.ops)-1].failure = fmt.Sprintf("the program counted %d trials, the plan has %d", got, want)
	}
}

// obsTrials is the program's count of completed trials. The daemon's comes
// from service_trials_completed_total, which counts the slots each shard
// owns: the engines' campaign_*_trials_total counts every slot of the plan
// on every shard (see knownProblems).
func obsTrials(reg *obs.Registry, daemon bool) int64 {
	if daemon {
		return reg.Counter("service_trials_completed_total").Value()
	}
	return reg.Counter("campaign_uarch_trials_total").Value() + reg.Counter("campaign_vm_trials_total").Value()
}

// endToEnd derives the end-to-end metrics of an untraced phase.
func endToEnd(p *phase, setup float64) []metric {
	lat := make([]float64, len(p.ops))
	for i, o := range p.ops {
		lat[i] = o.latency.Seconds()
	}
	trials := max(p.trials(), 1)
	values := map[string]float64{
		"trials_per_s":          p.trialsPerSecond(),
		"setup_s":               setup,
		"alloc_bytes_per_trial": float64(p.alloc) / float64(trials),
		"peak_rss_mb":           p.peakRSS,
		"job_latency_p50_s":     percentile(lat, 0.50),
		"job_latency_p90_s":     percentile(lat, 0.90),
	}
	out := make([]metric, len(endToEndUnits))
	for i, m := range endToEndUnits {
		m.value = values[m.name]
		out[i] = m
	}
	return out
}

// percentile returns the nearest-rank q-quantile of xs.
func percentile(xs []float64, q float64) float64 {
	if len(xs) == 0 {
		return 0
	}
	s := append([]float64(nil), xs...)
	sort.Float64s(s)
	k := int(math.Ceil(q*float64(len(s)))) - 1
	return s[max(k, 0)]
}

func median(xs []float64) float64 { return percentile(xs, 0.5) }

// peakRSSMB reads the process's resident-set high-water mark.
func peakRSSMB() float64 {
	data, err := os.ReadFile("/proc/self/status")
	if err != nil {
		return 0
	}
	for _, line := range strings.Split(string(data), "\n") {
		if f := strings.Fields(line); len(f) >= 2 && f[0] == "VmHWM:" {
			kb, _ := strconv.ParseFloat(f[1], 64)
			return kb / 1024
		}
	}
	return 0
}

// t0Env carries the wall-clock time, in Unix nanoseconds, at which the
// parent started a set-up probe process.
const t0Env = "E2EBENCH_T0"

// setupSamples times the set-up in n fresh processes: each runs this binary
// with --setup-probe, which measures from its exec to the point where the
// first timed call would start.
func setupSamples(c config, n int) ([]float64, error) {
	exe, err := os.Executable()
	if err != nil {
		return nil, err
	}
	args := []string{"--setup-probe", "--workload", c.workload, "--seed", strconv.FormatInt(c.seed, 10),
		"--size", sizeName(c), "--workdir", c.workdir}
	samples := make([]float64, 0, n)
	for k := 0; k < n; k++ {
		cmd := exec.Command(exe, args...)
		var stdout bytes.Buffer
		cmd.Stdout, cmd.Stderr = &stdout, os.Stderr
		cmd.Env = append(os.Environ(), fmt.Sprintf("%s=%d", t0Env, time.Now().UnixNano()))
		if err := cmd.Run(); err != nil {
			return nil, fmt.Errorf("set-up probe: %w", err)
		}
		v, err := strconv.ParseFloat(strings.TrimSpace(stdout.String()), 64)
		if err != nil {
			return nil, fmt.Errorf("set-up probe printed %q", stdout.String())
		}
		samples = append(samples, v)
	}
	return samples, nil
}

// setupProbe is the body of a --setup-probe process.
func setupProbe(c config, stdout, stderr io.Writer) int {
	t0, err := strconv.ParseInt(os.Getenv(t0Env), 10, 64)
	if err != nil {
		fmt.Fprintln(stderr, "e2ebench: --setup-probe needs", t0Env)
		return 2
	}
	w := newScenario(c, stderr)
	if err := w.setup(nil, nil); err != nil {
		fmt.Fprintln(stderr, "e2ebench: set-up:", err)
		return 1
	}
	elapsed := time.Since(time.Unix(0, t0))
	w.teardown()
	fmt.Fprintf(stdout, "%.9f\n", elapsed.Seconds())
	return 0
}

// writeSummary prints the one-line JSON summary that ends the output.
func writeSummary(w io.Writer, correct bool, attempted, failed int, metrics []metric) error {
	type value struct {
		Value float64 `json:"value"`
		Unit  string  `json:"unit"`
	}
	vals := make(map[string]value, len(metrics))
	for _, m := range metrics {
		if math.IsNaN(m.value) || math.IsInf(m.value, 0) {
			return errors.New("metric " + m.name + " is not a finite number")
		}
		vals[m.name] = value{m.value, m.unit}
	}
	data, err := json.Marshal(struct {
		Correct   bool             `json:"correct"`
		Attempted int              `json:"attempted"`
		Failed    int              `json:"failed"`
		Metrics   map[string]value `json:"metrics"`
	}{correct, attempted, failed, vals})
	if err != nil {
		return err
	}
	_, err = fmt.Fprintf(w, "%s\n", data)
	return err
}
