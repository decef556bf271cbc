package main

import (
	"bytes"
	"crypto/sha256"
	"encoding/hex"
	"errors"
	"fmt"
	"io"
	"math/rand"
	"net/http"
	"os"
	"path/filepath"
	"strconv"
	"time"

	"repro/internal/campaignio"
	"repro/internal/experiments"
	"repro/internal/obs"
	"repro/internal/service"
	"repro/internal/workload"
)

const (
	// pollInterval is how often the client polls a running job. It bounds
	// nothing: latency comes from the job record's own timestamps, and a
	// short poll only keeps the closed loop from idling between jobs.
	pollInterval = 5 * time.Millisecond
	// jobTimeout fails a job that has not finished in this long.
	jobTimeout = 120 * time.Second
	// jobShards is the shard count of every job; the daemon runs both
	// shards at once, each on the serial engine.
	jobShards = 2
)

// jobKind is one (experiment, benchmark) pair of the job mix.
type jobKind struct {
	experiment string
	bench      workload.Benchmark
}

// daemon is the daemon-jobs workload: one client in a closed loop submits a
// job to an in-process daemon over HTTP, polls it to completion, then
// submits the next. The sequence cycles through a seed-shuffled round of
// every (fig2, fig4, fig6) × benchmark pair. Rounds come in pairs: the
// second round of a pair repeats the first's campaigns, which can then load
// their golden images, and each new pair moves every (experiment, benchmark)
// pair on to the next of four campaign seeds drawn from the workload seed.
// Journal framing alternates job by job.
type daemon struct {
	c      config
	stderr io.Writer
	kinds  []jobKind
	seeds  [4]int64

	reg       *obs.Registry
	tr        *tracer
	root      string
	srv       *service.Server
	client    *service.Client
	transport *http.Transport

	jobs         []*service.Job // final record of each op; nil when submit failed
	submits      []time.Duration
	polls        []time.Duration
	journalBytes int64 // shard journal bytes of the checked jobs (traced phases)
}

func newDaemon(c config, stderr io.Writer) *daemon {
	rng := rand.New(rand.NewSource(c.seed))
	w := &daemon{c: c, stderr: stderr}
	for _, e := range []string{"fig2", "fig4", "fig6"} {
		for _, b := range workload.Benchmarks() {
			w.kinds = append(w.kinds, jobKind{e, b})
		}
	}
	rng.Shuffle(len(w.kinds), func(i, j int) { w.kinds[i], w.kinds[j] = w.kinds[j], w.kinds[i] })
	seen := make(map[int64]bool)
	for k := range w.seeds {
		for w.seeds[k] == 0 || seen[w.seeds[k]] {
			w.seeds[k] = 1 + rng.Int63n(1<<31)
		}
		seen[w.seeds[k]] = true
	}
	return w
}

// spec returns job i of the sequence.
func (w *daemon) spec(i int) service.JobSpec {
	round, pos := i/len(w.kinds), i%len(w.kinds)
	k := w.kinds[pos]
	tf := 0.1
	if w.c.tiny {
		tf = 0.04
	}
	return service.JobSpec{
		Experiment:      k.experiment,
		Seed:            w.seeds[(pos+round/2)%len(w.seeds)],
		TrialFactor:     tf,
		Benchmarks:      []string{string(k.bench)},
		Shards:          jobShards,
		CompressJournal: i%2 == 1,
	}
}

// specKey names a job spec up to its journal framing, which must not change
// the merged output.
func specKey(s service.JobSpec) string {
	return fmt.Sprintf("%s/%s/seed=%d", s.Experiment, s.Benchmarks[0], s.Seed)
}

func (w *daemon) shape() (batch, minOps int) {
	if w.c.tiny {
		return 1, 6
	}
	// p90 of 100 jobs has ten jobs beyond it.
	return 1, 100
}

// setup starts a fresh daemon on a new root: serial shards, two at a time.
func (w *daemon) setup(reg *obs.Registry, tr *tracer) error {
	w.reg, w.tr = reg, tr
	w.jobs, w.submits, w.polls, w.journalBytes = nil, nil, nil, 0
	root, err := os.MkdirTemp(w.c.workdir, "daemon-")
	if err != nil {
		return err
	}
	w.root = root
	svc, err := service.New(service.Config{Root: root, MaxShards: jobShards, Obs: reg})
	if err != nil {
		os.RemoveAll(root)
		return err
	}
	w.srv = service.NewServer(svc)
	addr, err := w.srv.Start("127.0.0.1:0")
	if err != nil {
		svc.Close()
		os.RemoveAll(root)
		return err
	}
	w.transport = &http.Transport{}
	w.client = &service.Client{Base: addr, HTTPClient: &http.Client{Transport: w.transport, Timeout: jobTimeout}}
	if !w.client.Healthy() {
		w.teardown()
		return errors.New("daemon did not answer its health check")
	}
	return nil
}

func (w *daemon) teardown() {
	if err := w.srv.Shutdown(); err != nil {
		fmt.Fprintln(w.stderr, "e2ebench: daemon shutdown:", err)
	}
	w.transport.CloseIdleConnections()
	if err := os.RemoveAll(w.root); err != nil {
		fmt.Fprintln(w.stderr, "e2ebench:", err)
	}
}

func (w *daemon) run(i int) op {
	spec := w.spec(i)
	o := op{name: specKey(spec)}
	root := w.tr.begin("job", -1, i)
	defer w.tr.end(root)
	start := time.Now()
	id := w.tr.begin("service.Client.Submit", root, i)
	j, err := w.client.Submit(spec)
	w.tr.end(id)
	w.submits = append(w.submits, time.Since(start))
	w.jobs = append(w.jobs, nil)
	if err != nil {
		o.failure = "submit: " + err.Error()
		o.latency = time.Since(start)
		return o
	}
	for !j.State.Terminal() {
		if time.Since(start) > jobTimeout {
			o.failure = fmt.Sprintf("job %s still %s after %v", j.ID, j.State, jobTimeout)
			if _, err := w.client.Cancel(j.ID); err != nil {
				fmt.Fprintln(w.stderr, "e2ebench: cancel:", err)
			}
			o.latency = time.Since(start)
			return o
		}
		time.Sleep(pollInterval)
		t := time.Now()
		id := w.tr.begin("service.Client.Job", root, i)
		next, err := w.client.Job(j.ID)
		w.tr.end(id)
		w.polls = append(w.polls, time.Since(t))
		if err != nil {
			o.failure = "poll: " + err.Error()
			o.latency = time.Since(start)
			return o
		}
		j = next
	}
	w.jobs[i] = j
	o.latency = time.Since(start)
	if j.Started != nil && j.Finished != nil {
		o.latency = j.Finished.Sub(j.Submitted)
		w.tr.add("service.queue_wait", root, i, j.Submitted, *j.Started)
		w.tr.add("service.run", root, i, *j.Started, *j.Finished)
	}
	if j.State != service.StateDone {
		o.failure = fmt.Sprintf("job %s ended %s: %s", j.ID, j.State, j.Error)
	}
	return o
}

func (w *daemon) jobDir(j *service.Job) string { return filepath.Join(w.root, "jobs", j.ID) }

// check scans every merged campaign back, requires repeats of a spec to
// merge to the same bytes as its first run, compares recorded digests, and
// holds the first job against a one-shot serial run of the same spec.
func (w *daemon) check(p *phase, ref map[string]string) map[string]string {
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
		d, trials, err := w.merged(i, w.jobs[i])
		o.trials, o.digest = trials, d
		if err != nil {
			o.failure = err.Error()
		} else {
			o.failure = digestFailure(w.c, i, o.name, d, recorded, known)
		}
		if known[o.name] == "" {
			known[o.name] = d
		}
		if w.tr != nil && o.failure == "" {
			if err := w.shardCosts(i, w.jobs[i]); err != nil {
				o.failure = err.Error()
			}
		}
	}
	if ref == nil && len(p.ops) > 0 && p.ops[0].failure == "" {
		if err := w.checkOneShot(w.spec(0), w.jobs[0]); err != nil {
			p.ops[0].failure = err.Error()
		}
	}
	return known
}

// merged reads one job's merged campaigns back: every plan slot must be
// present exactly once. It returns a digest of the merged bytes and the
// number of trials.
func (w *daemon) merged(i int, j *service.Job) (string, int, error) {
	if len(j.Campaigns) == 0 {
		return "", 0, fmt.Errorf("job %s merged no campaigns", j.ID)
	}
	h := sha256.New()
	trials := 0
	for _, cid := range j.Campaigns {
		dir := filepath.Join(w.jobDir(j), "merged", cid)
		man, err := campaignio.ReadManifest(dir)
		if err != nil {
			return "", 0, err
		}
		id := w.tr.begin("campaignio.ScanJournal", -1, i)
		scan, err := campaignio.ScanJournal(dir, man.Slots)
		w.tr.end(id)
		if err != nil {
			return "", 0, err
		}
		seen := make([]bool, man.Slots)
		for _, r := range scan.Records {
			if r.Slot < 0 || r.Slot >= man.Slots || seen[r.Slot] {
				return "", 0, fmt.Errorf("%s: slot %d out of range or repeated", dir, r.Slot)
			}
			seen[r.Slot] = true
		}
		if scan.Torn || len(scan.Records) != man.Slots {
			return "", 0, fmt.Errorf("%s: %d of %d slots (torn %v)", dir, len(scan.Records), man.Slots, scan.Torn)
		}
		trials += man.Slots
		h.Write([]byte(cid))
		for _, name := range []string{campaignio.ManifestName, campaignio.JournalName} {
			data, err := os.ReadFile(filepath.Join(dir, name))
			if err != nil {
				return "", 0, err
			}
			h.Write(data)
		}
	}
	return hex.EncodeToString(h.Sum(nil)[:8]), trials, nil
}

// shardCosts times a fresh merge scan of each campaign's shard journals and
// adds up their on-disk size.
func (w *daemon) shardCosts(i int, j *service.Job) error {
	for _, cid := range j.Campaigns {
		dirs := make([]string, j.Spec.Shards)
		for k := range dirs {
			dirs[k] = filepath.Join(w.jobDir(j), "shards", strconv.Itoa(k), cid)
			st, err := os.Stat(filepath.Join(dirs[k], campaignio.JournalName))
			if err != nil {
				return err
			}
			w.journalBytes += st.Size()
		}
		id := w.tr.begin("campaignio.MergeScan", -1, i)
		_, _, err := campaignio.MergeScan(dirs)
		w.tr.end(id)
		if err != nil {
			return err
		}
	}
	return nil
}

// checkOneShot runs a job's spec once more in this process, serially and
// unsharded, and requires the daemon's merged files to equal it byte for
// byte.
func (w *daemon) checkOneShot(spec service.JobSpec, j *service.Job) error {
	dir, err := os.MkdirTemp(w.root, "oneshot-")
	if err != nil {
		return err
	}
	defer os.RemoveAll(dir)
	err = experiments.RunShardable(spec.Experiment, experiments.Options{
		Seed:         spec.Seed,
		TrialFactor:  spec.TrialFactor,
		Benchmarks:   []workload.Benchmark{workload.Benchmark(spec.Benchmarks[0])},
		CampaignRoot: dir,
	})
	if err != nil {
		return fmt.Errorf("one-shot run: %w", err)
	}
	for _, cid := range j.Campaigns {
		for _, name := range []string{campaignio.ManifestName, campaignio.JournalName} {
			got, err := os.ReadFile(filepath.Join(w.jobDir(j), "merged", cid, name))
			if err != nil {
				return err
			}
			want, err := os.ReadFile(filepath.Join(dir, cid, name))
			if err != nil {
				return err
			}
			if !bytes.Equal(got, want) {
				return fmt.Errorf("merged %s/%s differs from a one-shot serial run", cid, name)
			}
		}
	}
	return nil
}

func (w *daemon) layers(p *phase, reg *obs.Registry) []metric {
	var queue, run []float64
	jobs := 0
	for _, j := range w.jobs {
		if j == nil || j.Started == nil || j.Finished == nil {
			continue
		}
		jobs++
		queue = append(queue, ms(j.Started.Sub(j.Submitted)))
		run = append(run, j.Finished.Sub(*j.Started).Seconds())
	}
	flushes := float64(reg.Counter("campaign_uarch_journal_flushes_total").Value() +
		reg.Counter("campaign_vm_journal_flushes_total").Value())
	return []metric{
		{name: "service.submit_ms", value: median(durationsMS(w.submits))},
		{name: "service.poll_ms", value: median(durationsMS(w.polls))},
		{name: "service.queue_wait_ms", value: median(queue)},
		{name: "service.run_s", value: median(run)},
		{name: "campaignio.journal_flushes", value: flushes / float64(max(jobs, 1))},
		{name: "campaignio.journal_bytes_per_trial", value: float64(w.journalBytes) / float64(max(p.trials(), 1))},
		{name: "campaignio.merge_scan_ms", value: median(durationsMS(w.tr.durations("campaignio.MergeScan")))},
		{name: "campaignio.scan_ms", value: median(durationsMS(w.tr.durations("campaignio.ScanJournal")))},
	}
}

// paperErrPP: the daemon's jobs are a tenth of a campaign on one benchmark,
// too small to compare with the paper.
func (w *daemon) paperErrPP() (float64, bool) { return 0, false }

func durationsMS(ds []time.Duration) []float64 {
	out := make([]float64, len(ds))
	for i, d := range ds {
		out[i] = ms(d)
	}
	return out
}
