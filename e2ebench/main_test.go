package main

import (
	"bytes"
	"encoding/json"
	"errors"
	"os"
	"os/exec"
	"path/filepath"
	"strings"
	"testing"
)

// mainEnv makes the test binary behave as the benchmark command, so tests
// (and the benchmark's own set-up probes) can run it as a child process.
const mainEnv = "E2EBENCH_AS_MAIN"

func TestMain(m *testing.M) {
	if os.Getenv(mainEnv) == "1" {
		os.Exit(run(os.Args[1:], os.Stdout, os.Stderr))
	}
	os.Exit(m.Run())
}

type summary struct {
	Correct   bool `json:"correct"`
	Attempted int  `json:"attempted"`
	Failed    int  `json:"failed"`
	Metrics   map[string]struct {
		Value float64 `json:"value"`
		Unit  string  `json:"unit"`
	} `json:"metrics"`
}

// runTiny runs the benchmark at its tiny size in a child process and
// returns the parsed summary line and the full standard output.
func runTiny(t *testing.T, workdir string, args ...string) (summary, string) {
	t.Helper()
	args = append(args, "--size", "tiny", "--seconds", "0.1", "--workdir", workdir)
	cmd := exec.Command(os.Args[0], args...)
	cmd.Env = append(os.Environ(), mainEnv+"=1")
	var stderr bytes.Buffer
	cmd.Stderr = &stderr
	out, err := cmd.Output()
	if err != nil {
		t.Fatalf("%v: %v\n%s", args, err, stderr.String())
	}
	lines := strings.Split(strings.TrimSpace(string(out)), "\n")
	var s summary
	if err := json.Unmarshal([]byte(lines[len(lines)-1]), &s); err != nil {
		t.Fatalf("last line is not the summary: %v\n%s", err, out)
	}
	return s, string(out)
}

// benchmarkFile is the part of BENCHMARK.json the tests compare with.
type benchmarkFile struct {
	Workloads []struct {
		Name string `json:"name"`
	} `json:"workloads"`
	EndToEnd []struct {
		Name string `json:"name"`
		Unit string `json:"unit"`
	} `json:"end_to_end"`
	PerLayer []struct {
		Name string `json:"name"`
		Unit string `json:"unit"`
	} `json:"per_layer"`
}

func readBenchmarkFile(t *testing.T) benchmarkFile {
	t.Helper()
	data, err := os.ReadFile(filepath.Join("..", "BENCHMARK.json"))
	if err != nil {
		t.Fatal(err)
	}
	var b benchmarkFile
	if err := json.Unmarshal(data, &b); err != nil {
		t.Fatal(err)
	}
	return b
}

// requireMetrics checks that the summary holds exactly the given metrics,
// each with its unit, and that the text report prints each by name.
func requireMetrics(t *testing.T, s summary, text string, want []metric) {
	t.Helper()
	if len(s.Metrics) != len(want) {
		t.Errorf("summary has %d metrics, want %d", len(s.Metrics), len(want))
	}
	for _, m := range want {
		got, ok := s.Metrics[m.name]
		if !ok || got.Unit != m.unit {
			t.Errorf("summary metric %s = %+v, want unit %s", m.name, got, m.unit)
		}
		if !strings.Contains(text, "metric "+m.name+" ") {
			t.Errorf("report does not print %s", m.name)
		}
	}
}

func TestBenchmarkFileMatchesCode(t *testing.T) {
	b := readBenchmarkFile(t)
	var names []string
	for _, w := range b.Workloads {
		names = append(names, w.Name)
	}
	if strings.Join(names, " ") != strings.Join(workloadNames, " ") {
		t.Errorf("BENCHMARK.json workloads %v, code has %v", names, workloadNames)
	}
	if len(b.EndToEnd) != len(endToEndUnits) {
		t.Errorf("BENCHMARK.json has %d end-to-end metrics, code has %d", len(b.EndToEnd), len(endToEndUnits))
	}
	for i := range b.EndToEnd {
		if i < len(endToEndUnits) && (b.EndToEnd[i].Name != endToEndUnits[i].name || b.EndToEnd[i].Unit != endToEndUnits[i].unit) {
			t.Errorf("end-to-end metric %d: BENCHMARK.json %+v, code %+v", i, b.EndToEnd[i], endToEndUnits[i])
		}
	}
	if len(b.PerLayer) != len(layerUnits) {
		t.Errorf("BENCHMARK.json has %d per-layer metrics, code has %d", len(b.PerLayer), len(layerUnits))
	}
	for i := range b.PerLayer {
		if i < len(layerUnits) && (b.PerLayer[i].Name != layerUnits[i].name || b.PerLayer[i].Unit != layerUnits[i].unit) {
			t.Errorf("per-layer metric %d: BENCHMARK.json %+v, code %+v", i, b.PerLayer[i], layerUnits[i])
		}
	}
}

// TestEveryWorkloadTiny runs each workload small, on the default seed, whose
// outputs have recorded digests: every end-to-end metric must be printed
// with its unit and the error rate must be 0.
func TestEveryWorkloadTiny(t *testing.T) {
	for _, name := range workloadNames {
		t.Run(name, func(t *testing.T) {
			s, text := runTiny(t, t.TempDir(), "--workload", name, "--seed", "42", "--trace", "0")
			if !s.Correct || s.Failed != 0 || s.Attempted == 0 {
				t.Fatalf("correct %v, %d of %d failed\n%s", s.Correct, s.Failed, s.Attempted, text)
			}
			if !hasLine(text, "metric", "error_rate", "0", "ratio") {
				t.Errorf("report lacks a zero error_rate\n%s", text)
			}
			requireMetrics(t, s, text, endToEndUnits)
			for _, m := range endToEndUnits {
				if s.Metrics[m.name].Value <= 0 {
					t.Errorf("%s = %v, want > 0", m.name, s.Metrics[m.name].Value)
				}
			}
		})
	}
}

// TestTracedRun checks the traced run of the workload that touches the most
// layers: every per-layer metric is reported and the spans are written.
func TestTracedRun(t *testing.T) {
	dir := t.TempDir()
	s, text := runTiny(t, dir, "--workload", "daemon-jobs", "--seed", "42", "--trace", "1")
	if !s.Correct {
		t.Fatalf("traced run failed\n%s", text)
	}
	requireMetrics(t, s, text, layerUnits)
	for _, name := range []string{"service.run_s", "campaignio.scan_ms", "pipeline.cycle_ns", "arch.step_ns"} {
		if s.Metrics[name].Value <= 0 {
			t.Errorf("%s = %v, want > 0", name, s.Metrics[name].Value)
		}
	}
	data, err := os.ReadFile(filepath.Join(dir, "spans-daemon-jobs-seed42.json"))
	if err != nil {
		t.Fatal(err)
	}
	var spans struct {
		Spans []span `json:"spans"`
	}
	if err := json.Unmarshal(data, &spans); err != nil || len(spans.Spans) == 0 {
		t.Fatalf("spans file: %v, %d spans", err, len(spans.Spans))
	}
}

// TestWrongDigestIsAFailure proves the correctness gate can fail.
func TestWrongDigestIsAFailure(t *testing.T) {
	for _, name := range []string{"uarch-fig4", "daemon-jobs"} {
		s, text := runTiny(t, t.TempDir(), "--workload", name, "--seed", "42", "--expect-digest", "0000000000000000")
		if s.Correct || s.Failed == 0 || !strings.Contains(text, "FAILED op 0") {
			t.Errorf("%s: a wrong expected digest was not reported\n%s", name, text)
		}
	}
}

// hasLine reports whether some line of text consists of exactly fields.
func hasLine(text string, fields ...string) bool {
	for _, line := range strings.Split(text, "\n") {
		if strings.Join(strings.Fields(line), " ") == strings.Join(fields, " ") {
			return true
		}
	}
	return false
}

func TestSelfTimes(t *testing.T) {
	tr := &tracer{spans: []span{
		{ID: 0, Parent: -1, Start: 0, End: 100},
		{ID: 1, Parent: 0, Start: 10, End: 40},
		{ID: 2, Parent: 0, Start: 30, End: 60},
		{ID: 3, Parent: 0, Start: 90, End: 120},
	}}
	tr.selfTimes()
	if got := tr.spans[0].Self; got != 100-50-10 {
		t.Errorf("self time %v, want 40", got)
	}
}

func TestBadFlagsExitNonZero(t *testing.T) {
	for _, args := range [][]string{
		{"--workload", "nope", "--seed", "1"},
		{"--workload", "vm-fig2", "--trace", "2"},
	} {
		cmd := exec.Command(os.Args[0], args...)
		cmd.Env = append(os.Environ(), mainEnv+"=1")
		out, err := cmd.Output()
		var exit *exec.ExitError
		if !errors.As(err, &exit) || len(out) != 0 {
			t.Errorf("%v: err %v, stdout %q", args, err, out)
		}
	}
}
