// Faultcampaign: run a miniature statistical fault-injection campaign
// against the pipeline model and print the resulting coverage table — a
// single-benchmark, reduced-trial version of the paper's Figure 4/5
// methodology (Section 4.2).
//
// Every trial flips one uniformly random bit among the pipeline's ~34k
// latch and SRAM bits (caches and predictor tables excluded), then watches
// up to 10,000 cycles for symptoms: watchdog deadlock, ISA exceptions, and
// control-flow violations. The same trials are then classified twice: once
// with perfect control-flow detection (Figure 4) and once with the JRS
// high-confidence-misprediction detector (Figure 5).
//
// Run with: go run ./examples/faultcampaign
package main

import (
	"fmt"
	"log"
	"runtime"

	"repro/internal/inject"
	"repro/internal/stats"
	"repro/internal/workload"
)

func main() {
	if err := run(); err != nil {
		log.Fatal(err)
	}
}

func run() error {
	cfg := inject.UArchConfig{
		Bench:          workload.MCF,
		Seed:           2026,
		Points:         10,
		TrialsPerPoint: 40,
		// Trials fan out across every CPU; the campaign engine pre-draws
		// all random picks serially, so the results are bit-identical to
		// a Workers: 0 serial run.
		RunOptions: inject.RunOptions{Workers: runtime.NumCPU()},
	}
	fmt.Printf("injecting %d single-bit faults into the pipeline running %s (%d workers)...\n\n",
		cfg.Points*cfg.TrialsPerPoint, cfg.Bench, cfg.Workers)

	res, err := inject.RunUArch(cfg)
	if err != nil {
		return err
	}
	fmt.Printf("state space: %d bits (%d in latches, %d in SRAMs)\n",
		res.TotalBits, res.LatchBits, res.TotalBits-res.LatchBits)
	fmt.Printf("raw failure rate (no detection): %.1f%%  — paper: ~7%%\n\n",
		100*inject.RawFailureRate(res.Trials))

	intervals := []uint64{25, 50, 100, 200, 500, 1000, 2000}

	table := stats.NewStackedTable(
		"Coverage with perfect cfv identification (Figure 4 methodology)",
		"interval", inject.UArchCategories())
	for _, iv := range intervals {
		table.AddColumn(fmt.Sprint(iv), inject.UArchDistribution(res.Trials, iv, inject.DetectorPerfect))
	}
	fmt.Println(table.Render())

	fmt.Println("uncovered failure rate by detector and checkpoint interval:")
	fmt.Printf("%-10s %10s %10s %10s\n", "interval", "perfect", "jrs", "oracle-conf")
	for _, iv := range intervals {
		fmt.Printf("%-10d %9.2f%% %9.2f%% %9.2f%%\n", iv,
			100*inject.FailureRate(res.Trials, iv, inject.DetectorPerfect),
			100*inject.FailureRate(res.Trials, iv, inject.DetectorJRS),
			100*inject.FailureRate(res.Trials, iv, inject.DetectorOracleConfidence))
	}
	fmt.Println("\n(the gap between jrs and oracle-conf is the coverage the paper's")
	fmt.Println("Section 5.2.1 says a perfect confidence predictor would reclaim)")
	return nil
}
