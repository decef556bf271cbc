package inject

import (
	"reflect"
	"sync/atomic"
	"testing"

	"repro/internal/arch"
	"repro/internal/workload"
)

// The VM campaign's speedups — the shared decode cache, the early exit of a
// halted faulty replay and the per-trial forks of the parallel engine — have
// no switch, so this pins them from the inside: a campaign with the decode
// cache stripped from every simulator must match the default campaign trial
// for trial, serially and with 4 workers, and every trial that stopped early
// on a halted faulty machine must provably have had nothing left to observe.

// haltedExitCheck wraps a serial VM campaign. Serially every trial replays
// on the trailing simulator itself, so once a trial returns, the wrapper can
// finish the golden window the early exit skipped on the very machine that
// took it.
type haltedExitCheck struct {
	*vmCampaign
	t      *testing.T
	halted *int
}

func (c haltedExitCheck) trial(slot int) (VMTrial, func() VMTrial) {
	done, run := c.vmCampaign.trial(slot)
	if run == nil {
		return done, nil
	}
	return done, func() VMTrial {
		trial := run()
		sim := c.sim
		if !sim.Halted || trial.ExcLat != Never {
			return trial
		}
		*c.halted++
		before := sim.Snapshot()
		for range c.window {
			if ev := sim.Step(); !ev.Halted || ev.Exception != arch.ExcNone {
				c.t.Fatalf("slot %d: halted faulty machine stepped to %+v", slot, ev)
			}
		}
		if sim.Snapshot() != before {
			c.t.Fatalf("slot %d: halted faulty machine changed state", slot)
		}
		return trial
	}
}

// runVMWithoutDecodeCache runs cfg's campaign with the decode cache removed
// from the trailing and lead simulators (the parallel forks take theirs from
// the campaign, so they decode afresh too). A non-nil halted makes the
// campaign serial and counts the early exits haltedExitCheck verified.
func runVMWithoutDecodeCache(t *testing.T, cfg VMConfig, halted *int) []VMTrial {
	t.Helper()
	cfg.applyDefaults()
	prog, err := workload.Generate(cfg.Bench, workload.Config{Seed: cfg.Seed, Scale: cfg.Scale})
	if err != nil {
		t.Fatal(err)
	}
	if halted != nil {
		cfg.Workers = 1
	}
	trials, err := runCampaign(&cfg.RunOptions, "campaign_vm", func() (campaign[VMTrial], error) {
		v, err := newVMCampaign(&cfg, prog)
		if err != nil {
			return nil, err
		}
		v.dcache, v.sim.DCache, v.trace.lead.DCache = nil, nil, nil
		if halted != nil {
			return haltedExitCheck{v, t, halted}, nil
		}
		return v, nil
	})
	if err != nil {
		t.Fatal(err)
	}
	return trials
}

// earlyExitVM is smallVM with enough trials that faulty machines halt
// behind a control-flow divergence on several benchmarks.
func earlyExitVM(bench workload.Benchmark) VMConfig {
	cfg := smallVM(bench, false)
	cfg.Trials, cfg.Points = 1000, 50
	return cfg
}

func TestVMSpeedupTogglesAreInert(t *testing.T) {
	var exits atomic.Int64
	t.Cleanup(func() {
		if exits.Load() == 0 {
			t.Error("no trial stopped early on a halted faulty machine; the check is vacuous")
		}
	})
	for _, bench := range workload.Benchmarks() {
		bench := bench
		t.Run(string(bench), func(t *testing.T) {
			t.Parallel()
			base, err := RunVM(earlyExitVM(bench))
			if err != nil {
				t.Fatal(err)
			}
			halted := 0
			if got := runVMWithoutDecodeCache(t, earlyExitVM(bench), &halted); !reflect.DeepEqual(got, base.Trials) {
				t.Error("serial trials differ without the decode cache")
			}
			exits.Add(int64(halted))
			cfg := earlyExitVM(bench)
			cfg.Workers = 4
			if got := runVMWithoutDecodeCache(t, cfg, nil); !reflect.DeepEqual(got, base.Trials) {
				t.Error("trials differ without the decode cache at 4 workers")
			}
		})
	}
}
