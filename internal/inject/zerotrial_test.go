package inject

import (
	"math"
	"testing"
	"time"

	"repro/internal/obs"
)

// Zero-trial aggregation: a campaign truncated before its first injection
// point returns an empty trial set, and every aggregate must report a
// defined value (0, or an empty container) rather than 0/0 = NaN.

func TestZeroTrialVMAggregates(t *testing.T) {
	r := &VMResult{}
	if got := r.MaskedFraction(); got != 0 {
		t.Errorf("MaskedFraction on zero trials = %v, want 0", got)
	}
	for name, frac := range r.Distribution(100_000) {
		if math.IsNaN(frac) || frac != 0 {
			t.Errorf("Distribution[%s] = %v on zero trials", name, frac)
		}
	}
	d := VMDistribution(nil, 100)
	if got := d.Total(); got != 0 {
		t.Errorf("VMDistribution(nil).Total() = %v", got)
	}
	if len(d.Categories) == 0 {
		t.Error("empty distribution lost its category order")
	}
}

func TestZeroTrialUArchAggregates(t *testing.T) {
	if got := FailureRate(nil, 100, DetectorJRS); got != 0 {
		t.Errorf("FailureRate(nil) = %v, want 0", got)
	}
	if got := RawFailureRate(nil); got != 0 {
		t.Errorf("RawFailureRate(nil) = %v, want 0", got)
	}
	r := &UArchResult{}
	for name, frac := range r.Distribution(100, DetectorPerfect) {
		if math.IsNaN(frac) || frac != 0 {
			t.Errorf("Distribution[%s] = %v on zero trials", name, frac)
		}
	}
	if rep := VulnerabilityReport(nil, 100, DetectorJRS); len(rep) != 0 {
		t.Errorf("VulnerabilityReport(nil) has %d rows", len(rep))
	}
	var e ElemVulnerability
	if got := e.FailFraction(); got != 0 {
		t.Errorf("FailFraction on zero trials = %v, want 0", got)
	}
}

// Telemetry for a zero-trial campaign records the truncation without
// dividing by the empty trial set.
func TestZeroTrialTelemetry(t *testing.T) {
	reg := obs.NewRegistry()
	ro := &RunOptions{Obs: reg}
	recordCampaignTelemetry[VMTrial](ro, "campaign_vm", nil, nil, 0, true, time.Millisecond)
	recordCampaignTelemetry[UArchTrial](ro, "campaign_uarch", nil, nil, 0, true, time.Millisecond)
	for _, prefix := range []string{"campaign_vm", "campaign_uarch"} {
		if got := reg.Counter(prefix + "_trials_total").Value(); got != 0 {
			t.Errorf("%s_trials_total = %d", prefix, got)
		}
		if got := reg.Counter(prefix + "_truncated_total").Value(); got != 1 {
			t.Errorf("%s_truncated_total = %d, want 1", prefix, got)
		}
		if v := reg.Gauge(prefix + "_trials_per_second").Value(); math.IsNaN(v) || v != 0 {
			t.Errorf("%s_trials_per_second = %v, want 0", prefix, v)
		}
	}
}

func TestMetricName(t *testing.T) {
	cases := map[string]string{
		"masked":     "masked",
		"DMR detect": "dmr_detect",
		"cache-miss": "cache_miss",
	}
	for in, want := range cases {
		if got := metricName(in); got != want {
			t.Errorf("metricName(%q) = %q, want %q", in, got, want)
		}
	}
}
