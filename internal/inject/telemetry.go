package inject

import (
	"strings"
	"time"

	"repro/internal/obs"
)

// Campaign telemetry: write-only accounting recorded AFTER the trial fan-out
// completes, on the dispatching goroutine. Classifying outcomes post-hoc
// (rather than inside workers) keeps the hot path untouched and the metric
// updates trivially deterministic; and because nothing here is ever read
// back by campaign code, results with a sink attached are byte-identical to
// results without one (TestCampaignMetricsInert, and the restorelint
// determinism analyzer's obs-read check, hold that line).

// metricName lowercases a category label into a metric-name fragment:
// "DMR detect" -> "dmr_detect".
func metricName(category string) string {
	s := strings.ToLower(category)
	s = strings.Map(func(r rune) rune {
		if r >= 'a' && r <= 'z' || r >= '0' && r <= '9' {
			return r
		}
		return '_'
	}, s)
	return s
}

// recordCampaignCommon emits the telemetry both campaign types share.
// trials counts this run's owned slots only: a shard's result spans the
// whole plan, with other shards' slots left zero-valued.
func recordCampaignCommon(sink obs.Sink, prefix string, trials int, truncated bool, elapsed time.Duration) {
	sink.Counter(prefix + "_trials_total").Add(int64(trials))
	if truncated {
		sink.Counter(prefix + "_truncated_total").Inc()
	}
	if secs := elapsed.Seconds(); secs > 0 {
		sink.Gauge(prefix + "_trials_per_second").Set(float64(trials) / secs)
	}
}

// recordVMTelemetry accounts one finished (possibly truncated) VM campaign.
func recordVMTelemetry(sink obs.Sink, r *VMResult, truncated bool, elapsed time.Duration) {
	if sink == nil {
		return
	}
	const prefix = "campaign_vm"
	owned := 0
	for slot, t := range r.Trials {
		if ownsSlot(slot, r.Config.ShardIndex, r.Config.ShardCount) {
			owned++
			cat := t.CategoryAt(r.Config.Window).String()
			sink.Counter(prefix + "_outcome_" + metricName(cat) + "_total").Inc()
		}
	}
	recordCampaignCommon(sink, prefix, owned, truncated, elapsed)
}

// recordUArchTelemetry accounts one finished (possibly truncated)
// microarchitectural campaign. Outcomes are classified at the campaign's
// observation window under the perfect detector — the raw upset taxonomy,
// before any checkpoint-interval policy is applied.
func recordUArchTelemetry(sink obs.Sink, r *UArchResult, truncated bool, elapsed time.Duration) {
	if sink == nil {
		return
	}
	const prefix = "campaign_uarch"
	sink.Counter(prefix + "_points_total").Add(int64(len(r.Trials) / max(1, r.Config.TrialsPerPoint)))
	owned := 0
	for slot, t := range r.Trials {
		if ownsSlot(slot, r.Config.ShardIndex, r.Config.ShardCount) {
			owned++
			cat := t.CategoryAt(r.Config.WindowCycles, DetectorPerfect).String()
			sink.Counter(prefix + "_outcome_" + metricName(cat) + "_total").Inc()
		}
	}
	recordCampaignCommon(sink, prefix, owned, truncated, elapsed)
}
