package inject

import (
	"strings"
	"time"
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

// recordCampaignTelemetry accounts one finished (possibly truncated)
// campaign. Outcomes count only the slots this run owns: a shard's result
// spans the whole plan, with other shards' slots left zero-valued.
func recordCampaignTelemetry[T any](ro *RunOptions, ns string, trials []T, category func(T) string, points int, truncated bool, elapsed time.Duration) {
	sink := ro.Obs
	if sink == nil {
		return
	}
	sink.Counter(ns + "_points_total").Add(int64(points))
	owned := 0
	for slot, t := range trials {
		if ownsSlot(slot, ro.ShardIndex, ro.ShardCount) {
			owned++
			sink.Counter(ns + "_outcome_" + metricName(category(t)) + "_total").Inc()
		}
	}
	sink.Counter(ns + "_trials_total").Add(int64(owned))
	if truncated {
		sink.Counter(ns + "_truncated_total").Inc()
	}
	if secs := elapsed.Seconds(); secs > 0 {
		sink.Gauge(ns + "_trials_per_second").Set(float64(owned) / secs)
	}
}
