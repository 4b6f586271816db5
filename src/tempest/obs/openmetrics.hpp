#pragma once

#include <iosfwd>
#include <string>

namespace tempest::perf::pmu {
struct Sample;
}

namespace tempest::obs {

/// OpenMetrics / Prometheus textfile exposition of the runtime's telemetry:
/// every trace work counter as a monotonic counter, every obs latency
/// metric as a histogram (cumulative le-buckets in seconds), and optionally
/// a PMU sample as gauges. Metric names are a stable contract:
///
///   tempest_<counter>_total            e.g. tempest_cells_updated_total
///   tempest_<metric>{_bucket,_sum,_count}
///                                      e.g. tempest_shot_seconds_bucket
///                                      (metric base names already carry
///                                      the _seconds unit suffix)
///   tempest_pmu_<event>                e.g. tempest_pmu_cycles
///
/// Bucket boundaries come from the shared fixed Histogram layout, so the
/// exported buckets are invariant under thread count and merge order. Only
/// non-empty buckets are listed (plus the mandatory +Inf); cumulative
/// counts are non-decreasing by construction. The output is a valid
/// OpenMetrics text exposition ending in `# EOF`, suitable for the
/// node_exporter textfile collector or any Prometheus scrape relay.
struct OpenMetricsOptions {
  const perf::pmu::Sample* pmu = nullptr;  ///< non-null: emit PMU gauges
};

void write_openmetrics(std::ostream& os, const OpenMetricsOptions& opts = {});

/// Write to `path`; returns false when the file cannot be written.
bool write_openmetrics(const std::string& path,
                       const OpenMetricsOptions& opts = {});

}  // namespace tempest::obs
