#include "tempest/obs/openmetrics.hpp"

#include <cstdio>
#include <fstream>
#include <ostream>

#include "tempest/obs/metrics.hpp"
#include "tempest/perf/pmu.hpp"
#include "tempest/trace/trace.hpp"

namespace tempest::obs {

namespace {

/// Shortest-roundtrip double, the same discipline as util::JsonWriter: the
/// emitted text is part of the byte-identity contract, so formatting must
/// be deterministic.
void write_double(std::ostream& os, double v, const char* fmt) {
  char buf[64];
  std::snprintf(buf, sizeof(buf), fmt, v);
  os << buf;
}

void write_histogram(std::ostream& os, const char* name, const char* help,
                     const Histogram& h) {
  os << "# TYPE tempest_" << name << " histogram\n";
  os << "# UNIT tempest_" << name << " seconds\n";
  os << "# HELP tempest_" << name << " " << help << "\n";
  // Cumulative le-buckets over the fixed layout; skipping empty buckets
  // keeps the exposition small without changing any cumulative count.
  std::uint64_t cum = 0;
  for (int i = 0; i < Histogram::kNumBuckets; ++i) {
    const std::uint64_t n = h.bucket_count(i);
    if (n == 0) continue;
    cum += n;
    os << "tempest_" << name << "_bucket{le=\"";
    write_double(os, static_cast<double>(Histogram::bucket_upper(i)) / 1e9,
                 "%.9g");
    os << "\"} " << cum << "\n";
  }
  os << "tempest_" << name << "_bucket{le=\"+Inf\"} " << h.count() << "\n";
  os << "tempest_" << name << "_sum ";
  write_double(os, static_cast<double>(h.sum()) / 1e9, "%.17g");
  os << "\n";
  os << "tempest_" << name << "_count " << h.count() << "\n";
}

}  // namespace

void write_openmetrics(std::ostream& os, const OpenMetricsOptions& opts) {
  const trace::CounterSnapshot counters = trace::snapshot();
  for (int c = 0; c < trace::kNumCounters; ++c) {
    const char* name = trace::to_string(static_cast<trace::Counter>(c));
    os << "# TYPE tempest_" << name << " counter\n";
    os << "# HELP tempest_" << name
       << " Monotonic work counter from tempest::trace.\n";
    os << "tempest_" << name << "_total "
       << counters[static_cast<std::size_t>(c)] << "\n";
  }
  const MetricSnapshot snap = snapshot_metrics();
  for (int m = 0; m < kNumMetrics; ++m) {
    write_histogram(os, to_string(static_cast<Metric>(m)),
                    "Latency distribution from tempest::obs.",
                    snap[static_cast<std::size_t>(m)]);
  }
  if (opts.pmu != nullptr) {
    for (int e = 0; e < perf::pmu::kNumEvents; ++e) {
      const auto ev = static_cast<perf::pmu::Event>(e);
      if (!opts.pmu->valid(ev)) continue;
      const char* name = perf::pmu::to_string(ev);
      os << "# TYPE tempest_pmu_" << name << " gauge\n";
      os << "# HELP tempest_pmu_" << name
         << " Hardware counter delta over the run (perf_event_open).\n";
      os << "tempest_pmu_" << name << " " << (*opts.pmu)[ev] << "\n";
    }
  }
  os << "# EOF\n";
}

bool write_openmetrics(const std::string& path,
                       const OpenMetricsOptions& opts) {
  std::ofstream os(path);
  if (!os) return false;
  write_openmetrics(os, opts);
  return static_cast<bool>(os);
}

}  // namespace tempest::obs
