// tempest::obs unit tests: the fixed histogram layout and its quantile
// contract, merge associativity (the thread-count-invariance property),
// the flight-recorder wire format round-trip including torn-slot and
// ring-wrap recovery, the one span feeding every live sink, the
// OpenMetrics exposition lint, and a generous hot-path overhead bound.

#include <gtest/gtest.h>

#include <algorithm>
#include <bit>
#include <chrono>
#include <cstdint>
#include <cstdio>
#include <fstream>
#include <limits>
#include <sstream>
#include <string>
#include <vector>

#include "tempest/io/io.hpp"
#include "tempest/obs/histogram.hpp"
#include "tempest/obs/metrics.hpp"
#include "tempest/obs/openmetrics.hpp"
#include "tempest/obs/recorder.hpp"
#include "tempest/trace/trace.hpp"
#include "tempest/util/rng.hpp"

namespace obs = tempest::obs;
namespace tr = tempest::trace;
using obs::Histogram;

namespace {

/// XOR one byte of `path` at `offset` (mirrors the chaos harness).
void flip_byte_at(const std::string& path, std::uint64_t offset) {
  std::fstream f(path, std::ios::binary | std::ios::in | std::ios::out);
  ASSERT_TRUE(f.good());
  f.seekg(static_cast<std::streamoff>(offset));
  char c = 0;
  f.read(&c, 1);
  c = static_cast<char>(c ^ 0x5A);
  f.seekp(static_cast<std::streamoff>(offset));
  f.write(&c, 1);
  f.flush();
  ASSERT_TRUE(f.good());
}

class ObsTest : public ::testing::Test {
 protected:
  void SetUp() override {
    obs::set_enabled(false);
    obs::reset_metrics();
    tr::set_enabled(false);
    tr::reset();
  }
  void TearDown() override {
    obs::set_enabled(false);
    obs::reset_metrics();
    tr::set_enabled(false);
    tr::reset();
  }
};

}  // namespace

// --- Histogram layout ------------------------------------------------------

TEST_F(ObsTest, BucketIndexIsMonotoneAndInvertsBounds) {
  // Every bucket's bounds map back to the bucket, and buckets tile the
  // value axis without gaps or overlap.
  for (int i = 0; i < Histogram::kNumBuckets; ++i) {
    EXPECT_EQ(Histogram::bucket_index(Histogram::bucket_lower(i)), i);
    EXPECT_EQ(Histogram::bucket_index(Histogram::bucket_upper(i)), i);
    if (i > 0) {
      EXPECT_EQ(Histogram::bucket_lower(i),
                Histogram::bucket_upper(i - 1) + 1);
    }
  }
  // Monotone across a magnitude sweep (powers of two and their neighbours).
  std::vector<std::int64_t> sweep;
  for (int e = 0; e < 62; ++e) {
    sweep.push_back((std::int64_t{1} << e) - 1);
    sweep.push_back(std::int64_t{1} << e);
    sweep.push_back((std::int64_t{1} << e) + 1);
  }
  std::sort(sweep.begin(), sweep.end());
  int last = -1;
  for (const std::int64_t v : sweep) {
    const int idx = Histogram::bucket_index(v);
    EXPECT_GE(idx, last) << "v=" << v;
    EXPECT_LT(idx, Histogram::kNumBuckets);
    last = idx;
  }
  // Relative bucket width beyond the singleton range is at most 12.5%.
  for (int i = 2 * Histogram::kSubCount; i < Histogram::kNumBuckets; ++i) {
    const double lo = static_cast<double>(Histogram::bucket_lower(i));
    const double hi = static_cast<double>(Histogram::bucket_upper(i));
    EXPECT_LE((hi - lo + 1) / lo, 0.125 + 1e-12);
  }
}

TEST_F(ObsTest, TopBucketAndSumSaturateAtInt64Max) {
  constexpr std::int64_t kMax = std::numeric_limits<std::int64_t>::max();
  EXPECT_EQ(Histogram::bucket_upper(Histogram::kNumBuckets - 1), kMax);
  EXPECT_EQ(Histogram::bucket_index(kMax), Histogram::kNumBuckets - 1);

  Histogram h;
  h.record(kMax);
  h.record(kMax);
  EXPECT_EQ(h.count(), 2u);
  EXPECT_EQ(h.sum(), kMax);
  EXPECT_EQ(h.quantile(1.0), kMax);

  Histogram merged = h;
  merged.merge(h);
  EXPECT_EQ(merged.count(), 4u);
  EXPECT_EQ(merged.sum(), kMax);
}

TEST_F(ObsTest, NegativeRecordsClampToZeroAndEmptyIsInert) {
  Histogram h;
  EXPECT_EQ(h.count(), 0u);
  EXPECT_EQ(h.quantile(0.5), 0);
  h.record(-42);
  EXPECT_EQ(h.count(), 1u);
  EXPECT_EQ(h.bucket_count(0), 1u);
  EXPECT_EQ(h.min(), 0);
  EXPECT_EQ(h.max(), 0);
}

// Golden quantiles: the documented rule (inclusive upper bound of the first
// bucket whose cumulative count reaches ceil(q*N), clamped to [min, max])
// gives exactly these values for 1..1000 — pinned so any change to the
// bucket layout or the rule is a loud, deliberate schema event.
TEST_F(ObsTest, QuantileGoldenValues) {
  Histogram h;
  for (int v = 1; v <= 1000; ++v) h.record(v);
  EXPECT_EQ(h.count(), 1000u);
  EXPECT_EQ(h.quantile(0.50), 511);   // bucket [480, 511], cum 511 >= 500
  EXPECT_EQ(h.quantile(0.99), 1000);  // bucket [960, 1023] clamps to max
  EXPECT_EQ(h.quantile(0.0), 1);      // rank floors at 1, clamps to min
  EXPECT_EQ(h.quantile(1.0), 1000);
  // The upward bias is bounded by one bucket width: p50 of 1..1000 is 500,
  // the estimate 511 is within 12.5%.
  EXPECT_LE(h.quantile(0.50), static_cast<std::int64_t>(500 * 1.125) + 1);
}

TEST_F(ObsTest, MergeIsAssociativeAndPartitionInvariant) {
  // Partition one sample stream across 8 shards (as 8 threads would), then
  // merge in several different orders: every result must equal the direct
  // single-histogram accumulation, bucket for bucket.
  constexpr int kShards = 8;
  constexpr int kSamples = 4000;
  tempest::util::SplitMix64 rng(0xC0FFEEu);
  Histogram direct;
  std::vector<Histogram> shards(kShards);
  for (int i = 0; i < kSamples; ++i) {
    // Spread magnitudes across the whole layout.
    const auto v = static_cast<std::int64_t>(rng.next() >> (i % 62));
    direct.record(v);
    shards[static_cast<std::size_t>(i % kShards)].record(v);
  }

  Histogram left;  // ((s0 + s1) + s2) + ...
  for (const Histogram& s : shards) left.merge(s);
  Histogram right;  // s7 + (s6 + (...))
  for (int i = kShards - 1; i >= 0; --i) {
    right.merge(shards[static_cast<std::size_t>(i)]);
  }
  Histogram tree;  // (s0+s1) + (s2+s3) + ...
  for (int i = 0; i < kShards; i += 2) {
    Histogram pair = shards[static_cast<std::size_t>(i)];
    pair.merge(shards[static_cast<std::size_t>(i + 1)]);
    tree.merge(pair);
  }

  EXPECT_EQ(left, direct);
  EXPECT_EQ(right, direct);
  EXPECT_EQ(tree, direct);
  EXPECT_EQ(left.quantile(0.99), direct.quantile(0.99));
}

// --- Metrics registry ------------------------------------------------------

TEST_F(ObsTest, MetricsRegistryRecordsOnlyWhileEnabled) {
  obs::record_ns(obs::Metric::TileSeconds, 100);  // disabled: dropped
  EXPECT_EQ(obs::metric_histogram(obs::Metric::TileSeconds).count(), 0u);
  obs::set_enabled(true);
  obs::record_ns(obs::Metric::TileSeconds, 100);
  obs::record_ns(obs::Metric::TileSeconds, 200);
  obs::record_ns(obs::Metric::ShotSeconds, 5'000'000);
  obs::set_enabled(false);
  const obs::MetricSnapshot snap = obs::snapshot_metrics();
  EXPECT_EQ(snap[static_cast<std::size_t>(obs::Metric::TileSeconds)].count(),
            2u);
  EXPECT_EQ(snap[static_cast<std::size_t>(obs::Metric::ShotSeconds)].count(),
            1u);
  EXPECT_EQ(snap[static_cast<std::size_t>(obs::Metric::TileSeconds)].sum(),
            300);
  obs::reset_metrics();
  EXPECT_EQ(obs::metric_histogram(obs::Metric::TileSeconds).count(), 0u);
}

TEST_F(ObsTest, MetricNamesAreOpenMetricsSafe) {
  for (int m = 0; m < obs::kNumMetrics; ++m) {
    const std::string name = obs::to_string(static_cast<obs::Metric>(m));
    ASSERT_FALSE(name.empty());
    for (const char c : name) {
      EXPECT_TRUE((c >= 'a' && c <= 'z') || (c >= '0' && c <= '9') ||
                  c == '_')
          << "metric name '" << name << "' is not OpenMetrics-safe";
    }
  }
}

// --- Flight recorder -------------------------------------------------------

TEST_F(ObsTest, RecorderRoundTripsEventsThroughTheFile) {
  const std::string path = ::testing::TempDir() + "obs_roundtrip.tfbr";
  obs::FlightRecorder::Options o;
  o.lanes = 2;
  o.lane_capacity = 64;
  o.shot = 7;
  {
    auto rec = obs::FlightRecorder::create(path, o);
    ASSERT_NE(rec, nullptr);
    rec->record(obs::kMark, "alpha", 1, 2);
    rec->record(obs::kCounterDelta, "cells", 100, 0);
    rec->record(obs::kJobState, "attempt.start", 7, 0);
    rec->record(obs::kHealth, "p", std::bit_cast<std::int64_t>(0.25), 12);
  }
  const obs::BlackboxContents box = obs::read_blackbox(path);
  EXPECT_EQ(box.geom.shot, 7u);
  EXPECT_EQ(box.geom.lanes, 2u);
  EXPECT_EQ(box.total_recorded, 4u);
  EXPECT_EQ(box.torn_slots, 0u);
  ASSERT_EQ(box.events.size(), 4u);
  // Decoded events come back seq-ascending with their payloads intact.
  EXPECT_EQ(box.events[0].name, "alpha");
  EXPECT_EQ(box.events[0].kind, obs::kMark);
  EXPECT_EQ(box.events[0].a, 1);
  EXPECT_EQ(box.events[0].b, 2);
  EXPECT_EQ(box.events[3].name, "p");
  EXPECT_EQ(std::bit_cast<double>(box.events[3].a), 0.25);
  EXPECT_EQ(box.events[3].b, 12);
  for (std::size_t i = 1; i < box.events.size(); ++i) {
    EXPECT_LT(box.events[i - 1].seq, box.events[i].seq);
  }
  EXPECT_TRUE(box.open_spans.empty());
  std::string err;
  EXPECT_TRUE(obs::verify_blackbox(path, &err)) << err;
  std::remove(path.c_str());
}

TEST_F(ObsTest, RingWrapKeepsNewestEventsAndTotalCount) {
  const std::string path = ::testing::TempDir() + "obs_wrap.tfbr";
  obs::FlightRecorder::Options o;
  o.lanes = 1;
  o.lane_capacity = 8;
  constexpr int kEvents = 100;
  {
    auto rec = obs::FlightRecorder::create(path, o);
    ASSERT_NE(rec, nullptr);
    for (int i = 0; i < kEvents; ++i) {
      rec->record(obs::kMark, "tick", i, 0);
    }
  }
  const obs::BlackboxContents box = obs::read_blackbox(path);
  EXPECT_EQ(box.total_recorded, static_cast<std::uint64_t>(kEvents));
  EXPECT_EQ(box.torn_slots, 0u);
  ASSERT_EQ(box.events.size(), 8u);  // exactly one ring of survivors
  // The survivors are the *last* 8 records, in order.
  EXPECT_EQ(box.events.back().seq, static_cast<std::uint64_t>(kEvents));
  EXPECT_EQ(box.events.back().a, kEvents - 1);
  EXPECT_EQ(box.events.front().a, kEvents - 8);
  std::string err;
  EXPECT_TRUE(obs::verify_blackbox(path, &err)) << err;
  std::remove(path.c_str());
}

TEST_F(ObsTest, DirectSpanEnterWithoutExitIsReportedOpen) {
  const std::string path = ::testing::TempDir() + "obs_open.tfbr";
  {
    auto rec = obs::FlightRecorder::create(path, {});
    ASSERT_NE(rec, nullptr);
    rec->record(obs::kSpanEnter, "shot.run", 0, 0);
    rec->record(obs::kSpanEnter, "band", 3, 1);
    rec->record(obs::kSpanExit, "band", 500, 0);
    rec->record(obs::kSpanEnter, "stencil", 0, 0);
    // No exit for "shot.run" or "stencil": the process "died" here.
  }
  const obs::BlackboxContents box = obs::read_blackbox(path);
  ASSERT_EQ(box.open_spans.size(), 2u);
  EXPECT_EQ(box.open_spans[0], "shot.run");  // outermost first
  EXPECT_EQ(box.open_spans[1], "stencil");
  std::remove(path.c_str());
}

TEST_F(ObsTest, CorruptHeaderFailsVerificationAndDecodeThrows) {
  const std::string path = ::testing::TempDir() + "obs_badheader.tfbr";
  {
    auto rec = obs::FlightRecorder::create(path, {});
    ASSERT_NE(rec, nullptr);
    rec->record(obs::kMark, "x", 0, 0);
  }
  flip_byte_at(path, 4);  // version field: CRC-protected
  std::string err;
  EXPECT_FALSE(obs::verify_blackbox(path, &err));
  EXPECT_FALSE(err.empty());
  EXPECT_THROW(static_cast<void>(obs::read_blackbox(path)),
               tempest::io::CorruptFileError);
  std::remove(path.c_str());
}

TEST_F(ObsTest, TornSlotIsSkippedButVerifyStillPasses) {
  const std::string path = ::testing::TempDir() + "obs_torn.tfbr";
  obs::FlightRecorder::Options o;
  o.lanes = 1;
  o.lane_capacity = 8;
  o.name_capacity = 8;
  {
    auto rec = obs::FlightRecorder::create(path, o);
    ASSERT_NE(rec, nullptr);
    for (int i = 0; i < 4; ++i) rec->record(obs::kMark, "tick", i, 0);
  }
  // Slot 0 lives after the 4 KiB header, the 8-entry name table and the
  // 64-byte lane header; smash its timestamp field.
  const std::uint64_t slot0 = 4096 + 8 * 64 + 64;
  flip_byte_at(path, slot0 + 8);
  const obs::BlackboxContents box = obs::read_blackbox(path);
  EXPECT_EQ(box.torn_slots, 1u);
  ASSERT_EQ(box.events.size(), 3u);
  EXPECT_EQ(box.events.front().a, 1);  // record 0 is the torn one
  // One torn slot <= one lane: exactly the mid-write-at-death budget.
  std::string err;
  EXPECT_TRUE(obs::verify_blackbox(path, &err)) << err;
  std::remove(path.c_str());
}

TEST_F(ObsTest, MissingFileFailsVerification) {
  std::string err;
  EXPECT_FALSE(
      obs::verify_blackbox(::testing::TempDir() + "no_such.tfbr", &err));
  EXPECT_FALSE(err.empty());
}

#if !defined(TEMPEST_TRACE_DISABLED)
TEST_F(ObsTest, InstalledBlackboxCapturesTraceSpansAndCounters) {
  const std::string path = ::testing::TempDir() + "obs_tap.tfbr";
  auto rec = obs::FlightRecorder::create(path, {});
  ASSERT_NE(rec, nullptr);
  obs::install_blackbox(rec.get());
  EXPECT_EQ(obs::installed_blackbox(), rec.get());
  {
    // The recorder bit feeds the span even with the trace runtime
    // disabled — the black box must see the shot's spans without paying
    // for the in-memory trace.
    ASSERT_FALSE(tr::enabled());
    tr::ScopedSpan span("obs.tap.span", "test", 42);
    tr::count(tr::Counter::CellsUpdated, 9);
  }
  obs::note_health("pressure", 17, 0.5);
  obs::note_job_state("attempt.done", 3, 1);
  obs::uninstall_blackbox();
  EXPECT_EQ(obs::installed_blackbox(), nullptr);
  rec.reset();  // unmap before reading
  // With the recorder bit live, counter totals accumulate even while the
  // trace runtime is off — the exported totals must be real — and the
  // in-memory event buffer stays untouched.
  EXPECT_EQ(tr::value(tr::Counter::CellsUpdated), 9);
  EXPECT_TRUE(tr::events().empty());

  const obs::BlackboxContents box = obs::read_blackbox(path);
  ASSERT_EQ(box.events.size(), 5u);
  EXPECT_EQ(box.events[0].kind, obs::kSpanEnter);
  EXPECT_EQ(box.events[0].name, "obs.tap.span");
  EXPECT_EQ(box.events[0].a, 42);
  // Counter delta lands inside the span, exit after it.
  EXPECT_EQ(box.events[1].kind, obs::kCounterDelta);
  EXPECT_EQ(box.events[1].name, "cells_updated");
  EXPECT_EQ(box.events[1].a, 9);
  EXPECT_EQ(box.events[2].kind, obs::kSpanExit);
  EXPECT_GE(box.events[2].a, 0);  // duration
  EXPECT_EQ(box.events[3].kind, obs::kHealth);
  EXPECT_EQ(std::bit_cast<double>(box.events[3].a), 0.5);
  EXPECT_EQ(box.events[4].kind, obs::kJobState);
  EXPECT_EQ(box.events[4].a, 3);
  EXPECT_EQ(box.events[4].b, 1);
  EXPECT_TRUE(box.open_spans.empty());
  EXPECT_EQ(box.events[2].name, "obs.tap.span");
  std::remove(path.c_str());
}
#endif  // !defined(TEMPEST_TRACE_DISABLED)

// One span, one close, every live sink exactly once: a span naming a metric
// lands as one histogram sample, one buffered Event and one enter/exit
// pair in the black box. A zero gate word makes the same span inert, and a
// histogram-only word accumulates counters but buffers no event.
TEST_F(ObsTest, OneSpanCloseLandsOnceInEachLiveSink) {
  const auto timed_span = [] {
    tr::ScopedSpan span("one.span", "test", 5, obs::Metric::TileSeconds);
    tr::count(tr::Counter::CellsUpdated, 7);
  };

  timed_span();  // zero word
  EXPECT_EQ(tr::value(tr::Counter::CellsUpdated), 0);
  EXPECT_TRUE(tr::events().empty());
  EXPECT_EQ(obs::metric_histogram(obs::Metric::TileSeconds).count(), 0u);

  obs::set_enabled(true);  // histogram bit only
  timed_span();
  obs::set_enabled(false);
  EXPECT_EQ(obs::metric_histogram(obs::Metric::TileSeconds).count(), 1u);
  EXPECT_EQ(tr::value(tr::Counter::CellsUpdated), 7);
  EXPECT_TRUE(tr::events().empty());
  std::ostringstream om;
  obs::write_openmetrics(om);
  EXPECT_NE(om.str().find("tempest_cells_updated_total 7\n"),
            std::string::npos);
  EXPECT_NE(om.str().find("tempest_tile_seconds_count 1\n"),
            std::string::npos);
  obs::reset_metrics();
  tr::reset();

  const std::string path = ::testing::TempDir() + "obs_one_span.tfbr";
  auto rec = obs::FlightRecorder::create(path, {});
  ASSERT_NE(rec, nullptr);
  obs::install_blackbox(rec.get());  // every sink live
  obs::set_enabled(true);
  tr::set_enabled(true);
  timed_span();
  {
    tr::ScopedSpan plain("plain.span", "test");  // names no metric
  }
  tr::set_enabled(false);
  obs::set_enabled(false);
  obs::uninstall_blackbox();
  rec.reset();

  const obs::MetricSnapshot snap = obs::snapshot_metrics();
  for (int m = 0; m < obs::kNumMetrics; ++m) {
    EXPECT_EQ(snap[static_cast<std::size_t>(m)].count(),
              m == static_cast<int>(obs::Metric::TileSeconds) ? 1u : 0u)
        << obs::to_string(static_cast<obs::Metric>(m));
  }
  const std::vector<tr::Event> events = tr::events();
  ASSERT_EQ(events.size(), 2u);
  EXPECT_STREQ(events[0].name, "one.span");
  EXPECT_EQ(events[0].arg, 5);
  EXPECT_STREQ(events[1].name, "plain.span");
  // The sample and the Event come from the same close.
  EXPECT_EQ(snap[static_cast<std::size_t>(obs::Metric::TileSeconds)].sum(),
            events[0].dur_ns);
  EXPECT_EQ(tr::value(tr::Counter::CellsUpdated), 7);

  const obs::BlackboxContents box = obs::read_blackbox(path);
  ASSERT_EQ(box.events.size(), 5u);
  EXPECT_EQ(box.events[0].kind, obs::kSpanEnter);
  EXPECT_EQ(box.events[0].name, "one.span");
  EXPECT_EQ(box.events[0].a, 5);
  EXPECT_EQ(box.events[1].kind, obs::kCounterDelta);
  EXPECT_EQ(box.events[1].a, 7);
  EXPECT_EQ(box.events[2].kind, obs::kSpanExit);
  EXPECT_EQ(box.events[2].name, "one.span");
  EXPECT_EQ(box.events[2].a, events[0].dur_ns);
  EXPECT_EQ(box.events[3].kind, obs::kSpanEnter);
  EXPECT_EQ(box.events[3].name, "plain.span");
  EXPECT_EQ(box.events[4].kind, obs::kSpanExit);
  EXPECT_EQ(box.events[4].name, "plain.span");
  EXPECT_TRUE(box.open_spans.empty());
  std::remove(path.c_str());
}

// Hot-path overhead guard: the budget is deliberately enormous (tens of
// microseconds per event vs the tens-of-nanoseconds reality) so it only
// trips on a real regression — a lock, a syscall, or an allocation on the
// record path — and stays green under sanitizers and CI noise.
TEST_F(ObsTest, RecorderHotPathStaysUnderPerEventBudget) {
  const std::string path = ::testing::TempDir() + "obs_overhead.tfbr";
  auto rec = obs::FlightRecorder::create(path, {});
  ASSERT_NE(rec, nullptr);
  constexpr int kEvents = 200'000;
  const auto t0 = std::chrono::steady_clock::now();
  for (int i = 0; i < kEvents; ++i) {
    rec->record(obs::kMark, "hot", i, 0);
  }
  const double ns = std::chrono::duration<double, std::nano>(
                        std::chrono::steady_clock::now() - t0)
                        .count();
  EXPECT_LT(ns / kEvents, 20'000.0)
      << "flight-recorder hot path cost exploded";
  rec.reset();
  std::remove(path.c_str());
}

// --- OpenMetrics exposition ------------------------------------------------

namespace {

/// Split an exposition into lines (dropping the trailing newline).
std::vector<std::string> lines_of(const std::string& text) {
  std::vector<std::string> out;
  std::istringstream is(text);
  std::string line;
  while (std::getline(is, line)) out.push_back(line);
  return out;
}

}  // namespace

TEST_F(ObsTest, OpenMetricsExpositionIsWellFormed) {
  obs::set_enabled(true);
  // A distribution that spans several buckets.
  for (int i = 1; i <= 100; ++i) {
    obs::record_ns(obs::Metric::ShotSeconds, static_cast<std::int64_t>(i) * 1'000'000);
  }
  obs::record_ns(obs::Metric::TileSeconds, 5'000);
  obs::set_enabled(false);
  tr::set_enabled(true);
  tr::count(tr::Counter::CellsUpdated, 1234);
  tr::set_enabled(false);

  std::ostringstream os;
  obs::write_openmetrics(os);
  const std::string text = os.str();
  const std::vector<std::string> lines = lines_of(text);
  ASSERT_FALSE(lines.empty());
  EXPECT_EQ(lines.back(), "# EOF");

  // Counters: stable names, _total suffix, the recorded value present.
  EXPECT_NE(text.find("# TYPE tempest_cells_updated counter"),
            std::string::npos);
  EXPECT_NE(text.find("tempest_cells_updated_total 1234"), std::string::npos);

  // Histogram: per-metric bucket series must be le-increasing and
  // cumulative-non-decreasing, with +Inf equal to _count.
  double last_le = -1.0;
  unsigned long long last_cum = 0;
  unsigned long long inf_count = 0;
  unsigned long long count_value = 0;
  bool saw_bucket = false;
  for (const std::string& line : lines) {
    if (line.rfind("tempest_shot_seconds_bucket{le=\"", 0) == 0) {
      saw_bucket = true;
      const std::size_t q1 = line.find('"');
      const std::size_t q2 = line.find('"', q1 + 1);
      const std::string le = line.substr(q1 + 1, q2 - q1 - 1);
      const unsigned long long cum =
          std::stoull(line.substr(line.find(' ', q2) + 1));
      EXPECT_GE(cum, last_cum) << line;
      last_cum = cum;
      if (le == "+Inf") {
        inf_count = cum;
      } else {
        const double v = std::stod(le);
        EXPECT_GT(v, last_le) << line;
        last_le = v;
      }
    } else if (line.rfind("tempest_shot_seconds_count ", 0) == 0) {
      count_value = std::stoull(line.substr(line.rfind(' ') + 1));
    }
  }
  ASSERT_TRUE(saw_bucket);
  EXPECT_EQ(count_value, 100u);
  EXPECT_EQ(inf_count, count_value);
  EXPECT_NE(text.find("# TYPE tempest_shot_seconds histogram"),
            std::string::npos);
  EXPECT_NE(text.find("# UNIT tempest_shot_seconds seconds"),
            std::string::npos);
  EXPECT_NE(text.find("tempest_shot_seconds_sum "), std::string::npos);
}

TEST_F(ObsTest, OpenMetricsFileSinkWritesAndReportsFailure) {
  const std::string path = ::testing::TempDir() + "obs_export.om";
  EXPECT_TRUE(obs::write_openmetrics(path));
  std::ifstream f(path);
  ASSERT_TRUE(f.is_open());
  std::string text((std::istreambuf_iterator<char>(f)),
                   std::istreambuf_iterator<char>());
  EXPECT_NE(text.find("# EOF"), std::string::npos);
  std::remove(path.c_str());
  EXPECT_FALSE(obs::write_openmetrics("/nonexistent_dir_zz/x.om"));
}
