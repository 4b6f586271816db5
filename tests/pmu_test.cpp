// tempest::perf::pmu — the perf_event_open backend and everything layered
// on it: degradation paths (simulated EACCES/ENOSYS via the injectable
// syscall shim), real-path monotonicity, span enrichment into the trace
// sinks (v2 schema on, byte-identical v1 off), the derived-rate and
// model-vs-measured validation math, calibration caching, and the
// streaming JSON writer the machine-readable sinks share.

#include <gtest/gtest.h>

#include <cerrno>
#include <cmath>
#include <cstdio>
#include <fstream>
#include <sstream>
#include <string>
#include <vector>

#include "tempest/perf/calibrate.hpp"
#include "tempest/perf/pmu.hpp"
#include "tempest/perf/report.hpp"
#include "tempest/trace/trace.hpp"
#include "tempest/util/json.hpp"

namespace pmu = tempest::perf::pmu;
namespace pf = tempest::perf;
namespace trace = tempest::trace;

namespace {

long deny_eacces(void*, int, int, int, unsigned long) {
  errno = EACCES;
  return -1;
}

long deny_enosys(void*, int, int, int, unsigned long) {
  errno = ENOSYS;
  return -1;
}

/// Restores the real syscall and re-probes, whatever the test did.
struct HookGuard {
  ~HookGuard() {
    pmu::set_open_hook_for_testing(nullptr);
    pmu::reset_for_testing();
  }
};

}  // namespace

// --- degradation paths ----------------------------------------------------

TEST(PmuDegraded, EaccesReportsReasonAndZeroedSamples) {
  HookGuard guard;
  pmu::set_open_hook_for_testing(&deny_eacces);
  pmu::reset_for_testing();

  const pmu::Availability& avail = pmu::availability();
  EXPECT_FALSE(avail.any);
  EXPECT_FALSE(avail.hardware);
  EXPECT_NE(avail.reason.find("EACCES"), std::string::npos) << avail.reason;

  const pmu::CounterGroup group;
  EXPECT_FALSE(group.any_open());
  const pmu::Sample s = group.read();
  EXPECT_EQ(s.valid_mask, 0u);
  EXPECT_FALSE(s.any());
  for (int i = 0; i < pmu::kNumEvents; ++i) {
    EXPECT_EQ(s.value[static_cast<std::size_t>(i)], 0);
  }

  // RAII regions stay safe: zeroed-but-flagged deltas, no crash.
  const pmu::PmuRegion region;
  const pmu::Sample d = region.delta();
  EXPECT_EQ(d.valid_mask, 0u);
}

TEST(PmuDegraded, EnosysReportsReason) {
  HookGuard guard;
  pmu::set_open_hook_for_testing(&deny_enosys);
  pmu::reset_for_testing();

  const pmu::Availability& avail = pmu::availability();
  EXPECT_FALSE(avail.any);
  EXPECT_NE(avail.reason.find("ENOSYS"), std::string::npos) << avail.reason;
}

// --- real path ------------------------------------------------------------

TEST(PmuReal, ReadsAreMonotonicAndDeltasNonNegative) {
  HookGuard guard;  // other tests may have left a hook installed
  pmu::set_open_hook_for_testing(nullptr);
  pmu::reset_for_testing();

  const pmu::CounterGroup group;
  if (!group.any_open()) {
    GTEST_SKIP() << "no counters at all on this machine: "
                 << pmu::availability().reason;
  }
  const pmu::Sample a = group.read();
  // Burn some user time so software counters (task-clock) advance.
  volatile double sink = 0.0;
  for (int i = 0; i < 2000000; ++i) sink = sink + 1e-9 * i;
  const pmu::Sample b = group.read();

  EXPECT_EQ(a.valid_mask, group.open_mask());
  EXPECT_EQ(b.valid_mask, group.open_mask());
  for (int i = 0; i < pmu::kNumEvents; ++i) {
    const auto e = static_cast<pmu::Event>(i);
    if (!a.valid(e)) continue;
    EXPECT_GE(a[e], 0) << pmu::to_string(e);
    EXPECT_GE(b[e], a[e]) << pmu::to_string(e) << " went backwards";
  }
  const pmu::Sample d = b - a;
  for (int i = 0; i < pmu::kNumEvents; ++i) {
    const auto e = static_cast<pmu::Event>(i);
    if (d.valid(e)) {
      EXPECT_GE(d[e], 0) << pmu::to_string(e);
    }
  }
}

TEST(PmuReal, RegionsNestFreely) {
  HookGuard guard;
  pmu::set_open_hook_for_testing(nullptr);
  pmu::reset_for_testing();
  if (!pmu::availability().any) {
    GTEST_SKIP() << "PMU unavailable: " << pmu::availability().reason;
  }

  const pmu::PmuRegion outer;
  volatile double sink = 0.0;
  {
    const pmu::PmuRegion inner;
    for (int i = 0; i < 500000; ++i) sink = sink + 1e-9 * i;
    const pmu::Sample di = inner.delta();
    const pmu::Sample douter = outer.delta();
    for (int i = 0; i < pmu::kNumEvents; ++i) {
      const auto e = static_cast<pmu::Event>(i);
      if (!di.valid(e)) continue;
      // The inner window is a sub-interval of the outer one.
      EXPECT_LE(di[e], douter[e]) << pmu::to_string(e);
    }
  }
}

// --- Sample arithmetic and derived quantities -----------------------------

TEST(PmuSample, DifferenceIntersectsValidityAndClamps) {
  pmu::Sample a, b;
  a.valid_mask = 0b011;  // cycles + instructions
  b.valid_mask = 0b110;  // instructions + stalled
  a.value[0] = 100;
  a.value[1] = 50;
  b.value[1] = 80;  // bigger than a: clamp to 0, not negative
  b.value[2] = 7;
  const pmu::Sample d = a - b;
  EXPECT_EQ(d.valid_mask, 0b010u);
  EXPECT_EQ(d[pmu::Event::Instructions], 0);  // clamped
  EXPECT_EQ(d[pmu::Event::Cycles], 0);        // invalid slots zeroed
}

TEST(PmuSample, DerivedRatiosAndTraffic) {
  pmu::Sample s;
  auto set = [&](pmu::Event e, long long v) {
    s.value[static_cast<std::size_t>(e)] = v;
    s.valid_mask |= 1u << static_cast<int>(e);
  };
  set(pmu::Event::Cycles, 1000);
  set(pmu::Event::Instructions, 2500);
  set(pmu::Event::L1dLoads, 800);
  set(pmu::Event::L1dMisses, 80);
  set(pmu::Event::LlcLoads, 100);
  set(pmu::Event::LlcMisses, 25);
  EXPECT_DOUBLE_EQ(s.ipc(), 2.5);
  EXPECT_DOUBLE_EQ(s.l2_bytes(), 80.0 * 64);
  EXPECT_DOUBLE_EQ(s.dram_bytes(), 25.0 * 64);
  EXPECT_TRUE(s.hardware());

  const pmu::Sample empty;
  EXPECT_DOUBLE_EQ(empty.ipc(), 0.0);
  EXPECT_DOUBLE_EQ(empty.dram_bytes(), 0.0);
  EXPECT_FALSE(empty.hardware());
}

TEST(PmuSample, SoftwareOnlyIsNotHardware) {
  pmu::Sample s;
  s.valid_mask = (1u << static_cast<int>(pmu::Event::TaskClock)) |
                 (1u << static_cast<int>(pmu::Event::PageFaults));
  EXPECT_TRUE(s.any());
  EXPECT_FALSE(s.hardware());
}

// --- span enrichment ------------------------------------------------------

#if !defined(TEMPEST_TRACE_DISABLED)

TEST(PmuSpans, EnrichmentAttachesSlotsToEvents) {
  HookGuard guard;
  pmu::set_open_hook_for_testing(nullptr);
  pmu::reset_for_testing();
  if (!pmu::availability().any) {
    GTEST_SKIP() << "PMU unavailable: " << pmu::availability().reason;
  }

  trace::set_enabled(true);
  trace::reset();
  pmu::enable_span_enrichment();
  EXPECT_TRUE(pmu::span_enrichment_enabled());
  {
    TEMPEST_TRACE_SPAN("pmu_test.enriched", "test");
    volatile double sink = 0.0;
    for (int i = 0; i < 100000; ++i) sink = sink + 1e-9 * i;
  }
  pmu::disable_span_enrichment();
  EXPECT_FALSE(pmu::span_enrichment_enabled());

  const auto events = trace::events();
  ASSERT_EQ(events.size(), 1u);
  EXPECT_EQ(events[0].n_slots, pmu::kNumEvents);
  ASSERT_NE(events[0].slot_names, nullptr);
  EXPECT_STREQ(events[0].slot_names[0], "cycles");
  for (int i = 0; i < events[0].n_slots; ++i) {
    EXPECT_GE(events[0].slots[static_cast<std::size_t>(i)], 0);
  }

  // The sinks speak schema v2 for enriched runs...
  std::ostringstream json;
  trace::write_metrics_json(json);
  EXPECT_NE(json.str().find("\"schema_version\":2"), std::string::npos);
  EXPECT_NE(json.str().find("\"pmu\":"), std::string::npos);
  std::ostringstream csv;
  trace::write_metrics_csv(csv);
  EXPECT_NE(csv.str().find("schema,version,2"), std::string::npos);
  EXPECT_NE(csv.str().find("span_pmu_"), std::string::npos);

  std::ostringstream chrome;
  trace::write_chrome_trace(chrome);
  EXPECT_NE(chrome.str().find("\"args\""), std::string::npos);

  trace::set_enabled(false);
  trace::reset();
}

TEST(PmuSpans, OutputUnchangedWhenEnrichmentOff) {
  // No enrichment => the sinks carry the schema marker and no PMU rows.
  trace::set_enabled(true);
  trace::reset();
  {
    TEMPEST_TRACE_SPAN("pmu_test.plain", "test");
  }
  const auto events = trace::events();
  ASSERT_EQ(events.size(), 1u);
  EXPECT_EQ(events[0].n_slots, 0);

  std::ostringstream json;
  trace::write_metrics_json(json);
  EXPECT_EQ(json.str().rfind("{\"schema_version\":2,\"counters\":{", 0), 0u)
      << json.str();
  EXPECT_EQ(json.str().find("\"pmu\":"), std::string::npos);
  std::ostringstream csv;
  trace::write_metrics_csv(csv);
  EXPECT_EQ(csv.str().rfind("kind,name,value\nschema,version,2\n", 0), 0u)
      << csv.str();
  EXPECT_EQ(csv.str().find("span_pmu_"), std::string::npos);

  trace::set_enabled(false);
  trace::reset();
}

#endif  // !TEMPEST_TRACE_DISABLED

// --- report: derived rates + model-vs-measured validation -----------------

TEST(Report, DeriveRatesModelOnlyWithoutHardware) {
  const pmu::Sample none;
  const pf::DerivedRates r = pf::derive_rates(1'000'000'000ll, 50.0, 10.0,
                                              none);
  EXPECT_DOUBLE_EQ(r.model_gflops, 5.0);
  EXPECT_DOUBLE_EQ(r.measured_dram_gbps, 0.0);
  EXPECT_DOUBLE_EQ(r.measured_ai, 0.0);
  EXPECT_FALSE(r.pmu_hardware);
}

TEST(Report, DeriveRatesWithMeasuredTraffic) {
  pmu::Sample s;
  auto set = [&](pmu::Event e, long long v) {
    s.value[static_cast<std::size_t>(e)] = v;
    s.valid_mask |= 1u << static_cast<int>(e);
  };
  set(pmu::Event::Cycles, 1000);
  set(pmu::Event::Instructions, 3000);
  set(pmu::Event::L1dMisses, 2000);
  set(pmu::Event::LlcMisses, 1000);
  // 1e9 updates x 10 flops in 2 s; 1000 LLC misses x 64 B = 64 kB DRAM.
  const pf::DerivedRates r = pf::derive_rates(1'000'000'000ll, 10.0, 2.0, s);
  EXPECT_DOUBLE_EQ(r.model_gflops, 5.0);
  EXPECT_DOUBLE_EQ(r.measured_dram_gbps, 64000.0 / 2.0 / 1e9);
  EXPECT_DOUBLE_EQ(r.measured_l2_gbps, 128000.0 / 2.0 / 1e9);
  EXPECT_DOUBLE_EQ(r.measured_ai, 1e10 / 64000.0);
  EXPECT_DOUBLE_EQ(r.ipc, 3.0);
  EXPECT_TRUE(r.pmu_hardware);
}

TEST(Report, ValidateTrafficVerdicts) {
  using pf::Verdict;
  // Agreement within 2x in either direction: Pass.
  EXPECT_EQ(pf::validate_traffic("a", 100.0, 150.0, true).verdict,
            Verdict::Pass);
  EXPECT_EQ(pf::validate_traffic("b", 150.0, 100.0, true).verdict,
            Verdict::Pass);
  // Between 2x and 8x: Warn, both directions.
  EXPECT_EQ(pf::validate_traffic("c", 100.0, 300.0, true).verdict,
            Verdict::Warn);
  EXPECT_EQ(pf::validate_traffic("d", 300.0, 100.0, true).verdict,
            Verdict::Warn);
  // Beyond 8x: Fail.
  EXPECT_EQ(pf::validate_traffic("e", 100.0, 1000.0, true).verdict,
            Verdict::Fail);
  // Valid PMU but zero measured against real predicted traffic: Fail
  // (the counters plainly missed the workload).
  EXPECT_EQ(pf::validate_traffic("f", 1000.0, 0.0, true).verdict,
            Verdict::Fail);
  // No measurement: Unavailable, never Fail.
  EXPECT_EQ(pf::validate_traffic("g", 1000.0, 0.0, false).verdict,
            Verdict::Unavailable);
  EXPECT_STREQ(pf::to_string(Verdict::Pass), "pass");
  EXPECT_STREQ(pf::to_string(Verdict::Unavailable), "unavailable");

  const pf::TrafficValidation v = pf::validate_traffic("h", 100.0, 50.0,
                                                       true);
  EXPECT_DOUBLE_EQ(v.ratio, 0.5);
  EXPECT_EQ(v.name, "h");
}

// --- cachesim vs measured smoke test --------------------------------------

TEST(Validation, CachesimVsMeasuredSmoke) {
  if (!pmu::availability().hardware) {
    GTEST_SKIP() << "hardware PMU unavailable ("
                 << pmu::availability().reason
                 << "): model-vs-measured comparison has nothing to "
                    "compare against";
  }
  // Stream over a buffer far larger than any LLC: nearly every line is a
  // compulsory miss, so measured DRAM traffic must be within tolerance of
  // the streamed bytes.
  constexpr std::size_t kBytes = 64ull * 1024 * 1024;
  std::vector<char> buf(kBytes, 1);
  const pmu::PmuRegion region;
  long long sum = 0;
  for (std::size_t i = 0; i < kBytes; i += 64) sum += buf[i];
  const pmu::Sample d = region.delta();
  ASSERT_TRUE(d.valid(pmu::Event::LlcMisses));
  const pf::TrafficValidation v = pf::validate_traffic(
      "stream/dram", static_cast<double>(kBytes), d.dram_bytes(), true,
      /*warn_ratio=*/4.0, /*fail_ratio=*/16.0);
  EXPECT_NE(v.verdict, pf::Verdict::Fail)
      << "measured " << v.measured_bytes << " B vs streamed "
      << v.predicted_bytes << " B (ratio " << v.ratio << ")";
  (void)sum;
}

// --- calibration caching --------------------------------------------------

TEST(CalibrateCache, HitsOnMatchingFingerprintMissesOnMismatch) {
  const std::string path = "pmu_test_ceilings.json";
  std::remove(path.c_str());

  // Fabricate a cache with sentinel ceilings under the *real* fingerprint:
  // load_or_calibrate must serve it verbatim, proving no recalibration.
  auto write_cache = [&](const std::string& fp, int quick) {
    std::ofstream out(path);
    tempest::util::JsonWriter w(out);
    w.begin_object();
    w.field("schema", "tempest-ceilings-v1");
    w.field("fingerprint", fp);
    w.field("quick", quick);
    w.field("peak_gflops", 123.5);
    w.field("l1_gbps", 101.0);
    w.field("l2_gbps", 102.0);
    w.field("l3_gbps", 103.0);
    w.field("dram_gbps", 104.0);
    w.end_object();
  };

  write_cache(pf::host_fingerprint(), /*quick=*/0);
  const pf::MachineCeilings hit =
      pf::load_or_calibrate(/*quick=*/true, /*force=*/false, path);
  EXPECT_DOUBLE_EQ(hit.peak_gflops, 123.5);
  EXPECT_DOUBLE_EQ(hit.dram_gbps, 104.0);

  // A full-precision cache also serves a quick request, but a quick cache
  // must not serve a full request — covered by the flag logic; here we
  // exercise the cheap-side: fingerprint mismatch forces recalibration
  // and rewrites the file under the real fingerprint.
  write_cache("some other machine | cpus=64 | threads=64", /*quick=*/0);
  const pf::MachineCeilings miss =
      pf::load_or_calibrate(/*quick=*/true, /*force=*/false, path);
  EXPECT_GT(miss.peak_gflops, 0.0);
  EXPECT_NE(miss.peak_gflops, 123.5);

  std::ifstream in(path);
  std::stringstream ss;
  ss << in.rdbuf();
  EXPECT_NE(ss.str().find(pf::host_fingerprint()), std::string::npos);
  EXPECT_EQ(ss.str().find("some other machine"), std::string::npos);

  // And the rewritten cache now hits.
  const pf::MachineCeilings hit2 =
      pf::load_or_calibrate(/*quick=*/true, /*force=*/false, path);
  EXPECT_DOUBLE_EQ(hit2.peak_gflops, miss.peak_gflops);

  std::remove(path.c_str());
}

// --- JsonWriter -----------------------------------------------------------

TEST(JsonWriter, StructureEscapingAndNonFinite) {
  std::ostringstream os;
  {
    tempest::util::JsonWriter w(os);
    w.begin_object();
    w.field("s", "a\"b\\c\nd");
    w.field("i", 42);
    w.field("b", true);
    w.field("nan", std::nan(""));
    w.key("arr");
    w.begin_array();
    w.value(1.5);
    w.null();
    w.end_array();
    w.key("empty");
    w.begin_object();
    w.end_object();
    w.end_object();
  }
  const std::string out = os.str();
  EXPECT_NE(out.find("\"s\": \"a\\\"b\\\\c\\nd\""), std::string::npos)
      << out;
  EXPECT_NE(out.find("\"i\": 42"), std::string::npos);
  EXPECT_NE(out.find("\"b\": true"), std::string::npos);
  EXPECT_NE(out.find("\"nan\": null"), std::string::npos);
  EXPECT_NE(out.find("1.5"), std::string::npos);

  // Must parse: balanced braces/brackets (cheap structural check without
  // a parser dependency).
  int depth = 0;
  bool in_str = false, esc = false;
  for (const char c : out) {
    if (esc) { esc = false; continue; }
    if (in_str) {
      if (c == '\\') esc = true;
      else if (c == '"') in_str = false;
      continue;
    }
    if (c == '"') in_str = true;
    else if (c == '{' || c == '[') ++depth;
    else if (c == '}' || c == ']') --depth;
    EXPECT_GE(depth, 0);
  }
  EXPECT_EQ(depth, 0);
  EXPECT_FALSE(in_str);
}
