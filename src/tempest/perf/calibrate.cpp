#include "tempest/perf/calibrate.hpp"

#include <algorithm>
#include <cstdlib>
#include <fstream>
#include <sstream>
#include <thread>
#include <vector>

#include "tempest/util/align.hpp"
#include "tempest/util/error.hpp"
#include "tempest/util/json.hpp"
#include "tempest/util/log.hpp"
#include "tempest/util/threads.hpp"
#include "tempest/util/timer.hpp"

namespace tempest::perf {

double triad_bandwidth_gbps(std::size_t bytes, int repetitions) {
  TEMPEST_REQUIRE(bytes >= 3 * 64 && repetitions > 0);
  const std::size_t n = bytes / (3 * sizeof(float));
  util::aligned_vector<float> a(n, 0.0f), b(n, 1.0f), c(n, 2.0f);
  const float s = 3.0f;

  // Small working sets finish one pass below timer resolution: batch enough
  // passes that each sample spans at least ~10 ms of work. A sample is one
  // parallel region in which every worker streams its own contiguous part
  // of the arrays `batch` times, so a part stays in its worker's caches and
  // the sample times the memory system, not one fork/join per pass.
  const std::size_t batch = std::max<std::size_t>(
      1, (64ull * 1024 * 1024) / std::max<std::size_t>(bytes, 1));
  const int threads = util::resolve_threads();

  auto sample = [&](std::size_t passes) {
    util::parallel_for(threads, threads, [&](int part) {
      const std::size_t begin = n * static_cast<std::size_t>(part) /
                                static_cast<std::size_t>(threads);
      const std::size_t end = n * static_cast<std::size_t>(part + 1) /
                              static_cast<std::size_t>(threads);
      float* __restrict pa = a.data();
      const float* __restrict pb = b.data();
      const float* __restrict pc = c.data();
      for (std::size_t k = 0; k < passes; ++k) {
#pragma omp simd
        for (std::size_t i = begin; i < end; ++i) pa[i] = pb[i] + s * pc[i];
      }
    });
  };

  sample(1);  // warm up (faults pages, loads caches)
  double best = 0.0;
  for (int rep = 0; rep < repetitions; ++rep) {
    util::Timer t;
    sample(batch);
    const double secs = t.seconds();
    // triad moves 2 reads + 1 write per element.
    const double gbps = 3.0 * static_cast<double>(n) * sizeof(float) *
                        static_cast<double>(batch) / secs / 1e9;
    best = std::max(best, gbps);
  }
  return best;
}

double fma_peak_gflops(int repetitions) {
  TEMPEST_REQUIRE(repetitions > 0);
  // A bank of 64 independent lanes keeps every lane's dependency chain
  // short. The lanes live in four 16-float vector variables, which the
  // compiler keeps in registers across the loop (a lane array indexed
  // inside the worker lambda goes through the stack every iteration).
  // Under -ffp-contract=off each update is a multiply plus an add, not an
  // FMA: the right ceiling for kernels built the same way.
  using Vec = float __attribute__((vector_size(64)));
  constexpr int kWidth = static_cast<int>(sizeof(Vec) / sizeof(float));
  constexpr int kLanes = 4 * kWidth;

  const int threads = util::resolve_threads();

  // A sample shorter than ~10 ms measures the parallel region's fork/join
  // more than the arithmetic: such a sample doubles the iteration count and
  // is not counted.
  long iters = 200000;
  double best = 0.0;
  volatile float sink = 0.0f;
  std::vector<float> sums(static_cast<std::size_t>(threads));
  for (int rep = 0; rep < repetitions;) {
    util::Timer t;
    util::parallel_for(threads, threads, [&](int part) {
      Vec a0, a1, a2, a3, d0, d1, d2, d3;
      Vec mul;
      for (int i = 0; i < kWidth; ++i) {
        // Lane l = v * kWidth + i of vector v starts at 0.5 + 1e-6 l and
        // adds 1e-7 (l + 1) per iteration.
        const float l = static_cast<float>(i);
        const float w = static_cast<float>(kWidth);
        a0[i] = 0.5f + 1e-6f * l;
        a1[i] = 0.5f + 1e-6f * (l + w);
        a2[i] = 0.5f + 1e-6f * (l + 2.0f * w);
        a3[i] = 0.5f + 1e-6f * (l + 3.0f * w);
        d0[i] = 1e-7f * (l + 1.0f);
        d1[i] = 1e-7f * (l + w + 1.0f);
        d2[i] = 1e-7f * (l + 2.0f * w + 1.0f);
        d3[i] = 1e-7f * (l + 3.0f * w + 1.0f);
        mul[i] = 0.999999f;
      }
      for (long it = 0; it < iters; ++it) {
        a0 = a0 * mul + d0;
        a1 = a1 * mul + d1;
        a2 = a2 * mul + d2;
        a3 = a3 * mul + d3;
      }
      float local = 0.0f;
      for (int i = 0; i < kWidth; ++i) local += a0[i] + a1[i] + a2[i] + a3[i];
      sums[static_cast<std::size_t>(part)] = local;
    });
    const double secs = t.seconds();
    for (const float v : sums) sink = sink + v;
    if (secs < 0.01) {
      iters *= 2;
      continue;
    }
    const double flops =
        2.0 * kLanes * static_cast<double>(iters) * threads;
    best = std::max(best, flops / secs / 1e9);
    ++rep;
  }
  (void)sink;
  return best;
}

MachineCeilings calibrate(bool quick) {
  const int reps = quick ? 2 : 6;
  MachineCeilings m;
  m.peak_gflops = fma_peak_gflops(reps);
  m.l1_gbps = triad_bandwidth_gbps(16 * 1024, reps);
  m.l2_gbps = triad_bandwidth_gbps(128 * 1024, reps);
  m.l3_gbps = triad_bandwidth_gbps(4 * 1024 * 1024, reps);
  m.dram_gbps = triad_bandwidth_gbps(256ull * 1024 * 1024, reps);
  return m;
}

namespace {

/// First "model name" line of /proc/cpuinfo, or a portable fallback.
std::string cpu_model() {
  std::ifstream in("/proc/cpuinfo");
  std::string line;
  while (std::getline(in, line)) {
    if (line.rfind("model name", 0) == 0) {
      const std::size_t colon = line.find(':');
      if (colon != std::string::npos) {
        std::size_t begin = colon + 1;
        while (begin < line.size() && line[begin] == ' ') ++begin;
        return line.substr(begin);
      }
    }
  }
  return "unknown-cpu";
}

/// Extract the number following "key": in a flat JSON object written by
/// the JsonWriter below. Good enough for our own file; any malformed
/// content fails the fingerprint check and triggers recalibration.
bool scan_number(const std::string& text, const std::string& key,
                 double* out) {
  const std::string needle = "\"" + key + "\":";
  const std::size_t at = text.find(needle);
  if (at == std::string::npos) return false;
  const char* start = text.c_str() + at + needle.size();
  char* end = nullptr;
  const double v = std::strtod(start, &end);
  if (end == start) return false;
  *out = v;
  return true;
}

bool scan_string(const std::string& text, const std::string& key,
                 std::string* out) {
  const std::string needle = "\"" + key + "\": \"";
  const std::size_t at = text.find(needle);
  if (at == std::string::npos) return false;
  const std::size_t begin = at + needle.size();
  const std::size_t end = text.find('"', begin);
  if (end == std::string::npos) return false;
  *out = text.substr(begin, end - begin);
  return true;
}

}  // namespace

std::string host_fingerprint() {
  std::ostringstream os;
  os << cpu_model() << " | cpus=" << std::thread::hardware_concurrency()
     << " | threads=" << util::resolve_threads();
  return os.str();
}

MachineCeilings load_or_calibrate(bool quick, bool force,
                                  const std::string& path) {
  const std::string fp = host_fingerprint();
  if (!force) {
    std::ifstream in(path);
    if (in) {
      std::stringstream ss;
      ss << in.rdbuf();
      const std::string text = ss.str();
      std::string cached_fp;
      double cached_quick = 1.0;
      MachineCeilings m;
      const bool ok =
          scan_string(text, "fingerprint", &cached_fp) && cached_fp == fp &&
          scan_number(text, "quick", &cached_quick) &&
          // A quick-mode cache must not serve a full-precision request.
          (quick || cached_quick == 0.0) &&
          scan_number(text, "peak_gflops", &m.peak_gflops) &&
          scan_number(text, "l1_gbps", &m.l1_gbps) &&
          scan_number(text, "l2_gbps", &m.l2_gbps) &&
          scan_number(text, "l3_gbps", &m.l3_gbps) &&
          scan_number(text, "dram_gbps", &m.dram_gbps) && m.peak_gflops > 0 &&
          m.l1_gbps > 0 && m.l2_gbps > 0 && m.l3_gbps > 0 && m.dram_gbps > 0;
      if (ok) {
        util::info("calibrate: reusing cached machine ceilings from " + path);
        return m;
      }
    }
  }

  const MachineCeilings m = calibrate(quick);
  std::ofstream out(path);
  if (out) {
    util::JsonWriter w(out);
    w.begin_object();
    w.field("schema", "tempest-ceilings-v1");
    w.field("fingerprint", fp);
    w.field("quick", quick ? 1 : 0);
    w.field("peak_gflops", m.peak_gflops);
    w.field("l1_gbps", m.l1_gbps);
    w.field("l2_gbps", m.l2_gbps);
    w.field("l3_gbps", m.l3_gbps);
    w.field("dram_gbps", m.dram_gbps);
    w.end_object();
  } else {
    util::warn("calibrate: could not persist ceilings to " + path +
               " (continuing uncached)");
  }
  return m;
}

}  // namespace tempest::perf
