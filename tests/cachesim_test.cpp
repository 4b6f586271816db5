#include <gtest/gtest.h>

#include "tempest/cachesim/cache.hpp"
#include "tempest/cachesim/instrumented_acoustic.hpp"
#include "tempest/util/error.hpp"

namespace cs = tempest::cachesim;
namespace tc = tempest::core;

namespace {
// Tiny direct-mapped-ish configs so behaviour is easy to reason about.
constexpr cs::CacheConfig kTinyL1{1024, 2, 64};    // 8 sets
constexpr cs::CacheConfig kTinyL2{8192, 4, 64};    // 32 sets
constexpr cs::CacheConfig kTinyL3{65536, 8, 64};   // 128 sets
}  // namespace

TEST(CacheLevel, ColdMissThenHit) {
  cs::CacheLevel c(kTinyL1);
  EXPECT_FALSE(c.access(0x1000, false).hit);
  EXPECT_TRUE(c.access(0x1000, false).hit);
  EXPECT_TRUE(c.access(0x1020, false).hit);  // same 64B line
  EXPECT_FALSE(c.access(0x1040, false).hit);  // next line
  EXPECT_EQ(c.hits(), 2u);
  EXPECT_EQ(c.misses(), 2u);
}

TEST(CacheLevel, LruEviction) {
  cs::CacheLevel c(kTinyL1);  // 8 sets x 2 ways; set stride = 8*64 = 512
  // Three lines mapping to set 0: 0x0, 0x200, 0x400.
  EXPECT_FALSE(c.access(0x000, false).hit);
  EXPECT_FALSE(c.access(0x200, false).hit);
  EXPECT_TRUE(c.access(0x000, false).hit);   // refresh 0x0: LRU is 0x200
  EXPECT_FALSE(c.access(0x400, false).hit);  // evicts 0x200
  EXPECT_TRUE(c.access(0x000, false).hit);
  EXPECT_FALSE(c.access(0x200, false).hit);  // was evicted
}

TEST(CacheLevel, DirtyEvictionReportsWriteback) {
  cs::CacheLevel c(kTinyL1);
  (void)c.access(0x000, true);  // dirty line in set 0
  (void)c.access(0x200, false);
  const auto r = c.access(0x400, false);  // evicts LRU = dirty 0x000
  EXPECT_TRUE(r.writeback);
  EXPECT_EQ(r.writeback_addr, 0x000u);
  EXPECT_EQ(c.writebacks(), 1u);
}

TEST(CacheLevel, CleanEvictionNoWriteback) {
  cs::CacheLevel c(kTinyL1);
  (void)c.access(0x000, false);
  (void)c.access(0x200, false);
  EXPECT_FALSE(c.access(0x400, false).writeback);
}

TEST(CacheLevel, RejectsBadGeometry) {
  EXPECT_THROW(cs::CacheLevel({1000, 3, 64}), tempest::util::PreconditionError);
}

TEST(Hierarchy, StreamingTrafficScalesWithFootprint) {
  cs::CacheHierarchy h(kTinyL1, kTinyL2, kTinyL3);
  // Stream 1 MiB of reads: way beyond L3, so DRAM traffic ~= footprint.
  const std::uint64_t total = 1 << 20;
  for (std::uint64_t a = 0; a < total; a += 64) h.load(a);
  EXPECT_DOUBLE_EQ(h.traffic().dram_bytes, static_cast<double>(total));
  EXPECT_DOUBLE_EQ(h.traffic().l2_bytes, static_cast<double>(total));
}

TEST(Hierarchy, ResidentWorkingSetHitsInL1) {
  cs::CacheHierarchy h(kTinyL1, kTinyL2, kTinyL3);
  // 512 B working set fits L1: after the first pass everything hits.
  for (int pass = 0; pass < 10; ++pass) {
    for (std::uint64_t a = 0; a < 512; a += 64) h.load(a);
  }
  EXPECT_DOUBLE_EQ(h.traffic().dram_bytes, 512.0);  // compulsory only
  EXPECT_EQ(h.l1().misses(), 8u);
  EXPECT_EQ(h.l1().hits(), 72u);
}

TEST(Hierarchy, L2ResidentSetServesFromL2) {
  cs::CacheHierarchy h(kTinyL1, kTinyL2, kTinyL3);
  // 4 KiB set: spills L1 (1 KiB) but fits L2 (8 KiB).
  for (int pass = 0; pass < 8; ++pass) {
    for (std::uint64_t a = 0; a < 4096; a += 64) h.load(a);
  }
  // DRAM saw only the compulsory fills.
  EXPECT_DOUBLE_EQ(h.traffic().dram_bytes, 4096.0);
  EXPECT_GT(h.traffic().l2_bytes, 4096.0 * 4);  // L1 keeps missing
}

TEST(Hierarchy, WritebackPropagatesDirtyData) {
  cs::CacheHierarchy h(kTinyL1, kTinyL2, kTinyL3);
  // Dirty 256 KiB (beyond L3): every line eventually written back to DRAM.
  const std::uint64_t total = 256 * 1024;
  for (std::uint64_t a = 0; a < total; a += 64) h.store(a);
  for (std::uint64_t a = 0; a < total; a += 64) h.load(a + (1 << 24));
  // Fills for both regions plus write-backs of the dirty one.
  EXPECT_GE(h.traffic().dram_bytes, static_cast<double>(2 * total));
}

TEST(Hierarchy, StraddlingAccessTouchesTwoLines) {
  cs::CacheHierarchy h(kTinyL1, kTinyL2, kTinyL3);
  h.access(60, 8, false);  // crosses the 64B boundary
  EXPECT_EQ(h.l1().misses(), 2u);
}

TEST(Hierarchy, ResetClearsCountersAndTraffic) {
  cs::CacheHierarchy h(kTinyL1, kTinyL2, kTinyL3);
  for (std::uint64_t a = 0; a < 4096; a += 64) h.load(a);
  h.reset();
  EXPECT_EQ(h.l1().misses(), 0u);
  EXPECT_DOUBLE_EQ(h.traffic().dram_bytes, 0.0);
}

TEST(Trace, WavefrontReducesDramTraffic) {
  // The headline mechanism of the paper at trace level: on a grid whose
  // per-timestep working set exceeds the simulated LLC, wave-front temporal
  // blocking must move traffic from DRAM into the cache hierarchy.
  cs::TraceConfig base;
  base.extents = {40, 40, 40};
  base.space_order = 4;
  base.t_begin = 1;
  base.t_end = 9;
  base.tiles = tc::TileSpec{8, 16, 16, 8, 8};
  base.wavefront = false;

  // Scaled-down hierarchy: u slice = 40^3*4B = 256 KiB, 5 live fields
  // ~1.3 MiB >> 256 KiB L3.
  const cs::CacheConfig l1{8 * 1024, 8, 64};
  const cs::CacheConfig l2{64 * 1024, 8, 64};
  const cs::CacheConfig l3{256 * 1024, 16, 64};

  cs::CacheHierarchy h_base(l1, l2, l3);
  const long long updates_base = cs::replay_acoustic_trace(base, h_base);

  cs::TraceConfig wave = base;
  wave.wavefront = true;
  cs::CacheHierarchy h_wave(l1, l2, l3);
  const long long updates_wave = cs::replay_acoustic_trace(wave, h_wave);

  // Identical work...
  EXPECT_EQ(updates_base, updates_wave);
  EXPECT_EQ(updates_base, 8ll * 40 * 40 * 40);
  EXPECT_DOUBLE_EQ(h_base.traffic().l1_bytes, h_wave.traffic().l1_bytes);
  // ...but meaningfully less DRAM traffic under temporal blocking.
  EXPECT_LT(h_wave.traffic().dram_bytes, 0.8 * h_base.traffic().dram_bytes);
}

TEST(Trace, TrafficLowerBoundIsCompulsory) {
  cs::TraceConfig cfg;
  cfg.extents = {24, 24, 24};
  cfg.space_order = 4;
  cfg.t_begin = 1;
  cfg.t_end = 3;
  cfg.tiles = tc::TileSpec{2, 16, 16, 8, 8};
  cfg.wavefront = true;
  cs::CacheHierarchy h({8 * 1024, 8, 64}, {64 * 1024, 8, 64},
                       {256 * 1024, 16, 64});
  (void)cs::replay_acoustic_trace(cfg, h);
  // At minimum the five fields' padded footprints are touched once.
  const double one_field = 28.0 * 28.0 * 28.0 * 4.0;  // padded by halo 2
  EXPECT_GT(h.traffic().dram_bytes, 3.0 * one_field);
}
