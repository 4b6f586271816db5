#include <dlfcn.h>
#include <gtest/gtest.h>
#include <sys/stat.h>
#include <unistd.h>

#include <filesystem>
#include <fstream>
#include <functional>
#include <string>

#include "tempest/codegen/jit.hpp"
#include "tempest/dsl/lower.hpp"
#include "tempest/physics/acoustic.hpp"
#include "tempest/sparse/survey.hpp"
#include "tempest/sparse/wavelet.hpp"

namespace cg = tempest::codegen;
namespace dsl = tempest::dsl;
namespace ph = tempest::physics;
namespace sp = tempest::sparse;
namespace tg = tempest::grid;
namespace tc = tempest::core;
using tempest::real_t;

namespace {

constexpr tg::Extents3 kE{20, 18, 16};

struct Setup {
  ph::AcousticModel model;
  sp::SparseTimeSeries src;
  int nt;
};

Setup make_setup(int so, int nt) {
  ph::Geometry g{kE, 10.0, so, 4};
  Setup s{ph::make_acoustic_layered(g, 1.5, 3.0, 3),
          sp::SparseTimeSeries(sp::single_center_source(kE, 0.4), nt), nt};
  s.src.broadcast_signature(sp::ricker(nt, s.model.critical_dt(), 0.02));
  return s;
}

/// Run the propagator `make(threads)` builds under `sched` at 1 and at 8
/// threads; the two final wavefields must be byte-equal. Returns the field.
template <typename Make>
tg::Grid3<real_t> run_at_1_and_8(const Make& make, ph::Schedule sched,
                                 const Setup& s) {
  auto serial = make(1);
  serial.run(sched, s.src);
  auto parallel = make(8);
  parallel.run(sched, s.src);
  EXPECT_EQ(tg::max_abs_diff(serial.wavefield(s.nt), parallel.wavefield(s.nt)),
            0.0)
      << ph::to_string(sched);
  return serial.wavefield(s.nt);
}

dsl::Eq acoustic_eq() {
  dsl::Grid g;
  dsl::TimeFunction u("u", g, 4, 2);
  return dsl::solve(dsl::param("m") * u.dt2() + dsl::param("damp") * u.dt() -
                        u.laplace(),
                    u.forward());
}

/// Occurrences of `needle` in `hay`.
int count(const std::string& hay, const std::string& needle) {
  int n = 0;
  for (auto p = hay.find(needle); p != std::string::npos;
       p = hay.find(needle, p + 1)) {
    ++n;
  }
  return n;
}

/// What every emitted translation unit must look like: one external
/// function — the per-box update — and nothing of a time or tile loop or
/// of the sparse operators, which the engine owns.
void expect_block_only(const std::string& code, const std::string& symbol) {
  EXPECT_EQ(count(code, "\nvoid "), 1);
  EXPECT_NE(code.find("\nvoid " + symbol + "("), std::string::npos);
  EXPECT_EQ(code.find("static"), std::string::npos);
  EXPECT_EQ(code.find("#define"), std::string::npos);
  for (const char* gone :
       {"t_begin", "tile_t", "slope", "inject_block", "cs_offsets", "dcmp"}) {
    EXPECT_EQ(code.find(gone), std::string::npos) << gone;
  }
}

}  // namespace

TEST(Emit, SourceContainsExpectedStructure) {
  cg::KernelSpec spec;
  spec.space_order = 4;
  spec.wavefront = true;
  spec.tiles = tc::TileSpec{4, 16, 16, 8, 8};
  const std::string code = cg::emit_acoustic_c(spec);
  // Weights appear as literals (O(2,4) centre weight is 3*-2.5 = -7.5).
  EXPECT_NE(code.find("-7.5"), std::string::npos);
  expect_block_only(code, spec.symbol());
  // The schedule fields are not read: a space-blocked spec emits the same.
  cg::KernelSpec base = spec;
  base.wavefront = false;
  base.tiles = tc::TileSpec{};
  EXPECT_EQ(cg::emit_acoustic_c(base), code);

  const dsl::LoweredKernel lowered =
      dsl::lower_kernel(acoustic_eq(), 4, 10.0, 0.5, "dslacoustic");
  cg::KernelSpec dspec = spec;
  dspec.kernel = lowered.name;
  const std::string dcode = cg::emit_dsl_c(lowered, dspec);
  expect_block_only(dcode, dspec.symbol());
  EXPECT_NE(dcode.find("prm[0]"), std::string::npos);
}

TEST(Emit, SymbolNamesEncodeSpec) {
  cg::KernelSpec spec;
  spec.space_order = 8;
  EXPECT_EQ(spec.symbol(), "tempest_acoustic_block_so8");
  spec.wavefront = true;  // not part of the block
  spec.tiles = tc::TileSpec{2, 16, 16, 4, 4};
  EXPECT_EQ(spec.symbol(), "tempest_acoustic_block_so8");
  spec.kernel = "sponge";
  spec.space_order = 4;
  EXPECT_EQ(spec.symbol(), "tempest_sponge_block_so4");
}

// A kernel name is spliced into the C source and the symbol: one that is
// not a C identifier is the caller's error at emit time, never a compile
// failure the JIT would retry and then silently fall back from.
TEST(Emit, RejectsKernelNamesThatAreNotCIdentifiers) {
  const auto s = make_setup(4, 8);
  const dsl::Eq eq = acoustic_eq();
  const dsl::LoweredKernel lowered = dsl::lower_kernel(eq, 4, 10.0, 0.5);
  const auto expect_precondition = [](const std::function<void()>& f) {
    try {
      f();
      ADD_FAILURE() << "accepted a kernel name that is not a C identifier";
    } catch (const cg::JitCompileError& e) {
      ADD_FAILURE() << "surfaced as a compile failure: " << e.what();
    } catch (const tempest::util::PreconditionError&) {
    }
  };
  for (const char* bad : {"a b", "x*/y", "", "9lives"}) {
    SCOPED_TRACE(bad);
    cg::KernelSpec spec;
    spec.kernel = bad;
    expect_precondition([&] { (void)cg::emit_acoustic_c(spec); });
    expect_precondition([&] { (void)cg::emit_dsl_c(lowered, spec); });
    expect_precondition([&] { cg::JitAcoustic jit(s.model, spec); });
    expect_precondition([&] { cg::JitDsl jit(eq, s.model, spec); });
  }
  cg::KernelSpec ok;
  ok.kernel = "_k9";
  EXPECT_NO_THROW((void)cg::emit_acoustic_c(ok));
}

TEST(Jit, RejectsInvalidSource) {
  EXPECT_THROW(cg::JitModule("this is not C;", "nope"),
               tempest::util::PreconditionError);
}

TEST(Jit, RejectsMissingSymbol) {
  EXPECT_THROW(cg::JitModule("int the_wrong_symbol(void) { return 1; }",
                             "the_right_symbol"),
               tempest::util::PreconditionError);
}

TEST(Jit, CompilesAndCallsTrivialFunction) {
  cg::JitModule mod("int tempest_answer(void) { return 42; }",
                    "tempest_answer");
  auto* fn = mod.as<int(void)>();
  EXPECT_EQ(fn(), 42);
}

// The loaded object sits in a directory only this process's user can
// enter, and the directory goes with the module.
TEST(Jit, ModuleCompilesInAPrivateDirectory) {
  std::string dir;
  {
    cg::JitModule mod("int tempest_private(void) { return 3; }",
                      "tempest_private");
    Dl_info info{};
    ASSERT_NE(::dladdr(mod.symbol(), &info), 0);
    ASSERT_NE(info.dli_fname, nullptr);
    dir = std::filesystem::path(info.dli_fname).parent_path().string();
    struct stat st {};
    ASSERT_EQ(::stat(dir.c_str(), &st), 0) << dir;
    EXPECT_TRUE(S_ISDIR(st.st_mode));
    EXPECT_EQ(st.st_mode & 0777, 0700u) << dir;
    EXPECT_EQ(st.st_uid, ::getuid());
    EXPECT_EQ(mod.as<int(void)>()(), 3);
  }
  EXPECT_FALSE(std::filesystem::exists(dir)) << dir;
}

TEST(Jit, GeneratedSpaceBlockedMatchesAotPropagator) {
  auto s = make_setup(4, 16);

  ph::AcousticPropagator aot(s.model);
  aot.run(ph::Schedule::Wavefront, s.src, nullptr);  // dcmp-based injection
  const auto u_aot = aot.wavefield(s.nt);

  cg::KernelSpec spec;
  spec.space_order = 4;
  const auto u_jit = run_at_1_and_8(
      [&](int threads) {
        ph::PropagatorOptions opts;
        opts.threads = threads;
        cg::JitAcoustic jit(s.model, spec, opts);
        EXPECT_TRUE(jit.compiled()) << jit.compile_error();
        return jit;
      },
      ph::Schedule::SpaceBlocked, s);

  const double umax = tg::max_abs(u_aot);
  ASSERT_GT(umax, 0.0);
  // Same arithmetic compiled by the same compiler backend; tolerance
  // guards against benign reassociation differences between TUs.
  EXPECT_LT(tg::max_abs_diff(u_aot, u_jit), 1e-5 * umax);
}

class JitOrderSweep : public ::testing::TestWithParam<int> {};

TEST_P(JitOrderSweep, GeneratedWavefrontMatchesAotAcrossOrders) {
  const int so = GetParam();
  auto s = make_setup(so, 14);

  ph::PropagatorOptions opts;
  opts.tiles = tc::TileSpec{4, 8, 8, 4, 4};
  ph::AcousticPropagator aot(s.model, opts);
  aot.run(ph::Schedule::Wavefront, s.src, nullptr);
  const auto u_aot = aot.wavefield(s.nt);

  cg::KernelSpec spec;
  spec.space_order = so;
  const auto u_jit = run_at_1_and_8(
      [&](int threads) {
        ph::PropagatorOptions jopts = opts;
        jopts.threads = threads;
        cg::JitAcoustic jit(s.model, spec, jopts);
        EXPECT_TRUE(jit.compiled()) << jit.compile_error();
        return jit;
      },
      ph::Schedule::Wavefront, s);

  const double umax = tg::max_abs(u_aot);
  ASSERT_GT(umax, 0.0) << "so=" << so;
  EXPECT_LT(tg::max_abs_diff(u_aot, u_jit), 1e-5 * umax) << "so=" << so;
}

INSTANTIATE_TEST_SUITE_P(Orders, JitOrderSweep, ::testing::Values(2, 4, 8));

// The compiled block runs under every schedule: all four execute identical
// per-point arithmetic on a single source, so they agree bit for bit.
TEST(Jit, WavefrontAndSpaceBlockedJitAgree) {
  auto s = make_setup(4, 12);
  cg::KernelSpec spec;
  spec.space_order = 4;
  const auto make = [&](int threads) {
    ph::PropagatorOptions opts;
    opts.tiles = tc::TileSpec{3, 8, 8, 4, 4};
    opts.threads = threads;
    cg::JitAcoustic jit(s.model, spec, opts);
    EXPECT_TRUE(jit.compiled()) << jit.compile_error();
    return jit;
  };
  const auto u_wf = run_at_1_and_8(make, ph::Schedule::Wavefront, s);
  ASSERT_GT(tg::max_abs(u_wf), 0.0);
  for (const ph::Schedule sched :
       {ph::Schedule::SpaceBlocked, ph::Schedule::Reference,
        ph::Schedule::Diamond}) {
    EXPECT_EQ(tg::max_abs_diff(u_wf, run_at_1_and_8(make, sched, s)), 0.0)
        << ph::to_string(sched);
  }
}

// The engine really calls the compiled block: a compiler wrapper ($CC)
// that halves every update in the generated source makes the JIT's field
// depart from the AOT kernel's under every schedule — and from the tape's.
TEST(Jit, EngineRunsTheCompiledBlock) {
  auto s = make_setup(4, 12);
  const std::string wrapper =
      (std::filesystem::temp_directory_path() /
       ("tempest_halving_cc_" + std::to_string(::getpid()) + ".sh"))
          .string();
  {
    std::ofstream out(wrapper);
    out << "#!/bin/sh\nfor last; do :; done\n"
           "sed -i 's/unr\\[z\\] = /unr[z] = 0.5f * /' \"$last\"\n"
           "exec cc \"$@\"\n";
  }
  ::setenv("CC", ("sh " + wrapper).c_str(), 1);
  cg::KernelSpec spec;
  spec.space_order = 4;
  ph::PropagatorOptions opts;
  opts.tiles = tc::TileSpec{3, 8, 8, 4, 4};
  cg::JitAcoustic jit(s.model, spec, opts);
  cg::JitDsl jit_dsl(acoustic_eq(), s.model, spec, opts);
  ::unsetenv("CC");
  std::filesystem::remove(wrapper);
  ASSERT_TRUE(jit.compiled()) << jit.compile_error();
  ASSERT_TRUE(jit_dsl.compiled()) << jit_dsl.compile_error();

  for (const ph::Schedule sched :
       {ph::Schedule::Reference, ph::Schedule::SpaceBlocked,
        ph::Schedule::Wavefront, ph::Schedule::Diamond}) {
    SCOPED_TRACE(ph::to_string(sched));
    ph::AcousticPropagator aot(s.model, opts);
    aot.run(sched, s.src);
    const double umax = tg::max_abs(aot.wavefield(s.nt));
    ASSERT_GT(umax, 0.0);
    jit.run(sched, s.src);
    EXPECT_GT(tg::max_abs_diff(aot.wavefield(s.nt), jit.wavefield(s.nt)),
              0.1 * umax);
    jit_dsl.run(sched, s.src);
    EXPECT_GT(
        tg::max_abs_diff(aot.wavefield(s.nt), jit_dsl.wavefield(s.nt)),
        0.1 * umax);
  }
}

TEST(Jit, SourceCodeAccessorExposesGeneratedText) {
  auto s = make_setup(4, 8);
  cg::KernelSpec spec;
  spec.space_order = 4;
  cg::JitAcoustic jit(s.model, spec);
  EXPECT_NE(jit.source_code().find("Generated by tempest::codegen"),
            std::string::npos);
}
