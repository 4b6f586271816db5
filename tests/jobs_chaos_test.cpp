// Process-level chaos tests: the tentpole acceptance criterion, run as
// ctest cases. Each test drives jobs::run_chaos, which SIGKILLs a real
// 3-shot survey worker at five seeded-random mid-computation points,
// restarts it each time, and byte-compares the final gathers against an
// uninterrupted reference pass. The matrix covers every schedule for two
// physics kernels (acoustic and elastic), plus a pass that bit-flips the
// newest checkpoint between kills to force the rotation fallback.
//
// The worker is THIS binary re-exec'd with --worker, so main() dispatches
// before gtest ever sees the arguments (NO_GTEST_MAIN in CMake).

#include <gtest/gtest.h>
#include <unistd.h>

#include <filesystem>
#include <string>

#include "tempest/jobs/chaos.hpp"
#include "tempest/util/cli.hpp"

namespace jb = tempest::jobs;

namespace {

std::string self_path() {
  char buf[4096];
  const ssize_t n = ::readlink("/proc/self/exe", buf, sizeof(buf) - 1);
  if (n <= 0) return "";
  buf[n] = '\0';
  return std::string(buf);
}

/// Run the full kill/resume protocol for one (schedule, physics) cell.
/// Sizes are test-scale: 3 shots on an 18^3 grid — small enough that the
/// whole protocol (1 reference + 5 killed + 1 final worker process) stays
/// in ctest budget, large enough that kills land mid-propagation.
void expect_bit_identical_recovery(const std::string& schedule,
                                   const std::string& physics,
                                   bool corrupt = false,
                                   std::uint64_t seed = 7, int steps = 30) {
  jb::ChaosSpec spec;
  spec.worker_args = {
      "--size=18",
      "--steps=" + std::to_string(steps),
      "--shots=3",
      "--so=4",
      "--physics=" + physics,
      "--schedule=" + schedule,
      "--ckpt-every=6",
  };
  spec.root = "/tmp/tempest_chaos_test_" + std::to_string(::getpid()) + "_" +
              schedule + "_" + physics + (corrupt ? "_corrupt" : "");
  spec.shots = 3;
  spec.kills = 5;
  spec.seed = seed;
  spec.corrupt = corrupt;

  const std::string self = self_path();
  ASSERT_FALSE(self.empty());
  const std::string err = jb::run_chaos(spec, self);
  EXPECT_EQ(err, "") << err;
  std::filesystem::remove_all(spec.root);  // kept only on failure
}

}  // namespace

// --- Every schedule, acoustic. Every schedule resumes the in-flight shot
// from its newest checkpoint: barrier schedules save at each ckpt-every
// step, temporally blocked ones (wavefront, diamond) at the first band end
// past it — all must reproduce the gathers bitwise. ---

TEST(JobsChaos, AcousticReference) {
  expect_bit_identical_recovery("reference", "acoustic");
}

TEST(JobsChaos, AcousticSpaceBlocked) {
  expect_bit_identical_recovery("space-blocked", "acoustic");
}

TEST(JobsChaos, AcousticWavefront) {
  expect_bit_identical_recovery("wavefront", "acoustic");
}

TEST(JobsChaos, AcousticDiamond) {
  expect_bit_identical_recovery("diamond", "acoustic");
}

// --- Every schedule, elastic (the heaviest kernel: nine fields in every
// checkpoint). ---

TEST(JobsChaos, ElasticReference) {
  expect_bit_identical_recovery("reference", "elastic");
}

TEST(JobsChaos, ElasticSpaceBlocked) {
  expect_bit_identical_recovery("space-blocked", "elastic");
}

TEST(JobsChaos, ElasticWavefront) {
  expect_bit_identical_recovery("wavefront", "elastic");
}

TEST(JobsChaos, ElasticDiamond) {
  expect_bit_identical_recovery("diamond", "elastic");
}

// --- Corruption pass: a bit-flipped newest checkpoint mid-protocol must
// route recovery through the rotated predecessor, still bit-identical. ---

TEST(JobsChaos, CorruptedCheckpointFallsBackToRotatedGeneration) {
  expect_bit_identical_recovery("space-blocked", "acoustic",
                                /*corrupt=*/true, /*seed=*/11);
}

// The same on a wave-front rung. A shot ticks once per 8-step band and
// saves at band ends, so 60 steps give each shot eight ticks and several
// generations: under seed 10 the restarts resume shot 0 from step 49 and
// shot 1 from step 25, the bit-flipped step-25 checkpoint sends the next
// two restarts to its rotated step-17 predecessor (the first deletes the
// corrupt file), and the last kill resumes shot 1 from step 33.
TEST(JobsChaos, CorruptedWavefrontCheckpointFallsBackToRotatedGeneration) {
  expect_bit_identical_recovery("wavefront", "acoustic", /*corrupt=*/true,
                                /*seed=*/10, /*steps=*/60);
}

int main(int argc, char** argv) {
  // Worker dispatch MUST precede InitGoogleTest: the worker's flags are not
  // gtest flags, and the worker must never run the test suite.
  const tempest::util::Cli cli(argc, argv);
  if (cli.get_flag("worker")) return tempest::jobs::run_chaos_worker(cli);
  ::testing::InitGoogleTest(&argc, argv);
  return RUN_ALL_TESTS();
}
