// Unit tests for the crash-tolerant jobs runtime: backoff policy, the
// CRC-framed write-ahead journal, the replaying job queue, failure
// classification, the cooperative watchdog, the retry/degradation runner
// (with a stub executor and injected sleeper — no physics, no real time),
// the survey report sink, and the versioned auxiliary-blob framing.

#include <gtest/gtest.h>
#include <unistd.h>

#include <algorithm>
#include <cstdint>
#include <cstdio>
#include <cstdlib>
#include <cstring>
#include <fstream>
#include <stdexcept>
#include <string>
#include <vector>

#include "tempest/analysis/legality.hpp"
#include "tempest/io/io.hpp"
#include "tempest/jobs/journal.hpp"
#include "tempest/jobs/queue.hpp"
#include "tempest/jobs/report.hpp"
#include "tempest/jobs/runner.hpp"
#include "tempest/jobs/watchdog.hpp"
#include "tempest/resilience/checkpoint.hpp"
#include "tempest/resilience/health.hpp"
#include "tempest/util/backoff.hpp"

namespace an = tempest::analysis;
namespace io = tempest::io;
namespace jb = tempest::jobs;
namespace rs = tempest::resilience;
namespace ut = tempest::util;

namespace {

class TempPath {
 public:
  explicit TempPath(const char* suffix)
      : path_(std::string("/tmp/tempest_jobs_test_") +
              std::to_string(::getpid()) + "_" + std::to_string(counter_++) +
              suffix) {
    std::remove(path_.c_str());
    std::remove((path_ + ".tmp").c_str());
  }
  ~TempPath() {
    std::remove(path_.c_str());
    std::remove((path_ + ".tmp").c_str());
  }
  [[nodiscard]] const std::string& path() const { return path_; }

 private:
  static int counter_;
  std::string path_;
};
int TempPath::counter_ = 0;

jb::Record started(int job, int attempt, int level) {
  jb::Record r;
  r.type = jb::RecordType::Started;
  r.job = job;
  r.attempt = attempt;
  r.level = level;
  return r;
}

}  // namespace

// --- BackoffPolicy -------------------------------------------------------

TEST(Backoff, DelaysGrowExponentiallyAndClamp) {
  ut::BackoffPolicy p;
  p.base_ms = 100.0;
  p.max_ms = 500.0;
  p.jitter = 0.0;  // isolate the nominal schedule
  EXPECT_DOUBLE_EQ(p.delay_ms(1), 100.0);
  EXPECT_DOUBLE_EQ(p.delay_ms(2), 200.0);
  EXPECT_DOUBLE_EQ(p.delay_ms(3), 400.0);
  EXPECT_DOUBLE_EQ(p.delay_ms(4), 500.0);  // clamped
  EXPECT_DOUBLE_EQ(p.delay_ms(20), 500.0);
  EXPECT_DOUBLE_EQ(p.delay_ms(0), 0.0);
}

TEST(Backoff, JitterIsBoundedAndDeterministic) {
  ut::BackoffPolicy p;
  p.base_ms = 100.0;
  p.jitter = 0.25;
  for (int retry = 1; retry <= 6; ++retry) {
    const double d = p.delay_ms(retry);
    const double nominal = std::min(100.0 * (1 << (retry - 1)), p.max_ms);
    EXPECT_GE(d, nominal * 0.75) << "retry " << retry;
    EXPECT_LE(d, nominal * 1.25) << "retry " << retry;
    // Same policy, same retry -> byte-identical delay: a retried run is as
    // reproducible as an uninterrupted one.
    EXPECT_DOUBLE_EQ(d, p.delay_ms(retry));
  }
  ut::BackoffPolicy q = p;
  q.seed ^= 1;
  EXPECT_NE(p.delay_ms(1), q.delay_ms(1));  // the seed moves the jitter
}

TEST(Backoff, EnvironmentOverridesDefaults) {
  ::setenv("TEMPEST_TEST_RETRIES", "7", 1);
  ::setenv("TEMPEST_TEST_RETRY_BASE_MS", "12.5", 1);
  const ut::BackoffPolicy p = ut::BackoffPolicy::from_env("TEMPEST_TEST");
  EXPECT_EQ(p.max_attempts, 7);
  EXPECT_DOUBLE_EQ(p.base_ms, 12.5);

  // Garbage degrades to the compiled-in default instead of disabling
  // retries.
  ::setenv("TEMPEST_TEST_RETRIES", "banana", 1);
  ::setenv("TEMPEST_TEST_RETRY_BASE_MS", "-3", 1);
  ut::BackoffPolicy def;
  def.max_attempts = 4;
  def.base_ms = 99.0;
  const ut::BackoffPolicy q = ut::BackoffPolicy::from_env("TEMPEST_TEST", def);
  EXPECT_EQ(q.max_attempts, 4);
  EXPECT_DOUBLE_EQ(q.base_ms, 99.0);

  ::unsetenv("TEMPEST_TEST_RETRIES");
  ::unsetenv("TEMPEST_TEST_RETRY_BASE_MS");
  const ut::BackoffPolicy r = ut::BackoffPolicy::from_env("TEMPEST_TEST", def);
  EXPECT_EQ(r.max_attempts, 4);
}

// --- Journal -------------------------------------------------------------

TEST(Journal, RoundTripsRecords) {
  TempPath file(".tpj");
  jb::Journal j(file.path());
  EXPECT_FALSE(j.exists());

  std::vector<jb::Record> written;
  {
    jb::Record plan;
    plan.type = jb::RecordType::Plan;
    plan.job = 3;
    plan.fingerprint = 0xDEADBEEFCAFEull;
    written.push_back(plan);
  }
  written.push_back(started(0, 1, 0));
  {
    jb::Record done;
    done.type = jb::RecordType::Done;
    done.job = 0;
    done.seconds = 1.25;
    done.detail = "wavefront";
    written.push_back(done);
  }
  for (const jb::Record& r : written) j.append(r);

  bool torn = true;
  const std::vector<jb::Record> back = j.replay(&torn);
  EXPECT_FALSE(torn);
  EXPECT_EQ(back, written);
}

TEST(Journal, ToleratesTornTail) {
  TempPath file(".tpj");
  jb::Journal j(file.path());
  j.append(started(0, 1, 0));
  j.append(started(1, 1, 0));

  // Chop the final frame mid-payload: the signature of a kill mid-append.
  std::string bytes;
  {
    std::ifstream is(file.path(), std::ios::binary);
    bytes.assign((std::istreambuf_iterator<char>(is)),
                 std::istreambuf_iterator<char>());
  }
  {
    std::ofstream os(file.path(), std::ios::binary | std::ios::trunc);
    os.write(bytes.data(), static_cast<std::streamsize>(bytes.size() - 5));
  }

  bool torn = false;
  const std::vector<jb::Record> back = j.replay(&torn);
  EXPECT_TRUE(torn);
  ASSERT_EQ(back.size(), 1u);
  EXPECT_EQ(back[0], started(0, 1, 0));
}

TEST(Journal, InteriorCorruptionIsFatal) {
  TempPath file(".tpj");
  jb::Journal j(file.path());
  j.append(started(0, 1, 0));
  std::uintmax_t first_end = 0;
  {
    std::ifstream is(file.path(), std::ios::binary | std::ios::ate);
    first_end = static_cast<std::uintmax_t>(is.tellg());
  }
  j.append(started(1, 1, 0));

  // Flip a byte inside the *first* frame: unlike a torn tail, history after
  // the damage cannot be trusted, so replay must refuse.
  std::fstream f(file.path(), std::ios::binary | std::ios::in | std::ios::out);
  f.seekp(static_cast<std::streamoff>(first_end - 3));
  char c = 0;
  f.seekg(static_cast<std::streamoff>(first_end - 3));
  f.read(&c, 1);
  c = static_cast<char>(c ^ 0x10);
  f.seekp(static_cast<std::streamoff>(first_end - 3));
  f.write(&c, 1);
  f.close();

  EXPECT_THROW((void)j.replay(), io::CorruptFileError);
}

TEST(Journal, RewriteCompacts) {
  TempPath file(".tpj");
  jb::Journal j(file.path());
  for (int i = 0; i < 5; ++i) j.append(started(i, 1, 0));
  const std::vector<jb::Record> keep = {started(7, 2, 1)};
  j.rewrite(keep);
  bool torn = true;
  EXPECT_EQ(j.replay(&torn), keep);
  EXPECT_FALSE(torn);
  j.remove();
  EXPECT_FALSE(j.exists());
}

namespace {

std::vector<char> file_bytes(const std::string& path) {
  std::ifstream is(path, std::ios::binary);
  return {std::istreambuf_iterator<char>(is),
          std::istreambuf_iterator<char>()};
}

/// A Plan, Started, Done journal whose second frame declares a payload
/// with bit 31 set: a whole length field no writer emits.
void write_oversized_length_journal(const std::string& path) {
  {
    jb::JobQueue q(path, 42, 1);
    q.mark_started(0, 1, 0);
    q.mark_done(0, 1.0, 0, false, "ok");
  }
  std::vector<char> bytes = file_bytes(path);
  std::uint32_t first_len = 0;
  std::memcpy(&first_len, bytes.data() + 8, sizeof(first_len));
  const std::size_t second = 8 + 8 + first_len;
  bytes[second + 3] = static_cast<char>(bytes[second + 3] ^ 0x80);
  std::ofstream os(path, std::ios::binary | std::ios::trunc);
  os.write(bytes.data(), static_cast<std::streamsize>(bytes.size()));
}

}  // namespace

TEST(Journal, OversizedLengthIsCorruptionNotATornTail) {
  TempPath file(".tpj");
  write_oversized_length_journal(file.path());
  try {
    (void)jb::Journal(file.path()).replay();
    FAIL() << "a length over the frame limit must not read as a torn tail";
  } catch (const io::CorruptFileError& err) {
    EXPECT_NE(std::string(err.what()).find("frame limit"), std::string::npos)
        << err.what();
  }
}

TEST(Journal, AppendRefusesARecordOverTheFrameLimit) {
  TempPath file(".tpj");
  jb::Journal j(file.path());
  j.append(started(0, 1, 0));
  const std::vector<char> before = file_bytes(file.path());
  jb::Record big = started(1, 1, 0);
  big.detail.assign(std::size_t{1} << 20, 'x');
  EXPECT_THROW(j.append(big), ut::PreconditionError);
  EXPECT_THROW(j.rewrite({started(0, 1, 0), big}), ut::PreconditionError);
  EXPECT_EQ(file_bytes(file.path()), before);
  EXPECT_EQ(j.replay(), std::vector<jb::Record>{started(0, 1, 0)});
}

// --- JobQueue ------------------------------------------------------------

TEST(JobQueue, FreshQueueStartsAllPending) {
  TempPath file(".tpj");
  jb::JobQueue q(file.path(), /*fingerprint=*/42, /*n_jobs=*/3);
  EXPECT_FALSE(q.recovered());
  EXPECT_EQ(q.n_jobs(), 3);
  EXPECT_EQ(q.count(jb::JobState::Pending), 3);
  EXPECT_EQ(q.next_pending(), 0);
  EXPECT_FALSE(q.all_done());
}

TEST(JobQueue, StateMachineAdvances) {
  TempPath file(".tpj");
  jb::JobQueue q(file.path(), 42, 2);
  q.mark_started(0, 1, 0);
  EXPECT_EQ(q.job(0).state, jb::JobState::Running);
  EXPECT_EQ(q.next_pending(), 1);
  q.mark_done(0, 2.5, 0, false, "ok");
  EXPECT_EQ(q.job(0).state, jb::JobState::Done);
  EXPECT_DOUBLE_EQ(q.job(0).seconds, 2.5);

  q.mark_started(1, 1, 0);
  q.mark_transient(1, 1, "disk hiccup");
  EXPECT_EQ(q.job(1).state, jb::JobState::Pending);  // retryable
  q.mark_started(1, 2, 0);
  q.mark_degraded(1, 1, "watchdog");
  EXPECT_EQ(q.job(1).state, jb::JobState::Pending);
  EXPECT_EQ(q.job(1).level, 1);
  EXPECT_TRUE(q.job(1).degraded);
  q.mark_started(1, 1, 1);
  q.mark_quarantined(1, "ladder exhausted");
  EXPECT_EQ(q.job(1).state, jb::JobState::Quarantined);
  EXPECT_EQ(q.next_pending(), -1);
  EXPECT_TRUE(q.all_done());  // nothing left to run (quarantined is final)
  EXPECT_EQ(q.count(jb::JobState::Done), 1);
  EXPECT_EQ(q.count(jb::JobState::Quarantined), 1);
}

TEST(JobQueue, ReplayReconstructsAndReentersInterrupted) {
  TempPath file(".tpj");
  {
    jb::JobQueue q(file.path(), 42, 3);
    q.mark_started(0, 1, 0);
    q.mark_done(0, 1.0, 0, false, "ok");
    q.mark_started(1, 1, 0);
    // The process "dies" here: job 1 is left Running in the journal.
  }
  jb::JobQueue q(file.path(), 42, 3);
  EXPECT_TRUE(q.recovered());
  EXPECT_EQ(q.job(0).state, jb::JobState::Done);
  EXPECT_EQ(q.job(1).state, jb::JobState::Pending);
  EXPECT_TRUE(q.job(1).interrupted);  // executor must look for a checkpoint
  EXPECT_FALSE(q.job(2).interrupted);
  EXPECT_EQ(q.next_pending(), 1);
}

TEST(JobQueue, ForeignJournalIsRejected) {
  TempPath file(".tpj");
  { jb::JobQueue q(file.path(), /*fingerprint=*/42, 2); }
  EXPECT_THROW(jb::JobQueue(file.path(), /*fingerprint=*/43, 2),
               jb::JournalMismatchError);
  EXPECT_THROW(jb::JobQueue(file.path(), 42, /*n_jobs=*/3),
               jb::JournalMismatchError);
  EXPECT_NO_THROW(jb::JobQueue(file.path(), 42, 2));
}

TEST(JobQueue, TornTailIsHealedOnRecovery) {
  TempPath file(".tpj");
  {
    jb::JobQueue q(file.path(), 42, 2);
    q.mark_started(0, 1, 0);
    q.mark_done(0, 1.0, 0, false, "ok");
  }
  // Tear the last frame: the Done record is cut mid-payload.
  std::string bytes;
  {
    std::ifstream is(file.path(), std::ios::binary);
    bytes.assign((std::istreambuf_iterator<char>(is)),
                 std::istreambuf_iterator<char>());
  }
  {
    std::ofstream os(file.path(), std::ios::binary | std::ios::trunc);
    os.write(bytes.data(), static_cast<std::streamsize>(bytes.size() - 3));
  }
  jb::JobQueue q(file.path(), 42, 2);
  EXPECT_TRUE(q.recovered());
  // The torn Done was discarded; job 0 was Running, so it re-enters.
  EXPECT_EQ(q.job(0).state, jb::JobState::Pending);
  EXPECT_TRUE(q.job(0).interrupted);
  // The heal compacted the journal: a fresh replay sees no torn tail.
  bool torn = true;
  (void)jb::Journal(file.path()).replay(&torn);
  EXPECT_FALSE(torn);
}

TEST(JobQueue, OversizedLengthLeavesTheJournalUntouched) {
  TempPath file(".tpj");
  write_oversized_length_journal(file.path());
  const std::vector<char> before = file_bytes(file.path());
  // Compacting would erase the Started and Done records behind the bad
  // length; the queue must refuse instead.
  EXPECT_THROW(jb::JobQueue(file.path(), 42, 1), io::CorruptFileError);
  EXPECT_EQ(file_bytes(file.path()), before);
}

// --- classify ------------------------------------------------------------

TEST(Classify, MapsExceptionsToTaxonomy) {
  using ut::FailureKind;
  EXPECT_EQ(jb::classify(jb::WatchdogTimeoutError("slow")),
            FailureKind::Degrade);
  EXPECT_EQ(jb::classify(rs::NumericalHealthError("u", 3, "NaN")),
            FailureKind::Degrade);
  EXPECT_EQ(jb::classify(an::ScheduleLegalityError(an::LegalityReport{})),
            FailureKind::Permanent);
  EXPECT_EQ(jb::classify(rs::CheckpointMismatchError("foreign")),
            FailureKind::Permanent);
  EXPECT_EQ(jb::classify(jb::JournalMismatchError("foreign")),
            FailureKind::Permanent);
  EXPECT_EQ(jb::classify(io::CorruptFileError("f", "bit rot")),
            FailureKind::Transient);
  EXPECT_EQ(jb::classify(ut::TransientError("hiccup")),
            FailureKind::Transient);
  // Plain preconditions (CFL violations, bad geometry) are deterministic.
  EXPECT_EQ(jb::classify(ut::PreconditionError("cfl")),
            FailureKind::Permanent);
  EXPECT_EQ(jb::classify(std::runtime_error("unknown")),
            FailureKind::Permanent);
}

// --- Watchdog ------------------------------------------------------------

TEST(Watchdog, ThrowsWhenAStepExceedsTheDeadline) {
  double now = 0.0;
  jb::Watchdog wd(100.0, [&] { return now; });
  ASSERT_TRUE(wd.enabled());
  wd.start(0);
  now = 50.0;
  EXPECT_NO_THROW(wd.beat(1));
  now = 140.0;  // 90 ms gap: within deadline
  EXPECT_NO_THROW(wd.beat(2));
  now = 300.0;  // 160 ms gap: too slow
  EXPECT_THROW(wd.beat(3), jb::WatchdogTimeoutError);
}

// A temporally blocked run beats once per band: a beat covering k steps
// is allowed k deadlines, counted from the previous beat or, for the
// first beat, from the run's first step.
TEST(Watchdog, BeatCoveringKStepsIsAllowedKDeadlines) {
  double now = 0.0;
  jb::Watchdog wd(100.0, [&] { return now; });
  wd.start(1);      // the run computes steps 1, 2, ...
  now = 799.0;      // band [1, 9): k = 8, 800 ms allowed
  EXPECT_NO_THROW(wd.beat(9));
  now += 801.0;     // band [9, 17): k = 8, 801 ms is just over
  EXPECT_THROW(wd.beat(17), jb::WatchdogTimeoutError);
  now += 299.0;     // short last band [17, 20): k = 3, 300 ms allowed
  EXPECT_NO_THROW(wd.beat(20));

  wd.start(20);     // a resumed run counts from its own first step
  now += 301.0;
  EXPECT_THROW(wd.beat(23), jb::WatchdogTimeoutError);
}

TEST(Watchdog, DisabledWatchdogNeverFires) {
  double now = 0.0;
  jb::Watchdog wd(0.0, [&] { return now; });
  EXPECT_FALSE(wd.enabled());
  wd.start(0);
  now = 1e12;
  EXPECT_NO_THROW(wd.beat(1));
}

// --- Runner --------------------------------------------------------------

namespace {

ut::BackoffPolicy fast_policy(int max_attempts) {
  ut::BackoffPolicy p;
  p.max_attempts = max_attempts;
  p.base_ms = 1.0;
  p.jitter = 0.0;
  return p;
}

}  // namespace

TEST(Runner, AllJobsSucceedFirstTry) {
  TempPath file(".tpj");
  jb::JobQueue queue(file.path(), 42, 3);
  std::vector<jb::Attempt> seen;
  jb::Runner runner(
      queue, {{"fast"}, {"slow"}}, fast_policy(3),
      [&](const jb::Attempt& a) {
        seen.push_back(a);
        return jb::AttemptResult{0.5, false, "ok"};
      },
      [](double) {});
  EXPECT_EQ(runner.run(), 3);
  EXPECT_EQ(seen.size(), 3u);
  for (int i = 0; i < 3; ++i) {
    EXPECT_EQ(seen[static_cast<std::size_t>(i)].job, i);
    EXPECT_EQ(queue.job(i).state, jb::JobState::Done);
    EXPECT_FALSE(queue.job(i).degraded);
  }
  EXPECT_TRUE(queue.all_done());
}

TEST(Runner, TransientFailuresRetryWithBackoff) {
  TempPath file(".tpj");
  jb::JobQueue queue(file.path(), 42, 1);
  const ut::BackoffPolicy policy = fast_policy(3);
  std::vector<double> sleeps;
  int calls = 0;
  jb::Runner runner(
      queue, {{"only"}}, policy,
      [&](const jb::Attempt& a) -> jb::AttemptResult {
        ++calls;
        if (calls <= 2) throw ut::TransientError("hiccup " + std::to_string(calls));
        EXPECT_EQ(a.attempt, 3);
        return {0.5, false, "ok"};
      },
      [&](double ms) { sleeps.push_back(ms); });
  EXPECT_EQ(runner.run(), 1);
  EXPECT_EQ(calls, 3);
  EXPECT_EQ(queue.job(0).state, jb::JobState::Done);
  EXPECT_EQ(queue.job(0).attempts, 3);
  // The recorded sleeps are exactly the policy's deterministic schedule.
  ASSERT_EQ(sleeps.size(), 2u);
  EXPECT_DOUBLE_EQ(sleeps[0], policy.delay_ms(1));
  EXPECT_DOUBLE_EQ(sleeps[1], policy.delay_ms(2));
}

TEST(Runner, ExhaustedTransientsDegradeDownTheLadder) {
  TempPath file(".tpj");
  jb::JobQueue queue(file.path(), 42, 1);
  std::vector<int> levels;
  jb::Runner runner(
      queue, {{"fast"}, {"safe"}}, fast_policy(2),
      [&](const jb::Attempt& a) -> jb::AttemptResult {
        levels.push_back(a.level);
        if (a.level == 0) throw ut::TransientError("never clears");
        return {0.5, false, "ok"};
      },
      [](double) {});
  EXPECT_EQ(runner.run(), 1);
  // Two attempts at level 0 (the transient budget), then one at level 1.
  EXPECT_EQ(levels, (std::vector<int>{0, 0, 1}));
  EXPECT_EQ(queue.job(0).state, jb::JobState::Done);
  EXPECT_EQ(queue.job(0).level, 1);
  EXPECT_TRUE(queue.job(0).degraded);  // finished below the requested rung
}

TEST(Runner, DegradeFailuresSkipTheRetryBudget) {
  TempPath file(".tpj");
  jb::JobQueue queue(file.path(), 42, 1);
  std::vector<int> levels;
  jb::Runner runner(
      queue, {{"jit"}, {"aot"}, {"ref"}}, fast_policy(5),
      [&](const jb::Attempt& a) -> jb::AttemptResult {
        levels.push_back(a.level);
        if (a.level < 2) throw jb::WatchdogTimeoutError("too slow");
        return {0.5, false, "ok"};
      },
      [](double) {});
  EXPECT_EQ(runner.run(), 1);
  // One attempt per rung: degrade-class failures do not burn retries.
  EXPECT_EQ(levels, (std::vector<int>{0, 1, 2}));
  EXPECT_EQ(queue.job(0).level, 2);
  EXPECT_TRUE(queue.job(0).degraded);
}

TEST(Runner, LadderExhaustionQuarantines) {
  TempPath file(".tpj");
  jb::JobQueue queue(file.path(), 42, 2);
  jb::Runner runner(
      queue, {{"fast"}, {"safe"}}, fast_policy(1),
      [&](const jb::Attempt& a) -> jb::AttemptResult {
        if (a.job == 0) throw jb::WatchdogTimeoutError("always slow");
        return {0.5, false, "ok"};
      },
      [](double) {});
  EXPECT_EQ(runner.run(), 1);  // job 1 still finishes
  EXPECT_EQ(queue.job(0).state, jb::JobState::Quarantined);
  EXPECT_NE(queue.job(0).detail.find("ladder exhausted"), std::string::npos)
      << queue.job(0).detail;
  EXPECT_EQ(queue.job(1).state, jb::JobState::Done);
}

TEST(Runner, PermanentFailuresQuarantineImmediately) {
  TempPath file(".tpj");
  jb::JobQueue queue(file.path(), 42, 1);
  int calls = 0;
  jb::Runner runner(
      queue, {{"fast"}, {"safe"}}, fast_policy(5),
      [&](const jb::Attempt&) -> jb::AttemptResult {
        ++calls;
        throw ut::PreconditionError("CFL violated");
      },
      [](double) {});
  EXPECT_EQ(runner.run(), 0);
  EXPECT_EQ(calls, 1);  // deterministic failures are never retried
  EXPECT_EQ(queue.job(0).state, jb::JobState::Quarantined);
  EXPECT_NE(queue.job(0).detail.find("CFL"), std::string::npos);
}

// --- Report --------------------------------------------------------------

TEST(Report, AggregatesAndJson) {
  jb::SurveyReport rep;
  rep.physics = "acoustic";
  rep.requested_schedule = "wavefront";
  rep.n_shots = 4;
  rep.total_seconds = 2.0;
  for (int i = 0; i < 4; ++i) {
    jb::ShotReport s;
    s.shot = i;
    s.state = i == 3 ? "quarantined" : "done";
    s.seconds = 0.1 * (i + 1);
    s.degraded = (i == 2);
    rep.shots.push_back(s);
  }
  // The survey records one ShotSeconds sample per Done shot.
  auto& shot_hist = rep.latency[static_cast<std::size_t>(
      tempest::obs::Metric::ShotSeconds)];
  for (const jb::ShotReport& s : rep.shots) {
    if (s.state == "done") {
      shot_hist.record(static_cast<std::int64_t>(s.seconds * 1e9));
    }
  }
  jb::finalize_aggregates(rep);
  EXPECT_EQ(rep.done, 3);
  EXPECT_EQ(rep.degraded, 1);
  EXPECT_EQ(rep.quarantined, 1);
  EXPECT_DOUBLE_EQ(rep.shots_per_hour, 3 * 3600.0 / 2.0);
  // Histogram quantiles over {.1,.2,.3} s: p50 is the inclusive upper bound
  // of the bucket holding 0.2 s, [184549376, 201326591] ns (2^27 plus
  // sub-buckets 3 of 8); p99 clamps to the observed max.
  EXPECT_DOUBLE_EQ(rep.p50_shot_seconds, 201326591.0 / 1e9);
  EXPECT_DOUBLE_EQ(rep.p99_shot_seconds, 0.3);

  TempPath file(".json");
  jb::write_survey_json(file.path(), rep);
  std::ifstream is(file.path());
  const std::string text((std::istreambuf_iterator<char>(is)),
                         std::istreambuf_iterator<char>());
  EXPECT_NE(text.find("\"schema\": \"tempest-survey-v2\""), std::string::npos);
  EXPECT_NE(text.find("\"shots_per_hour\""), std::string::npos);
  EXPECT_NE(text.find("\"quarantined\": 1"), std::string::npos);
  EXPECT_NE(text.find("\"shot_reports\""), std::string::npos);
  EXPECT_NE(text.find("\"latency_histograms\""), std::string::npos);
}

namespace {

/// Five Done shots at 10/20/30/40/50 ms — the shared fixture for the
/// quantile golden tests below.
jb::SurveyReport five_shot_report() {
  jb::SurveyReport rep;
  rep.physics = "acoustic";
  rep.requested_schedule = "wavefront";
  rep.n_shots = 5;
  rep.total_seconds = 0.15;
  for (int i = 0; i < 5; ++i) {
    jb::ShotReport s;
    s.shot = i;
    s.state = "done";
    s.seconds = 0.010 * (i + 1);
    rep.shots.push_back(s);
  }
  return rep;
}

}  // namespace

// Golden: the v2 histogram quantile rule (inclusive upper bound of the
// first bucket whose cumulative count reaches ceil(q*N), clamped to
// [min, max]). For {10,20,30,40,50} ms the p50 bucket is [29360128,
// 31457279] ns and the p99 clamps to the observed max. Pinned values: any
// drift here is a bucket-layout or quantile-rule change and must be a
// deliberate schema event.
TEST(Report, V2HistogramQuantilesGolden) {
  jb::SurveyReport rep = five_shot_report();
  auto& shot_hist = rep.latency[static_cast<std::size_t>(
      tempest::obs::Metric::ShotSeconds)];
  for (const jb::ShotReport& s : rep.shots) {
    shot_hist.record(static_cast<std::int64_t>(s.seconds * 1e9));
  }
  jb::finalize_aggregates(rep);
  EXPECT_DOUBLE_EQ(rep.p50_shot_seconds, 31457279.0 / 1e9);
  EXPECT_NEAR(rep.p50_shot_seconds, 0.0314573, 1e-7);
  EXPECT_DOUBLE_EQ(rep.p99_shot_seconds, 0.050);
  // The documented bias bound: estimate >= exact, within one bucket width.
  EXPECT_GE(rep.p50_shot_seconds, 0.030);
  EXPECT_LE(rep.p50_shot_seconds, 0.030 * 1.125);
}

TEST(Report, V2SchemaCarriesLatencyHistograms) {
  jb::SurveyReport rep = five_shot_report();
  auto& shot_hist = rep.latency[static_cast<std::size_t>(
      tempest::obs::Metric::ShotSeconds)];
  for (const jb::ShotReport& s : rep.shots) {
    shot_hist.record(static_cast<std::int64_t>(s.seconds * 1e9));
  }
  jb::finalize_aggregates(rep);

  TempPath file(".json");
  jb::write_survey_json(file.path(), rep);
  std::ifstream is(file.path());
  const std::string text((std::istreambuf_iterator<char>(is)),
                         std::istreambuf_iterator<char>());
  EXPECT_NE(text.find("\"schema\": \"tempest-survey-v2\""),
            std::string::npos);
  EXPECT_NE(text.find("\"latency_histograms\""), std::string::npos);
  // Every metric appears, even the empty ones (count 0, no buckets).
  for (int m = 0; m < tempest::obs::kNumMetrics; ++m) {
    EXPECT_NE(text.find(std::string("\"") +
                        tempest::obs::to_string(
                            static_cast<tempest::obs::Metric>(m)) +
                        "\""),
              std::string::npos);
  }
  // The shot histogram's bucket list is cumulative and ends at the count.
  EXPECT_NE(text.find("\"count\": 5"), std::string::npos);
  EXPECT_NE(text.find("\"buckets\""), std::string::npos);
}

// --- Versioned auxiliary blobs ------------------------------------------

TEST(VersionedAux, RoundTripsAndRejectsForeignBlobs) {
  struct Payload {
    std::int32_t a;
    double b;
  };
  const Payload v{7, 2.5};
  constexpr std::uint32_t kMagic = 0x54455354u;  // "TEST"
  const std::vector<std::uint8_t> blob =
      rs::aux_pack_versioned(kMagic, 2, v);
  EXPECT_EQ(blob.size(), 8 + sizeof(Payload));  // header + payload

  const Payload back =
      rs::aux_unpack_versioned<Payload>("blob", blob, kMagic, 2);
  EXPECT_EQ(back.a, 7);
  EXPECT_DOUBLE_EQ(back.b, 2.5);

  // Wrong magic: a different subsystem's blob.
  EXPECT_THROW((void)rs::aux_unpack_versioned<Payload>("blob", blob,
                                                       kMagic ^ 1, 2),
               io::CorruptFileError);
  // Wrong version: an incompatible layout.
  EXPECT_THROW(
      (void)rs::aux_unpack_versioned<Payload>("blob", blob, kMagic, 3),
      io::CorruptFileError);
  // Truncated: shorter than the header.
  const std::vector<std::uint8_t> stub(blob.begin(), blob.begin() + 4);
  EXPECT_THROW(
      (void)rs::aux_unpack_versioned<Payload>("blob", stub, kMagic, 2),
      io::CorruptFileError);
  // Right header, wrong payload size for the requested type.
  const std::vector<std::uint8_t> resized =
      rs::aux_wrap_bytes(kMagic, 2, &v, sizeof(Payload) - 1);
  EXPECT_THROW(
      (void)rs::aux_unpack_versioned<Payload>("blob", resized, kMagic, 2),
      io::CorruptFileError);
}
