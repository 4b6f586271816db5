#pragma once

#include <exception>
#include <functional>
#include <string>
#include <vector>

#include "tempest/jobs/queue.hpp"
#include "tempest/util/backoff.hpp"
#include "tempest/util/error.hpp"

namespace tempest::jobs {

/// Map a caught exception to the retry taxonomy (see util::FailureKind):
///
///   Permanent  — legality rejection, CFL/config precondition violations,
///                checkpoint fingerprint mismatch, unknown exceptions:
///                deterministic, retrying reproduces them. Quarantine.
///   Degrade    — watchdog timeout, numerical health failure (NaN/blow-up
///                under an aggressive schedule): the *next rung down the
///                ladder* may well succeed. Retry one level down.
///   Transient  — injected faults, checkpoint/journal I/O errors, JIT
///                compile failures (util::TransientError and
///                io::CorruptFileError): the environment may recover.
///                Retry at the same level after backoff.
[[nodiscard]] util::FailureKind classify(const std::exception& e);

/// One rung of a job's degradation ladder, executor-defined (for the
/// survey: the requested schedule, then space-blocked, then reference).
struct LadderRung {
  std::string name;
};

/// What one attempt must do and report.
struct Attempt {
  int job = 0;
  int attempt = 1;    ///< 1-based, within the current ladder level
  int level = 0;      ///< index into the ladder
  bool interrupted = false;  ///< a previous process died mid-run on this job
};

struct AttemptResult {
  double seconds = 0.0;
  bool degraded = false;  ///< executor degraded internally (e.g. a JIT
                          ///< kernel fell back to its AOT template) even
                          ///< though the level held
  std::string detail;
};

/// Drives a JobQueue to completion through an executor callback, applying
/// the retry/backoff/degradation policy. The executor runs one attempt of
/// one job and either returns an AttemptResult or throws; classify() of the
/// thrown exception picks the policy edge:
///
///   Transient  -> backoff.delay_ms(attempt), retry same level, up to
///                 policy.max_attempts per level, then treat as Degrade
///                 (the environment is not recovering; a cheaper schedule
///                 gives it fewer chances to bite)
///   Degrade    -> next ladder level, attempt counter reset
///   Permanent  -> quarantine with diagnostics, never retried
///
/// Exhausting the ladder quarantines the job. Every transition is journaled
/// through the queue before it is acted on. The sleeper is injectable so
/// tests run at full speed.
class Runner {
 public:
  using ExecuteFn = std::function<AttemptResult(const Attempt&)>;
  using SleepFn = std::function<void(double /*ms*/)>;
  /// Fired after each attempt's fate is journaled; `outcome` is one of
  /// "done", "transient", "degraded", "quarantined". The survey uses this
  /// to retain the attempt's flight-recorder black box on failure and
  /// recycle it on success.
  using OutcomeFn = std::function<void(const Attempt&, const char* outcome)>;

  Runner(JobQueue& queue, std::vector<LadderRung> ladder,
         util::BackoffPolicy policy, ExecuteFn execute,
         SleepFn sleep = util::sleep_ms);

  void set_on_outcome(OutcomeFn on_outcome) {
    on_outcome_ = std::move(on_outcome);
  }

  /// Run until every job is Done or Quarantined. Returns the number of
  /// jobs that finished Done.
  int run();

 private:
  JobQueue& queue_;
  std::vector<LadderRung> ladder_;
  util::BackoffPolicy policy_;
  ExecuteFn execute_;
  SleepFn sleep_;
  OutcomeFn on_outcome_;
};

}  // namespace tempest::jobs
