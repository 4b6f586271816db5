#pragma once

#include <cstdint>
#include <string>
#include <vector>

#include "tempest/util/cli.hpp"

namespace tempest::jobs {

/// Process-level primitives for the chaos harness (tools/chaos_runner and
/// the jobs_chaos test): spawn a survey worker as a real child process,
/// observe how it died, corrupt its files, and byte-compare its outputs.
/// Everything here is deterministic given the caller's fault plan — the
/// kill points come from a seeded RNG, not wall-clock timers.

struct ChildResult {
  int exit_code = -1;   ///< valid when !killed
  bool killed = false;  ///< terminated by a signal
  int signal = 0;       ///< the signal, when killed
};

/// fork/exec `argv` (argv[0] is the executable path) with `extra_env`
/// appended to the inherited environment ("KEY=VALUE" strings), wait for
/// it, and report how it ended. Throws util::PreconditionError when the
/// child cannot be spawned at all.
[[nodiscard]] ChildResult run_child(const std::vector<std::string>& argv,
                                    const std::vector<std::string>& extra_env);

/// Byte-wise file comparison (false on size mismatch or unreadable files).
[[nodiscard]] bool files_identical(const std::string& a,
                                   const std::string& b);

/// Flip one byte of `path` at `offset` (clamped into the file) — the
/// bit-rot injection that forces checkpoint rotation's CRC fallback.
/// Returns false when the file cannot be opened or is empty.
bool flip_byte(const std::string& path, std::uint64_t offset);

/// Read the progress-tick total a finished worker left in
/// <jobs_dir>/progress.txt; 0 when absent/unparseable.
[[nodiscard]] long read_progress_total(const std::string& jobs_dir);

/// One full kill/corrupt/resume experiment (the tentpole acceptance
/// criterion, shared by tools/chaos_runner and the jobs_chaos test):
///
///   1. Reference pass: the survey runs uninterrupted in `<root>/reference`;
///      its gathers are ground truth and its progress-tick total sizes the
///      kill plan.
///   2. Chaos pass in `<root>/chaos`: `kills` times, the worker is spawned
///      with $TEMPEST_CHAOS_KILL_AT armed at a seeded-random tick drawn from
///      [1, ticks of one shot] (progress total / shots: the range reaches
///      past the in-flight shot's first save on every schedule), and
///      SIGKILLs itself there. When `corrupt` is set, the newest .tpck of a
///      shot that also has a rotated .tpck.1 is bit-flipped after the
///      first kill from the middle one on that leaves such a shot, to
///      force checkpoint rotation's CRC fallback; the protocol fails if no
///      kill does. Unless the worker args hold --ckpt-every=0, at least
///      one fired kill must leave a shot checkpoint (shot_<k>.tpck or
///      .tpck.1) on disk, or the protocol fails: otherwise no restart
///      resumed mid-shot.
///   3. A final unkilled restart must exit 0, and every shot gather must be
///      byte-identical to the reference pass.
struct ChaosSpec {
  std::vector<std::string> worker_args;  ///< survey flags (no --dir/--worker)
  std::string root = "chaos_jobs";       ///< scratch root; wiped at start
  int shots = 3;                         ///< must match --shots in worker_args
  int kills = 5;
  std::uint64_t seed = 7;
  bool corrupt = false;
};

/// Run the protocol above, spawning `self --worker ...` as a real child
/// process for every pass. Returns "" on bit-identical recovery (and then
/// removes the scratch root), else a human-readable diagnostic.
[[nodiscard]] std::string run_chaos(const ChaosSpec& spec,
                                    const std::string& self);

/// The worker half of the protocol, shared by every chaos host binary:
/// build a SurveySpec from --size/--steps/--shots/--so/--physics/
/// --schedule/--ckpt-every/--dir flags (test-scale defaults) and run the
/// survey. Returns the process exit code: 0 ok, 2 when any shot was
/// quarantined.
[[nodiscard]] int run_chaos_worker(const util::Cli& cli);

}  // namespace tempest::jobs
