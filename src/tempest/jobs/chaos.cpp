#include "tempest/jobs/chaos.hpp"

#include <sys/stat.h>
#include <sys/wait.h>
#include <unistd.h>

#include <algorithm>
#include <cstdio>
#include <filesystem>
#include <fstream>
#include <vector>

#include "tempest/io/io.hpp"
#include "tempest/jobs/survey.hpp"
#include "tempest/obs/recorder.hpp"
#include "tempest/util/error.hpp"
#include "tempest/util/log.hpp"
#include "tempest/util/rng.hpp"

extern char** environ;

namespace tempest::jobs {

ChildResult run_child(const std::vector<std::string>& argv,
                      const std::vector<std::string>& extra_env) {
  TEMPEST_REQUIRE(!argv.empty());
  std::vector<char*> cargv;
  cargv.reserve(argv.size() + 1);
  for (const std::string& s : argv) {
    cargv.push_back(const_cast<char*>(s.c_str()));
  }
  cargv.push_back(nullptr);

  std::vector<char*> cenv;
  for (char** e = environ; e != nullptr && *e != nullptr; ++e) {
    cenv.push_back(*e);
  }
  for (const std::string& s : extra_env) {
    cenv.push_back(const_cast<char*>(s.c_str()));
  }
  cenv.push_back(nullptr);

  const pid_t pid = ::fork();
  TEMPEST_REQUIRE_MSG(pid >= 0, "fork() failed");
  if (pid == 0) {
    ::execve(cargv[0], cargv.data(), cenv.data());
    ::_exit(127);  // exec failed
  }
  int status = 0;
  ::waitpid(pid, &status, 0);
  ChildResult res;
  if (WIFSIGNALED(status)) {
    res.killed = true;
    res.signal = WTERMSIG(status);
  } else if (WIFEXITED(status)) {
    res.exit_code = WEXITSTATUS(status);
    TEMPEST_REQUIRE_MSG(res.exit_code != 127,
                        "cannot exec worker '" + argv[0] + "'");
  }
  return res;
}

bool files_identical(const std::string& a, const std::string& b) {
  try {
    return io::read_file(a) == io::read_file(b);
  } catch (const io::CorruptFileError&) {
    return false;  // a missing or unreadable file matches nothing
  }
}

bool flip_byte(const std::string& path, std::uint64_t offset) {
  std::fstream f(path, std::ios::binary | std::ios::in | std::ios::out);
  if (!f.good()) return false;
  f.seekg(0, std::ios::end);
  const auto size = static_cast<std::uint64_t>(f.tellg());
  if (size == 0) return false;
  const std::uint64_t at = offset % size;
  f.seekg(static_cast<std::streamoff>(at));
  char c = 0;
  f.read(&c, 1);
  c = static_cast<char>(c ^ 0x5A);
  f.seekp(static_cast<std::streamoff>(at));
  f.write(&c, 1);
  f.flush();
  return f.good();
}

long read_progress_total(const std::string& jobs_dir) {
  std::ifstream p(jobs_dir + "/progress.txt");
  long total = 0;
  if (p.good()) p >> total;
  return total;
}

namespace {

/// Spawn one worker pass of `self`; kill_at <= 0 leaves the kill disarmed.
ChildResult spawn_worker(const std::string& self,
                         const std::vector<std::string>& worker_args,
                         const std::string& dir, long kill_at) {
  std::vector<std::string> argv;
  argv.push_back(self);
  argv.push_back("--worker");
  for (const std::string& a : worker_args) argv.push_back(a);
  argv.push_back("--dir=" + dir);
  std::vector<std::string> env;
  if (kill_at > 0) {
    env.push_back("TEMPEST_CHAOS_KILL_AT=" + std::to_string(kill_at));
  }
  return run_child(argv, env);
}

/// Every .tfbr the dead worker left behind must pass CRC verification, and
/// at least one must decode to a non-empty event stream (the victim shot's
/// final moments). Returns "" on success, a diagnostic otherwise.
std::string check_blackboxes(const std::string& blackbox_dir) {
  std::size_t boxes = 0;
  std::size_t with_events = 0;
  std::error_code ec;
  for (const auto& entry :
       std::filesystem::directory_iterator(blackbox_dir, ec)) {
    if (entry.path().extension() != ".tfbr") continue;
    const std::string path = entry.path().string();
    boxes += 1;
    std::string err;
    if (!obs::verify_blackbox(path, &err)) {
      return "black box '" + path + "' failed verification: " + err;
    }
    if (!obs::read_blackbox(path).events.empty()) with_events += 1;
  }
  if (ec) return "cannot scan '" + blackbox_dir + "': " + ec.message();
  if (boxes == 0) {
    return "no black box left behind in '" + blackbox_dir + "'";
  }
  if (with_events == 0) {
    return "no black box in '" + blackbox_dir + "' holds any events";
  }
  util::info("chaos: " + std::to_string(boxes) +
             " black box(es) verified, " + std::to_string(with_events) +
             " with decodable events");
  return "";
}

}  // namespace

std::string run_chaos(const ChaosSpec& spec, const std::string& self) {
  const std::string ref_dir = spec.root + "/reference";
  const std::string chaos_dir = spec.root + "/chaos";
  std::filesystem::remove_all(spec.root);
  std::filesystem::create_directories(spec.root);

  // 1. Uninterrupted reference run.
  const ChildResult ref = spawn_worker(self, spec.worker_args, ref_dir, -1);
  if (ref.killed || ref.exit_code != 0) {
    return "chaos: reference run failed (exit " +
           std::to_string(ref.exit_code) + ")";
  }
  const long total_progress = read_progress_total(ref_dir);
  if (total_progress <= 0) {
    return "chaos: reference run left no progress total";
  }
  util::info("chaos: reference run complete, " +
             std::to_string(total_progress) + " progress ticks");

  // 2. Kill the chaos pass `kills` times at seeded points. Kill points are
  // drawn from the first chunk of the progress range so the survey cannot
  // finish before the kill budget is spent — every kill lands mid-run.
  util::SplitMix64 rng(spec.seed);
  const long chunk = std::max<long>(
      1, total_progress / static_cast<long>(spec.kills + 2));
  for (int k = 0; k < spec.kills; ++k) {
    const long kill_at =
        1 + static_cast<long>(rng.below(static_cast<std::uint64_t>(chunk)));
    const ChildResult r =
        spawn_worker(self, spec.worker_args, chaos_dir, kill_at);
    if (!r.killed) {
      // The worker got further than the armed tick needed — acceptable only
      // if it finished outright (counts as a wasted kill).
      util::info("chaos: kill " + std::to_string(k) + " at tick " +
                 std::to_string(kill_at) + " did not fire (worker exited " +
                 std::to_string(r.exit_code) + ")");
      continue;
    }
    util::info("chaos: kill " + std::to_string(k) + " fired at tick " +
               std::to_string(kill_at) + " (signal " +
               std::to_string(r.signal) + ")");
    // Post-mortem contract: a SIGKILL'd worker must leave its victim
    // shot's flight recorder behind, CRC-verifiable and holding at least
    // one decodable record of the shot's final moments.
    {
      const std::string err = check_blackboxes(chaos_dir + "/blackbox");
      if (!err.empty()) {
        return "chaos: after kill " + std::to_string(k) + ": " + err;
      }
    }
    if (spec.corrupt && k == spec.kills / 2) {
      // Bit-flip the newest checkpoint of shot 0 (if present): recovery
      // must fall back to the rotated predecessor, not die.
      const std::string ck = chaos_dir + "/shot_0.tpck";
      if (flip_byte(ck, rng.next())) {
        util::info("chaos: corrupted " + ck);
      }
    }
  }

  // 3. Final uninterrupted restart must finish the survey...
  const ChildResult fin = spawn_worker(self, spec.worker_args, chaos_dir, -1);
  if (fin.killed || fin.exit_code != 0) {
    return "chaos: final restart failed (exit " +
           std::to_string(fin.exit_code) + ")";
  }

  // ...and its gathers must match the reference run byte for byte.
  for (int s = 0; s < spec.shots; ++s) {
    const std::string name = "/shot_" + std::to_string(s) + ".tpg";
    if (!files_identical(ref_dir + name, chaos_dir + name)) {
      return "chaos: gather mismatch for shot " + std::to_string(s);
    }
  }
  util::info("chaos: " + std::to_string(spec.shots) +
             " gathers bit-identical after " + std::to_string(spec.kills) +
             " kills");
  std::filesystem::remove_all(spec.root);
  return "";
}

int run_chaos_worker(const util::Cli& cli) {
  SurveySpec spec;
  spec.n = static_cast<int>(cli.get_int("size", 24));
  spec.nt = static_cast<int>(cli.get_int("steps", 40));
  spec.n_shots = static_cast<int>(cli.get_int("shots", 3));
  spec.space_order = static_cast<int>(cli.get_int("so", 4));
  spec.physics = cli.get("physics", "acoustic");
  spec.schedule =
      physics::schedule_from_string(cli.get("schedule", "wavefront"));
  spec.jobs_dir = cli.get("dir", "chaos_jobs");
  spec.ckpt_every = static_cast<int>(cli.get_int("ckpt-every", 8));
  spec.health_every = 0;  // determinism only; health scans cost time
  const SurveyReport report = run_survey(spec);
  return report.quarantined == 0 ? 0 : 2;
}

}  // namespace tempest::jobs
