#include "tempest/resilience/fault.hpp"

#include <csignal>

#include <atomic>

#include "tempest/util/env.hpp"

namespace tempest::resilience::fault {

namespace {
std::atomic<long> progress{0};
}  // namespace

Plan& plan() {
  static Plan p;
  return p;
}

void reset() { plan() = Plan{}; }

bool consume_wavefield_poison(int step) {
  Plan& p = plan();
  if (p.poison_wavefield_at_step < 0 || step != p.poison_wavefield_at_step) {
    return false;
  }
  p.poison_wavefield_at_step = -1;
  return true;
}

bool consume_jit_failure() {
  Plan& p = plan();
  if (p.fail_jit_compiles <= 0) return false;
  --p.fail_jit_compiles;
  return true;
}

bool consume_checkpoint_failure() {
  Plan& p = plan();
  if (p.fail_checkpoint_writes <= 0) return false;
  --p.fail_checkpoint_writes;
  return true;
}

void note_progress() {
  const long n = progress.fetch_add(1, std::memory_order_relaxed) + 1;
  const Plan& p = plan();
  if (p.kill_after_progress >= 0 && n >= p.kill_after_progress) {
    // The chaos harness wants the real thing: no stack unwinding, no
    // destructors, no buffered-stream flushes. SIGKILL cannot be handled.
    std::raise(SIGKILL);
  }
}

long progress_count() { return progress.load(std::memory_order_relaxed); }

void arm_kill_from_env() {
  Plan& p = plan();
  if (p.kill_after_progress >= 0) return;  // programmatic arming wins
  if (const auto at = util::env_int("TEMPEST_CHAOS_KILL_AT")) {
    p.kill_after_progress = *at;
  }
}

}  // namespace tempest::resilience::fault
