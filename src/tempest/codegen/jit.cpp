#include "tempest/codegen/jit.hpp"

#include <dlfcn.h>
#include <poll.h>
#include <signal.h>
#include <sys/wait.h>
#include <unistd.h>

#include <algorithm>
#include <array>
#include <cerrno>
#include <chrono>
#include <cstdlib>
#include <cstring>
#include <filesystem>
#include <fstream>

#include "tempest/analysis/statics/stability.hpp"
#include "tempest/analysis/statics/verify.hpp"
#include "tempest/resilience/fault.hpp"
#include "tempest/trace/trace.hpp"
#include "tempest/util/backoff.hpp"
#include "tempest/util/log.hpp"

namespace tempest::codegen {

namespace {

/// Removes a module's private directory with everything in it, ignoring
/// errors: it runs from destructors and on failure exits.
void remove_dir(const std::string& dir) {
  if (dir.empty()) return;
  std::error_code ec;
  std::filesystem::remove_all(dir, ec);
}

/// Removes the directory unless released — the write/compile/dlopen/dlsym
/// pipeline has several failure exits and every one of them must clean up
/// both the .c and the .so.
class TempDirGuard {
 public:
  explicit TempDirGuard(std::string path) : path_(std::move(path)) {}
  ~TempDirGuard() { remove_dir(path_); }
  TempDirGuard(const TempDirGuard&) = delete;
  TempDirGuard& operator=(const TempDirGuard&) = delete;

  void release() { path_.clear(); }

 private:
  std::string path_;
};

/// The flags of every generated block: optimise + vectorise; -fopenmp-simd
/// honours the generated `omp simd simdlen` pragmas without pulling in the
/// OpenMP runtime, so compiled blocks stay single-threaded objects the
/// task-parallel engine schedules; -ffp-contract=off mirrors the library
/// build — the generated C evaluates the same expression trees as the AOT
/// kernels and the DslKernel tape, and bitwise cross-artifact comparisons
/// need all three to round identically. -march=native follows the library
/// build too (TEMPEST_NATIVE_ARCH), so a block vectorises for the same ISA
/// as the AOT kernel it replaces.
constexpr const char* kCompileFlags =
    "-O3 -fopenmp-simd -ffp-contract=off"
#if defined(TEMPEST_JIT_MARCH_NATIVE)
    " -march=native"
#endif
    ;

/// The system C compiler: $CC when set (how users point the JIT at icc/
/// clang or a wrapper, extra flags included), else "cc".
std::string compiler_command() {
  const char* cc = std::getenv("CC");
  return (cc != nullptr && *cc != '\0') ? cc : "cc";
}

/// Compile deadline in milliseconds ($TEMPEST_JIT_TIMEOUT_MS, default 2
/// minutes): a wedged compiler must not hang the simulation forever.
int jit_timeout_ms() {
  const char* env = std::getenv("TEMPEST_JIT_TIMEOUT_MS");
  if (env != nullptr && *env != '\0') {
    const long v = std::strtol(env, nullptr, 10);
    if (v > 0) return static_cast<int>(v);
  }
  return 120000;
}

struct CommandResult {
  int status = -1;       ///< exit code; nonzero = failure
  std::string output;    ///< combined stdout+stderr
  bool timed_out = false;
};

/// Run a shell command with combined output capture and a hard deadline.
/// fork/exec instead of popen so the child can be killed (as its own
/// process group) when the deadline passes.
CommandResult run_command(const std::string& cmd, int timeout_ms) {
  if (resilience::fault::consume_jit_failure()) {
    return {1, "fault injection: simulated compiler failure", false};
  }

  int fds[2];
  if (::pipe(fds) != 0) return {-1, "pipe() failed", false};

  const pid_t pid = ::fork();
  if (pid < 0) {
    ::close(fds[0]);
    ::close(fds[1]);
    return {-1, "fork() failed", false};
  }
  if (pid == 0) {
    ::setpgid(0, 0);  // own group, so the timeout can kill sh + compiler
    ::dup2(fds[1], STDOUT_FILENO);
    ::dup2(fds[1], STDERR_FILENO);
    ::close(fds[0]);
    ::close(fds[1]);
    ::execl("/bin/sh", "sh", "-c", cmd.c_str(), static_cast<char*>(nullptr));
    ::_exit(127);
  }

  ::close(fds[1]);
  CommandResult res;
  const auto deadline = std::chrono::steady_clock::now() +
                        std::chrono::milliseconds(timeout_ms);
  std::array<char, 4096> buf{};
  struct pollfd pfd {
    fds[0], POLLIN, 0
  };
  for (;;) {
    const auto now = std::chrono::steady_clock::now();
    if (now >= deadline) {
      res.timed_out = true;
      break;
    }
    const auto remain_ms =
        std::chrono::duration_cast<std::chrono::milliseconds>(deadline - now)
            .count();
    const int pr =
        ::poll(&pfd, 1, static_cast<int>(std::min<long long>(remain_ms, 200)));
    if (pr > 0) {
      const ssize_t n = ::read(fds[0], buf.data(), buf.size());
      if (n > 0) {
        res.output.append(buf.data(), static_cast<std::size_t>(n));
        continue;
      }
      if (n == 0) break;  // EOF: every writer exited
      if (errno == EINTR || errno == EAGAIN) continue;
      break;
    }
    if (pr < 0 && errno != EINTR) break;
  }
  ::close(fds[0]);

  int status = 0;
  if (res.timed_out) {
    ::kill(-pid, SIGKILL);
    ::kill(pid, SIGKILL);
    ::waitpid(pid, &status, 0);
    res.status = -1;
    res.output += "\ncompiler killed after exceeding the " +
                  std::to_string(timeout_ms) + " ms deadline";
    return res;
  }
  ::waitpid(pid, &status, 0);
  res.status = WIFEXITED(status) ? WEXITSTATUS(status) : -1;
  return res;
}

}  // namespace

JitModule::JitModule(const std::string& c_source,
                     const std::string& symbol_name) {
  TEMPEST_TRACE_SPAN_METRIC("jit.compile", "codegen", JitCompileSeconds);
  TEMPEST_TRACE_COUNT(JitCompiles, 1);
  // Both artifacts live in a fresh mode-0700 directory: a predictable name
  // in world-writable /tmp could be claimed by another local user between
  // the compile writing the .so and dlopen loading it.
  char dir_template[] = "/tmp/tempest_jit_XXXXXX";
  if (::mkdtemp(dir_template) == nullptr) {
    throw JitCompileError(std::string("cannot create a private JIT "
                                      "directory: ") +
                          std::strerror(errno));
  }
  const std::string dir = dir_template;
  TempDirGuard dir_guard(dir);
  const std::string c_path = dir + "/kernel.c";
  const std::string so_path = dir + "/kernel.so";
  {
    std::ofstream out(c_path, std::ios::binary);
    out << c_source;
    out.close();
    if (out.fail()) {
      throw JitCompileError("cannot write the generated source to " + c_path);
    }
  }

  const std::string cmd = compiler_command() + " " + kCompileFlags +
                          " -fPIC -shared -o " + so_path + " " + c_path;
  const int timeout_ms = jit_timeout_ms();

  // Retries absorb transient failures (OOM kill, tmpfs hiccup, a ccache
  // race); a deterministic diagnostic simply fails again, so the budget is
  // small by default. A timed-out compile is never retried — it would hang
  // the run for another full deadline.
  const util::BackoffPolicy policy = util::BackoffPolicy::from_env(
      "TEMPEST_JIT",
      util::BackoffPolicy{.max_attempts = 2, .base_ms = 50.0, .max_ms = 2000.0});
  CommandResult res;
  for (int attempt = 1;; ++attempt) {
    res = run_command(cmd, timeout_ms);
    if (res.status == 0) break;
    if (res.timed_out) {
      throw JitCompileError("generated code failed to compile (deadline "
                            "exceeded; not retried):\n" +
                            res.output);
    }
    if (attempt >= policy.max_attempts) {
      throw JitCompileError("generated code failed to compile after " +
                            std::to_string(attempt) + " attempt(s):\n" +
                            res.output);
    }
    const double delay = policy.delay_ms(attempt);
    util::warn("JIT compile failed (attempt " + std::to_string(attempt) +
               "/" + std::to_string(policy.max_attempts) + "), retrying in " +
               std::to_string(static_cast<long>(delay)) + " ms: " + cmd);
    util::sleep_ms(delay);
  }

  {
    TEMPEST_TRACE_SPAN("jit.load", "codegen");
    handle_ = ::dlopen(so_path.c_str(), RTLD_NOW | RTLD_LOCAL);
    TEMPEST_REQUIRE_MSG(handle_ != nullptr,
                        std::string("dlopen failed: ") + ::dlerror());
    sym_ = ::dlsym(handle_, symbol_name.c_str());
    if (sym_ == nullptr) {
      ::dlclose(handle_);
      handle_ = nullptr;
      TEMPEST_REQUIRE_MSG(false,
                          "symbol not found in generated module: " +
                              symbol_name);
    }
  }
  // Success: the directory lives as long as the module; the destructor
  // removes it.
  dir_guard.release();
  dir_ = dir;
}

JitModule::JitModule(JitModule&& other) noexcept
    : handle_(other.handle_), sym_(other.sym_), dir_(std::move(other.dir_)) {
  other.handle_ = nullptr;
  other.sym_ = nullptr;
  other.dir_.clear();
}

JitModule& JitModule::operator=(JitModule&& other) noexcept {
  if (this != &other) {
    this->~JitModule();
    new (this) JitModule(std::move(other));
  }
  return *this;
}

JitModule::~JitModule() {
  if (handle_ != nullptr) ::dlclose(handle_);
  remove_dir(dir_);
}

namespace {

/// Emit-and-compile tail shared by both JIT propagators. Resilience over
/// speed: a broken toolchain leaves the block empty, and the propagator
/// runs `fallback` in the same engine instead of aborting.
CompiledBlock compile_block(std::string source, const std::string& symbol,
                            const std::string& fallback) {
  CompiledBlock out;
  out.source = std::move(source);
  try {
    out.module.emplace(out.source, symbol);
  } catch (const util::PreconditionError& e) {
    out.error = e.what();
    util::warn("JIT compilation failed; falling back to the " + fallback +
               ": " + e.what());
  }
  return out;
}

double resolved_dt(const physics::AcousticModel& model,
                   const physics::PropagatorOptions& opts) {
  return opts.dt > 0.0 ? opts.dt : model.critical_dt();
}

/// Gates, then compile. A statically unstable dt is a caller bug, not a
/// toolchain failure, so StaticVerificationError propagates before the
/// compiler is paid for — no fallback.
CompiledBlock compile_acoustic(const physics::AcousticModel& model,
                               const KernelSpec& spec,
                               const physics::PropagatorOptions& opts) {
  TEMPEST_REQUIRE_MSG(model.geom.space_order == spec.space_order,
                      "model space order must match the generated kernel");
  if (!opts.allow_unstable) {
    analysis::statics::require_stable(
        analysis::statics::check_acoustic_stability(
            resolved_dt(model, opts), model.geom.spacing, spec.space_order,
            analysis::statics::grid_interval(model.vp)),
        spec.kernel);
  }
  return compile_block(emit_acoustic_c(spec), spec.symbol(),
                       "AOT acoustic template");
}

/// Gates, then compile. Binding errors and a failing statics verdict
/// (intervals, von Neumann proof, IR lint against the model halo) are
/// caller bugs and propagate before the compiler runs — no fallback.
CompiledBlock compile_dsl(const dsl::LoweredKernel& lowered,
                          const physics::AcousticModel& model,
                          const KernelSpec& spec,
                          const physics::PropagatorOptions& opts,
                          const dsl::ParamBindings& bindings) {
  TEMPEST_REQUIRE_MSG(model.geom.space_order == spec.space_order,
                      "model space order must match the generated kernel");
  TEMPEST_REQUIRE_MSG(lowered.space_order == spec.space_order,
                      "lowered kernel space order must match the spec");
  (void)dsl::resolve_params(lowered, model, bindings);
  dsl::require_statics_ok(lowered, model, bindings, resolved_dt(model, opts),
                          opts.allow_unstable);
  return compile_block(emit_dsl_c(lowered, spec), spec.symbol(),
                       "DslKernel tape");
}

}  // namespace

JitAcoustic::JitAcoustic(const physics::AcousticModel& model,
                         const KernelSpec& spec,
                         physics::PropagatorOptions opts)
    : JitAcoustic(model, opts, compile_acoustic(model, spec, opts)) {}

JitAcoustic::JitAcoustic(const physics::AcousticModel& model,
                         const physics::PropagatorOptions& opts,
                         CompiledBlock block)
    : physics::AcousticPropagator(model, opts,
                                  block.fn<physics::AcousticBlockFn>()),
      compiled_(std::move(block)) {}

JitDsl::JitDsl(const dsl::Eq& eq, const physics::AcousticModel& model,
               const KernelSpec& spec, physics::PropagatorOptions opts,
               const dsl::ParamBindings& bindings)
    : JitDsl(dsl::lower_kernel(eq, spec.space_order, model.geom.spacing,
                               resolved_dt(model, opts), spec.kernel),
             model, spec, opts, bindings) {}

JitDsl::JitDsl(const dsl::LoweredKernel& lowered,
               const physics::AcousticModel& model, const KernelSpec& spec,
               physics::PropagatorOptions opts,
               const dsl::ParamBindings& bindings)
    : JitDsl(lowered, model, opts, bindings,
             compile_dsl(lowered, model, spec, opts, bindings)) {}

JitDsl::JitDsl(const dsl::LoweredKernel& lowered,
               const physics::AcousticModel& model,
               const physics::PropagatorOptions& opts,
               const dsl::ParamBindings& bindings, CompiledBlock block)
    : dsl::DslPropagator(lowered, model, opts, bindings,
                         block.fn<dsl::DslBlockFn>()),
      compiled_(std::move(block)) {}

}  // namespace tempest::codegen
