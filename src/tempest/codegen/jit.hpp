#pragma once

#include <optional>
#include <string>

#include "tempest/codegen/emit.hpp"
#include "tempest/dsl/kernel.hpp"
#include "tempest/physics/acoustic.hpp"
#include "tempest/util/error.hpp"

namespace tempest::codegen {

/// Compiler invocation failed after the retry budget (or timed out — a
/// deadline overrun is never retried, it would hang twice as long). Derives
/// from util::TransientError: the toolchain may recover on a later attempt,
/// so job-level retry policies treat it as retryable, while the JIT
/// propagators degrade to their AOT template or tape immediately.
class JitCompileError : public util::TransientError {
 public:
  using util::TransientError::TransientError;
};

/// JIT host: compiles a C translation unit with the system C compiler into
/// a shared object and loads one symbol — the run-time half of the
/// Devito-style code generation workflow. Source and object live in a
/// private (mode 0700) directory under /tmp that is removed on *every*
/// path, success or failure; on success it lives exactly as long as the
/// module.
///
/// Hardened for long-running production use: honours $CC (falling back to
/// "cc"), retries failed compiles under the shared util::BackoffPolicy
/// (transient OOM kills and tmpfs races happen on loaded hosts; attempts
/// and base delay configurable via $TEMPEST_JIT_RETRIES /
/// $TEMPEST_JIT_RETRY_BASE_MS), and kills a compile that exceeds the
/// $TEMPEST_JIT_TIMEOUT_MS deadline (default 2 minutes) instead of hanging
/// the simulation behind a wedged compiler. Exhausted retries throw
/// JitCompileError.
class JitModule {
 public:
  /// Compile `c_source` and resolve `symbol_name`. Throws PreconditionError
  /// with the compiler diagnostics on failure. `extra_flags` is appended to
  /// the compile line (default: optimise + vectorise; -fopenmp-simd honours
  /// the generated `omp simd simdlen` pragmas without pulling in the
  /// OpenMP runtime, so JIT-compiled kernels stay single-threaded objects
  /// the task-parallel engine can schedule; -ffp-contract=off mirrors the
  /// engine build — the JIT'd C evaluates the same expression trees as the
  /// AOT kernels and the DslKernel tape, and bitwise cross-artifact
  /// comparisons require all three to round identically).
  JitModule(const std::string& c_source, const std::string& symbol_name,
            const std::string& extra_flags =
                "-O3 -fopenmp-simd -ffp-contract=off");

  JitModule(JitModule&& other) noexcept;
  JitModule& operator=(JitModule&& other) noexcept;
  JitModule(const JitModule&) = delete;
  JitModule& operator=(const JitModule&) = delete;
  ~JitModule();

  [[nodiscard]] void* symbol() const { return sym_; }

  template <typename Fn>
  [[nodiscard]] Fn* as() const {
    return reinterpret_cast<Fn*>(sym_);
  }

 private:
  void* handle_ = nullptr;
  void* sym_ = nullptr;
  std::string dir_;
};

/// A generated translation unit and, when the toolchain built it, the
/// loaded module exporting its block.
struct CompiledBlock {
  std::string source;
  std::optional<JitModule> module;
  std::string error;  ///< why `module` is empty

  template <typename Fn>
  [[nodiscard]] Fn* fn() const {
    return module ? module->as<Fn>() : nullptr;
  }
};

/// An AcousticPropagator whose per-box update is the block emit_acoustic_c
/// generates, compiled and loaded at construction. It runs on the engine
/// like the AOT kernel — every schedule and thread count, fused injection,
/// receivers, health scans, run_from, checkpoints and the race proof — and
/// agrees with it to rounding (its weights are float literals folded in
/// double).
///
/// A statically unstable dt (beyond the von Neumann bound, unless
/// opts.allow_unstable) throws StaticVerificationError before the compiler
/// runs. A toolchain failure does not throw: the propagator warns and runs
/// the AOT template instead, and compiled() reports it.
class JitAcoustic : public physics::AcousticPropagator {
 public:
  JitAcoustic(const physics::AcousticModel& model, const KernelSpec& spec,
              physics::PropagatorOptions opts = {});

  /// True when the generated block runs; false after a toolchain failure.
  [[nodiscard]] bool compiled() const { return compiled_.module.has_value(); }
  /// The toolchain diagnostics when !compiled().
  [[nodiscard]] const std::string& compile_error() const {
    return compiled_.error;
  }
  [[nodiscard]] const std::string& source_code() const {
    return compiled_.source;
  }

 private:
  JitAcoustic(const physics::AcousticModel& model,
              const physics::PropagatorOptions& opts, CompiledBlock block);

  CompiledBlock compiled_;
};

/// A DslPropagator whose per-box update is the block emit_dsl_c generates
/// from the lowered tree — the fully generic half of the Devito-style
/// workflow: any equation dsl::lower_kernel accepts becomes a compiled
/// block on the engine. The full statics verdict (intervals, von Neumann
/// proof, IR lint against the model halo) runs before the compiler; a
/// toolchain failure degrades to the DslKernel tape, which evaluates the
/// identical tree in real_t, so results are bit-identical either way.
class JitDsl : public dsl::DslPropagator {
 public:
  JitDsl(const dsl::Eq& eq, const physics::AcousticModel& model,
         const KernelSpec& spec, physics::PropagatorOptions opts = {},
         const dsl::ParamBindings& bindings = {});

  /// Compile an already-lowered kernel tree. Same gates as the Eq
  /// overload — this is the path the statics tests use to prove that a
  /// *corrupted* tree (e.g. a load beyond the declared halo) is refused
  /// before compiling, something the Eq overload cannot produce because
  /// lower_kernel never emits one.
  JitDsl(const dsl::LoweredKernel& lowered,
         const physics::AcousticModel& model, const KernelSpec& spec,
         physics::PropagatorOptions opts = {},
         const dsl::ParamBindings& bindings = {});

  /// True when the generated block runs; false after a toolchain failure.
  [[nodiscard]] bool compiled() const { return compiled_.module.has_value(); }
  /// The toolchain diagnostics when !compiled().
  [[nodiscard]] const std::string& compile_error() const {
    return compiled_.error;
  }
  [[nodiscard]] const std::string& source_code() const {
    return compiled_.source;
  }

 private:
  JitDsl(const dsl::LoweredKernel& lowered,
         const physics::AcousticModel& model,
         const physics::PropagatorOptions& opts,
         const dsl::ParamBindings& bindings, CompiledBlock block);

  CompiledBlock compiled_;
};

}  // namespace tempest::codegen
