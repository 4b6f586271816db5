#pragma once

#include <string>

#include "tempest/core/wavefront.hpp"
#include "tempest/dsl/lower.hpp"

namespace tempest::codegen {

/// C code generation for the acoustic update — the Devito-style split
/// between kernel and orchestration: where the physics/ kernels are
/// ahead-of-time compiled C++, this module *emits* a freestanding C
/// translation unit from the problem parameters, with the FD weights as
/// literals, exactly like Devito's generated operators. The translation
/// unit exports one function, the update of one box at one timestep (the
/// body of the engine's tile loop); which boxes run when, the sparse
/// injection and the receiver gather stay with core::engine and its
/// TilePlan. jit.hpp compiles and loads the result at run time.
struct KernelSpec {
  int space_order = 4;
  /// Not read by the emitters; perfbench's codegen probe still sets it.
  bool wavefront = false;
  /// Not read by the emitters; perfbench's codegen probe still sets it.
  core::TileSpec tiles{};
  /// Preferred SIMD lane count (floats) for the generated inner loop's
  /// `#pragma omp simd simdlen(...)` clause: 8 fills an AVX2 register,
  /// 16 an AVX-512 one (util::kAlignment / sizeof(float)). 0 emits a
  /// plain `omp simd` and lets the compiler pick. A hint, not an ABI
  /// change — every width computes identical results.
  int simd_width = 8;
  /// Kernel name baked into the emitted symbol; must be a C identifier.
  /// The hand-maintained acoustic emitter keeps the historical "acoustic"
  /// default; DSL-lowered kernels carry their LoweredKernel name so
  /// several generated modules can coexist in one process.
  std::string kernel = "acoustic";

  /// Emitted entry point name.
  [[nodiscard]] std::string symbol() const {
    return "tempest_" + kernel + "_block_so" + std::to_string(space_order);
  }
};

/// Emit the C translation unit for `spec`. Its one external function,
/// spec.symbol(), has the ABI of physics::AcousticBlockFn: u[t+1] from
/// u[t] and u[t-1] over the box [x0,x1) x [y0,y1) x [z0,z1), stored over
/// u[t-1] in place. Pointers are interior origins of grids sharing the
/// strides sx, sy. Throws PreconditionError when spec.kernel is not a C
/// identifier.
[[nodiscard]] std::string emit_acoustic_c(const KernelSpec& spec);

/// Emit the C translation unit for a DSL-lowered kernel. Its one external
/// function, spec.symbol(), has the ABI of dsl::DslBlockFn: the update
/// expression is generated from the typed tree (FD weights and equation
/// constants as literals, in the exact association the lowering produced,
/// compiled with -ffp-contract=off), and prm[i] is the interior origin of
/// lowered.params[i]. `spec.kernel` should be `lowered.name` and must be a
/// C identifier; `spec.space_order` must match the lowering.
[[nodiscard]] std::string emit_dsl_c(const dsl::LoweredKernel& lowered,
                                     const KernelSpec& spec);

}  // namespace tempest::codegen
