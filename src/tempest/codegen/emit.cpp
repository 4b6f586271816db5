#include "tempest/codegen/emit.hpp"

#include <algorithm>
#include <iomanip>
#include <sstream>

#include "tempest/stencil/coefficients.hpp"
#include "tempest/util/error.hpp"

namespace tempest::codegen {

namespace {

std::string flit(double v) {
  std::ostringstream os;
  os << std::setprecision(9) << std::scientific << v << 'f';
  return os.str();
}

/// The kernel name is spliced into the C source and the exported symbol:
/// anything but a C identifier would fail to compile (or worse, compile
/// into something else), so it is a caller error at emit time.
void require_c_identifier(const std::string& name) {
  const auto alpha = [](char c) {
    return (c >= 'a' && c <= 'z') || (c >= 'A' && c <= 'Z') || c == '_';
  };
  const bool ok = !name.empty() && alpha(name.front()) &&
                  std::all_of(name.begin(), name.end(), [&](char c) {
                    return alpha(c) || (c >= '0' && c <= '9');
                  });
  TEMPEST_REQUIRE_MSG(ok, "kernel name '" + name + "' is not a C identifier");
}

/// `#pragma omp simd` with the spec's preferred lane count.
void emit_simd_pragma(std::ostringstream& os, int simd_width) {
  if (simd_width > 0) {
    os << "#pragma omp simd simdlen(" << simd_width << ")\n";
  } else {
    os << "#pragma omp simd\n";
  }
}

}  // namespace

/// The per-box stencil body with the FD weights baked in as literals
/// (what Devito's generated C looks like). The z loop is the SIMD axis:
/// per-row pointers are hoisted out of it as `restrict` locals so the
/// vectorizer sees five loop-invariant non-aliasing bases (the row
/// arithmetic in the induction would otherwise defeat its dependence
/// tests), and the `omp simd` pragma carries the spec's preferred lane
/// count. The arrays come from util::AlignedAllocator storage (64-byte
/// allocation bases — asserted when the engine adapter is built); rows sit
/// at an arbitrary halo offset inside that allocation, so no `aligned`
/// clause is claimed and GCC's peeling aligns each row itself.
std::string emit_acoustic_c(const KernelSpec& spec) {
  TEMPEST_REQUIRE(spec.space_order >= 2 && spec.space_order % 2 == 0);
  require_c_identifier(spec.kernel);
  const stencil::Coeffs c = stencil::central(2, spec.space_order);
  const int r = stencil::radius_for_order(spec.space_order);
  std::ostringstream os;
  os << "/* Generated by tempest::codegen — isotropic acoustic O(2,"
     << spec.space_order
     << ") update of one box at one timestep; the engine's tile plan "
        "schedules it. */\n"
     << "void " << spec.symbol() << R"((float* restrict un, const float* restrict uc,
    const float* restrict up, const float* restrict m,
    const float* restrict damp, long sx, long sy, int x0, int x1, int y0,
    int y1, int z0, int z1, float inv_h2, float idt2, float i2dt) {
  for (int x = x0; x < x1; ++x) {
    for (int y = y0; y < y1; ++y) {
      const long row = (long)x * sx + (long)y * sy;
      float* restrict unr = un + row;
      const float* restrict ucr = uc + row;
      const float* restrict upr = up + row;
      const float* restrict mr = m + row;
      const float* restrict dr = damp + row;
)";
  emit_simd_pragma(os, spec.simd_width);
  os << "      for (int z = z0; z < z1; ++z) {\n";
  const double w0 = c.weights[static_cast<std::size_t>(r)];
  os << "        float acc = " << flit(3.0 * w0) << " * ucr[z];\n";
  for (int k = 1; k <= r; ++k) {
    const double wk = c.weights[static_cast<std::size_t>(r + k)];
    os << "        acc += " << flit(wk) << " * (ucr[z - " << k
       << "] + ucr[z + " << k << "] + ucr[z - " << k << "*sy] + ucr[z + " << k
       << "*sy] + ucr[z - " << k << "*sx] + ucr[z + " << k << "*sx]);\n";
  }
  os << R"(        const float lap = acc * inv_h2;
        const float num = lap + mr[z] * idt2 * (2.0f * ucr[z] - upr[z]) +
                          dr[z] * i2dt * upr[z];
        unr[z] = num / (mr[z] * idt2 + dr[z] * i2dt);
      }
    }
  }
}
)";
  return os.str();
}

namespace {

/// Render a typed update expression as a C float expression. Loads resolve
/// against the hoisted row pointers (`ucr` = t, `upr` = t-1), params against
/// `p<i>r`; constants are emitted as float literals of their real_t-rounded
/// value, so the compiled expression performs exactly the arithmetic the
/// DslKernel tape performs.
std::string render_expr(const dsl::ir::Expr& e,
                        const std::vector<std::string>& params) {
  using K = dsl::ir::Expr::Kind;
  switch (e.kind) {
    case K::Const:
      return flit(static_cast<double>(static_cast<float>(e.value)));
    case K::Load: {
      std::string idx = "z";
      if (e.dx != 0) idx += " + (" + std::to_string(e.dx) + ")*sx";
      if (e.dy != 0) idx += " + (" + std::to_string(e.dy) + ")*sy";
      if (e.dz != 0) idx += " + (" + std::to_string(e.dz) + ")";
      return (e.dt == 0 ? "ucr[" : "upr[") + idx + "]";
    }
    case K::Param: {
      for (std::size_t i = 0; i < params.size(); ++i) {
        if (params[i] == e.name) {
          return "p" + std::to_string(i) + "r[z]";
        }
      }
      TEMPEST_REQUIRE_MSG(false, "unbound parameter in update tree: " +
                                     e.name);
      return {};
    }
    case K::Binary:
      return "(" + render_expr(*e.a, params) + " " + e.op + " " +
             render_expr(*e.b, params) + ")";
  }
  TEMPEST_REQUIRE_MSG(false, "malformed update tree");
  return {};
}

}  // namespace

/// The generic per-box stencil body: same loop skeleton and SIMD contract
/// as the acoustic template, update expression generated from the tree.
std::string emit_dsl_c(const dsl::LoweredKernel& lowered,
                       const KernelSpec& spec) {
  TEMPEST_REQUIRE(spec.space_order >= 2 && spec.space_order % 2 == 0);
  TEMPEST_REQUIRE_MSG(spec.space_order == lowered.space_order,
                      "spec space order must match the lowering");
  TEMPEST_REQUIRE_MSG(lowered.update != nullptr,
                      "lowered kernel has no update tree");
  require_c_identifier(spec.kernel);
  std::ostringstream os;
  os << "/* Generated by tempest::codegen — DSL kernel \"" << spec.kernel
     << "\" O(2," << lowered.space_order
     << ") update of one box at one timestep; the engine's tile plan "
        "schedules it. */\n"
     << "void " << spec.symbol() << R"((float* restrict un, const float* restrict uc,
    const float* restrict up, const float* const* restrict prm, long sx,
    long sy, int x0, int x1, int y0, int y1, int z0, int z1) {
  for (int x = x0; x < x1; ++x) {
    for (int y = y0; y < y1; ++y) {
      const long row = (long)x * sx + (long)y * sy;
      float* restrict unr = un + row;
      const float* restrict ucr = uc + row;
      const float* restrict upr = up + row;
)";
  for (std::size_t i = 0; i < lowered.params.size(); ++i) {
    os << "      const float* restrict p" << i << "r = prm[" << i
       << "] + row;  /* " << lowered.params[i] << " */\n";
  }
  emit_simd_pragma(os, spec.simd_width);
  os << "      for (int z = z0; z < z1; ++z) {\n"
     << "        unr[z] = " << render_expr(*lowered.update, lowered.params)
     << ";\n"
     << R"(      }
    }
  }
}
)";
  return os.str();
}

}  // namespace tempest::codegen
