#include "tempest/analysis/access.hpp"

#include <algorithm>
#include <sstream>

#include "tempest/util/error.hpp"

namespace tempest::analysis {

const char* to_string(AccessClass c) {
  switch (c) {
    case AccessClass::AffineStencil: return "affine-stencil";
    case AccessClass::MaskGuardedFused: return "mask-guarded-fused";
    case AccessClass::OffGridSparse: return "off-grid-sparse";
    case AccessClass::Precompute: return "precompute";
  }
  return "?";
}

int Extent::max_abs() const {
  TEMPEST_REQUIRE_MSG(!star, "max_abs() of a star extent");
  return std::max(std::abs(lo), std::abs(hi));
}

std::string Extent::str() const {
  if (star) return "*";
  if (lo == hi) return std::to_string(lo);
  return std::to_string(lo) + ".." + std::to_string(hi);
}

int slices_spanned(int write_dt, const std::vector<int>& time_reads) {
  int lo = write_dt;
  int hi = write_dt;
  for (const int k : time_reads.empty() ? std::vector<int>{0} : time_reads) {
    lo = std::min(lo, k);
    hi = std::max(hi, k);
  }
  return hi - lo + 1;
}

bool Access::dist_star_in(const std::string& dim) const {
  if (dim == "x") return dx.star;
  if (dim == "y") return dy.star;
  TEMPEST_REQUIRE_MSG(dim == "z", "unknown tiled dimension: " + dim);
  return dz.star;
}

std::string Access::str() const {
  std::ostringstream os;
  os << (is_write ? "W " : "R ") << field << "[t";
  if (time >= 0) os << '+';
  os << time;
  if (grid) os << ',' << dx.str() << ',' << dy.str() << ',' << dz.str();
  else os << ",.";
  os << ']';
  return os.str();
}

bool Statement::inside_loop(const std::string& dim) const {
  return std::find(loops.begin(), loops.end(), dim) != loops.end();
}

namespace {

/// Convert the typed subscript carried by the IR into the analyzer's
/// extent form (same taxonomy: affine interval or star).
Extent extent_of(const dsl::ir::Subscript& s) {
  if (s.star) return Extent::unknown();
  return Extent::range(s.lo, s.hi);
}

/// Structural extraction: the statement already carries its typed access
/// list (attached when the lowering pass built it); translate 1:1,
/// preserving order — dependence discovery order, and therefore the golden
/// diagnostics, follow the statement's textual access order.
std::vector<Access> typed_accesses(const dsl::ir::Node& node) {
  std::vector<Access> out;
  out.reserve(node.accesses.size());
  for (const dsl::ir::Access& ia : node.accesses) {
    Access a;
    a.field = ia.field;
    a.is_write = ia.is_write;
    a.time = ia.time;
    a.grid = ia.grid;
    a.dx = extent_of(ia.x);
    a.dy = extent_of(ia.y);
    a.dz = extent_of(ia.z);
    out.push_back(std::move(a));
  }
  return out;
}

/// Expand the opaque stencil call from the kernel's declared summary: one
/// write of field[t+1] at the point, a ±radius read of field[t + k0], and
/// centre reads of the deeper history slices.
std::vector<Access> stencil_accesses(const AccessSummary& k) {
  std::vector<Access> out;
  Access w;
  w.field = k.field;
  w.is_write = true;
  w.time = 1;
  w.dx = w.dy = w.dz = Extent::affine(0);
  out.push_back(w);
  for (std::size_t i = 0; i < k.time_reads.size(); ++i) {
    Access r;
    r.field = k.field;
    r.time = k.time_reads[i];
    if (i == 0) {
      r.dx = r.dy = r.dz = Extent::range(-k.radius, k.radius);
    } else {
      r.dx = r.dy = r.dz = Extent::affine(0);
    }
    out.push_back(r);
  }
  return out;
}

AccessClass classify_statement(const std::string& tag,
                               const std::vector<Access>& accesses) {
  if (tag == "precompute") return AccessClass::Precompute;
  if (tag == "stencil") return AccessClass::AffineStencil;
  if (tag == "inject" || tag == "interp") return AccessClass::OffGridSparse;
  if (tag == "inject-fused" || tag == "interp-fused") {
    return AccessClass::MaskGuardedFused;
  }
  for (const Access& a : accesses) {
    if (a.dx.star || a.dy.star) return AccessClass::OffGridSparse;
  }
  for (const Access& a : accesses) {
    if (a.dz.star) return AccessClass::MaskGuardedFused;
  }
  return AccessClass::AffineStencil;
}

void walk(const dsl::ir::Node& node, std::vector<std::string>& loops,
          const AccessSummary& kernel, std::vector<Statement>& out) {
  if (node.kind == dsl::ir::Node::Kind::Loop) {
    const bool named = !node.dim.empty() && node.dim != "<prologue>";
    if (named) loops.push_back(node.dim);
    for (const auto& child : node.body) walk(child, loops, kernel, out);
    if (named) loops.pop_back();
    return;
  }
  Statement s;
  s.id = static_cast<int>(out.size());
  s.text = node.text;
  s.tag = node.tag;
  s.loops = loops;
  s.under_time_loop = s.inside_loop("t");
  // Opaque stencil calls (no typed list attached) expand from the kernel's
  // declared summary; every other statement carries its accesses
  // structurally. DSL-lowered stencil statements attach their own exact
  // footprint and bypass the summary.
  s.accesses = node.tag == "stencil" && node.accesses.empty()
                   ? stencil_accesses(kernel)
                   : typed_accesses(node);
  s.cls = classify_statement(node.tag, s.accesses);
  out.push_back(std::move(s));
}

}  // namespace

std::vector<Statement> extract_accesses(const dsl::ir::Node& root,
                                        const AccessSummary& kernel) {
  std::vector<Statement> out;
  std::vector<std::string> loops;
  walk(root, loops, kernel, out);
  return out;
}

std::string print_accesses(const std::vector<Statement>& stmts) {
  std::ostringstream os;
  for (const Statement& s : stmts) {
    os << 'S' << s.id << ' ' << s.tag << ' ' << to_string(s.cls) << " (";
    for (std::size_t i = 0; i < s.loops.size(); ++i) {
      if (i > 0) os << ' ';
      os << s.loops[i];
    }
    os << ')';
    for (const Access& a : s.accesses) os << " " << a.str() << ';';
    os << '\n';
  }
  return os.str();
}

}  // namespace tempest::analysis
