#include "tempest/dsl/lower.hpp"

#include <algorithm>
#include <map>
#include <utility>

#include "tempest/config.hpp"
#include "tempest/stencil/coefficients.hpp"
#include "tempest/util/error.hpp"

namespace tempest::dsl {

namespace {

using ir::bin;
using ir::cnst;
using ir::ExprPtr;
using ir::load;
using ir::pref;

/// One additive term of the residual equation: sign * (left-associated
/// product of factors). `is_fwd` terms multiply the unknown forward value,
/// so their factor product is the unknown's coefficient; `spatial` marks
/// terms containing the discretised Laplacian flux, which the emission
/// orders first in the numerator (the hand-written kernels compute `lap`
/// before the time-history terms, and float addition is not associative).
struct Term {
  int sign = 1;
  std::vector<ExprPtr> factors;
  bool is_fwd = false;
  bool spatial = false;
};

struct Ctx {
  std::string field;
  int space_order = 4;
  double spacing = 10.0;
  double dt = 1.0;
  std::vector<std::string> params;
};

/// The isotropic Laplacian flux: acc = 3*w0*u + sum_k wk*(z∓k + y∓k + x∓k),
/// scaled by 1/h^2. Operand order and grouping reproduce
/// physics::update_block exactly, and the weights are the ones it folds
/// (every real_t is exact in double, so evaluation casts round-trip).
ExprPtr laplace_tree(const Ctx& ctx) {
  const std::vector<real_t> w = stencil::folded_central(2, ctx.space_order);
  const int r = stencil::radius_for_order(ctx.space_order);
  const auto weight = [&w](int k) {
    return cnst(static_cast<double>(w[static_cast<std::size_t>(k)]));
  };
  ExprPtr acc = bin('*', bin('*', cnst(3.0), weight(0)),
                    load(ctx.field, 0, 0, 0, 0));
  for (int k = 1; k <= r; ++k) {
    ExprPtr six =
        bin('+', load(ctx.field, 0, 0, 0, -k), load(ctx.field, 0, 0, 0, k));
    six = bin('+', six, load(ctx.field, 0, 0, -k, 0));
    six = bin('+', six, load(ctx.field, 0, 0, k, 0));
    six = bin('+', six, load(ctx.field, 0, -k, 0, 0));
    six = bin('+', six, load(ctx.field, 0, k, 0, 0));
    acc = bin('+', acc, bin('*', weight(k), six));
  }
  return bin('*', acc, cnst(1.0 / (ctx.spacing * ctx.spacing)));
}

bool has_fwd(const std::vector<Term>& ts) {
  return std::any_of(ts.begin(), ts.end(),
                     [](const Term& t) { return t.is_fwd; });
}

ExprPtr product(const Term& t) {
  if (t.factors.empty()) return cnst(1.0);
  ExprPtr p = t.factors.front();
  for (std::size_t i = 1; i < t.factors.size(); ++i) {
    p = bin('*', p, t.factors[i]);
  }
  return p;
}

/// Signed left-associated sum of terms.
ExprPtr chain(const std::vector<Term>& ts) {
  TEMPEST_REQUIRE(!ts.empty());
  ExprPtr e = ts.front().sign > 0
                  ? product(ts.front())
                  : bin('-', cnst(0.0), product(ts.front()));
  for (std::size_t i = 1; i < ts.size(); ++i) {
    e = bin(ts[i].sign > 0 ? '+' : '-', e, product(ts[i]));
  }
  return e;
}

/// Collapse a fwd-free side of a product into a (sign, factors, spatial)
/// prefix/suffix: a single term passes its factor list through (so
/// `m * dt2(u)` lowers to the hand-written `(m*idt2)*(...)` grouping), a
/// multi-term side folds into one parenthesised factor.
struct Folded {
  int sign = 1;
  std::vector<ExprPtr> factors;
  bool spatial = false;
};

Folded fold_side(std::vector<Term> ts) {
  if (ts.size() == 1) {
    return {ts.front().sign, std::move(ts.front().factors),
            ts.front().spatial};
  }
  const bool spatial =
      std::any_of(ts.begin(), ts.end(), [](const Term& t) { return t.spatial; });
  return {1, {chain(ts)}, spatial};
}

std::vector<Term> linearize(const ExprNode& n, Ctx& ctx);

std::vector<Term> lower_deriv(const ExprNode& n, Ctx& ctx) {
  const ExprNode& arg = n.children[0].node();
  TEMPEST_REQUIRE_MSG(arg.kind == ExprNode::Kind::Field &&
                          arg.name == ctx.field && arg.time_offset == 0,
                      "lower_kernel: derivatives must apply to the target "
                      "field at time t");
  switch (n.deriv) {
    case DerivKind::Dt2: {
      // (u[t+1] - 2 u[t] + u[t-1]) / dt^2, split into the unknown's
      // coefficient and the history part: idt2*fwd - idt2*(2u - up).
      const double idt2 = 1.0 / (ctx.dt * ctx.dt);
      Term a;
      a.is_fwd = true;
      a.factors = {cnst(idt2)};
      Term b;
      b.sign = -1;
      b.factors = {cnst(idt2),
                   bin('-', bin('*', cnst(2.0), load(ctx.field, 0, 0, 0, 0)),
                       load(ctx.field, -1, 0, 0, 0))};
      return {std::move(a), std::move(b)};
    }
    case DerivKind::Dt: {
      // (u[t+1] - u[t-1]) / (2 dt): i2dt*fwd - i2dt*up.
      const double i2dt = 1.0 / (2.0 * ctx.dt);
      Term a;
      a.is_fwd = true;
      a.factors = {cnst(i2dt)};
      Term b;
      b.sign = -1;
      b.factors = {cnst(i2dt), load(ctx.field, -1, 0, 0, 0)};
      return {std::move(a), std::move(b)};
    }
    case DerivKind::Laplace: {
      Term t;
      t.spatial = true;
      t.factors = {laplace_tree(ctx)};
      return {std::move(t)};
    }
    default:
      throw util::PreconditionError(
          std::string("lower_kernel: unsupported derivative in the typed "
                      "lowering: ") +
          to_string(n.deriv));
  }
}

std::vector<Term> linearize(const ExprNode& n, Ctx& ctx) {
  switch (n.kind) {
    case ExprNode::Kind::Constant: {
      Term t;
      t.factors = {cnst(n.value)};
      return {std::move(t)};
    }
    case ExprNode::Kind::Param: {
      if (std::find(ctx.params.begin(), ctx.params.end(), n.name) ==
          ctx.params.end()) {
        ctx.params.push_back(n.name);
      }
      Term t;
      t.factors = {pref(n.name)};
      return {std::move(t)};
    }
    case ExprNode::Kind::Field: {
      TEMPEST_REQUIRE_MSG(n.name == ctx.field,
                          "lower_kernel: coupled multi-field equations are "
                          "not supported by the typed lowering (field '" +
                              n.name + "')");
      Term t;
      if (n.time_offset == 1) {
        t.is_fwd = true;
      } else {
        t.factors = {load(ctx.field, n.time_offset, 0, 0, 0)};
      }
      return {std::move(t)};
    }
    case ExprNode::Kind::Deriv:
      return lower_deriv(n, ctx);
    case ExprNode::Kind::Binary: {
      auto lhs = linearize(n.children[0].node(), ctx);
      auto rhs = linearize(n.children[1].node(), ctx);
      switch (n.op) {
        case BinOp::Add: {
          lhs.insert(lhs.end(), std::make_move_iterator(rhs.begin()),
                     std::make_move_iterator(rhs.end()));
          return lhs;
        }
        case BinOp::Sub: {
          for (Term& t : rhs) t.sign = -t.sign;
          lhs.insert(lhs.end(), std::make_move_iterator(rhs.begin()),
                     std::make_move_iterator(rhs.end()));
          return lhs;
        }
        case BinOp::Mul: {
          const bool lf = has_fwd(lhs);
          const bool rf = has_fwd(rhs);
          TEMPEST_REQUIRE_MSG(!(lf && rf),
                              "lower_kernel: equation is nonlinear in the "
                              "target field");
          if (!lf) {
            // Coefficient on the left: prefix its factors (m * dt2(u)
            // becomes (m*idt2)*..., matching the hand-written grouping).
            Folded f = fold_side(std::move(lhs));
            for (Term& t : rhs) {
              t.sign *= f.sign;
              t.factors.insert(t.factors.begin(), f.factors.begin(),
                               f.factors.end());
              t.spatial = t.spatial || f.spatial;
            }
            return rhs;
          }
          Folded f = fold_side(std::move(rhs));
          for (Term& t : lhs) {
            t.sign *= f.sign;
            t.factors.insert(t.factors.end(), f.factors.begin(),
                             f.factors.end());
            t.spatial = t.spatial || f.spatial;
          }
          return lhs;
        }
        case BinOp::Div: {
          TEMPEST_REQUIRE_MSG(
              !has_fwd(lhs) && !has_fwd(rhs),
              "lower_kernel: division involving the unknown forward value "
              "is not supported (solve for the target first)");
          Term t;
          t.spatial = std::any_of(lhs.begin(), lhs.end(),
                                  [](const Term& a) { return a.spatial; });
          t.factors = {bin('/', chain(lhs), chain(rhs))};
          return {std::move(t)};
        }
      }
      break;
    }
  }
  throw util::PreconditionError("lower_kernel: unsupported expression node");
}

/// Per-time-slice hull of the update tree's loads of the target field.
struct AxisHull {
  int lo[3] = {0, 0, 0};
  int hi[3] = {0, 0, 0};

  void expand(int dx, int dy, int dz) {
    const int off[3] = {dx, dy, dz};
    for (int a = 0; a < 3; ++a) {
      lo[a] = std::min(lo[a], off[a]);
      hi[a] = std::max(hi[a], off[a]);
    }
  }

  [[nodiscard]] int radius() const {
    int r = 0;
    for (int a = 0; a < 3; ++a) {
      r = std::max({r, std::abs(lo[a]), std::abs(hi[a])});
    }
    return r;
  }
};

void collect_loads(const ir::Expr& e, const std::string& field,
                   std::map<int, AxisHull>& hulls) {
  if (e.kind == ir::Expr::Kind::Load && e.name == field) {
    hulls[e.dt].expand(e.dx, e.dy, e.dz);
  }
  if (e.a) collect_loads(*e.a, field, hulls);
  if (e.b) collect_loads(*e.b, field, hulls);
}

/// Read slices ordered the way the kernel summaries declare them: widest
/// hull first, ties broken by the later time slice ({0, -1} for the second
/// -order wave equations).
std::vector<int> ordered_reads(const std::map<int, AxisHull>& hulls) {
  std::vector<int> dts;
  dts.reserve(hulls.size());
  for (const auto& [dt, hull] : hulls) dts.push_back(dt);
  std::stable_sort(dts.begin(), dts.end(), [&](int a, int b) {
    const int ra = hulls.at(a).radius();
    const int rb = hulls.at(b).radius();
    if (ra != rb) return ra > rb;
    return a > b;
  });
  return dts;
}

}  // namespace

int LoweredKernel::radius() const {
  int r = 0;
  for (const ir::Access& a : accesses) {
    for (const ir::Subscript& s : {a.x, a.y, a.z}) {
      if (!s.star) r = std::max({r, std::abs(s.lo), std::abs(s.hi)});
    }
  }
  return r;
}

analysis::AccessSummary LoweredKernel::summary() const {
  analysis::AccessSummary s;
  s.kernel = name;
  s.field = field;
  s.radius = radius();
  s.substeps = 1;
  s.time_reads.clear();
  for (const ir::Access& a : accesses) {
    if (!a.is_write) s.time_reads.push_back(a.time);
  }
  s.write_radius = 0;
  return s;
}

std::string LoweredKernel::stencil_text() const {
  return "A_" + name + "(t, x, y, z)";
}

ir::Node LoweredKernel::stencil_stmt() const {
  return ir::stmt(stencil_text(), "stencil", accesses, update);
}

LoweredKernel lower_kernel(const Eq& eq, int space_order, double spacing,
                           double dt, std::string name) {
  const ExprNode& lhs = eq.lhs.node();
  TEMPEST_REQUIRE_MSG(lhs.kind == ExprNode::Kind::Field &&
                          lhs.time_offset == 1,
                      "lower_kernel: lhs must be a field's forward reference "
                      "(use dsl::solve)");
  TEMPEST_REQUIRE(space_order >= 2 && space_order % 2 == 0);
  TEMPEST_REQUIRE(spacing > 0.0 && dt > 0.0);

  Ctx ctx;
  ctx.field = lhs.name;
  ctx.space_order = space_order;
  ctx.spacing = spacing;
  ctx.dt = dt;

  std::vector<Term> terms = linearize(eq.rhs.node(), ctx);
  std::vector<Term> coeff;
  std::vector<Term> rest;
  for (Term& t : terms) {
    (t.is_fwd ? coeff : rest).push_back(std::move(t));
  }
  TEMPEST_REQUIRE_MSG(!coeff.empty(),
                      "lower_kernel: equation has no time derivative of the "
                      "target field (nothing to step)");
  TEMPEST_REQUIRE_MSG(!rest.empty(),
                      "lower_kernel: equation determines the target "
                      "identically zero");

  // eq = A*fwd + rest = 0  =>  fwd = (-rest) / A. The numerator orders the
  // spatial flux first (hand-written kernels compute `lap` before the
  // history terms), then the remaining terms in authoring order.
  for (Term& t : rest) t.sign = -t.sign;
  std::stable_partition(rest.begin(), rest.end(),
                        [](const Term& t) { return t.spatial; });

  LoweredKernel k;
  k.name = std::move(name);
  k.field = ctx.field;
  k.space_order = space_order;
  k.spacing = spacing;
  k.dt = dt;
  k.update = bin('/', chain(rest), chain(coeff));
  k.params = std::move(ctx.params);

  std::map<int, AxisHull> hulls;
  collect_loads(*k.update, k.field, hulls);
  ir::Access w;
  w.field = k.field;
  w.is_write = true;
  w.time = 1;
  k.accesses.push_back(std::move(w));
  for (int dt_read : ordered_reads(hulls)) {
    const AxisHull& h = hulls.at(dt_read);
    ir::Access r;
    r.field = k.field;
    r.time = dt_read;
    r.x = ir::Subscript::range(h.lo[0], h.hi[0]);
    r.y = ir::Subscript::range(h.lo[1], h.hi[1]);
    r.z = ir::Subscript::range(h.lo[2], h.hi[2]);
    k.accesses.push_back(std::move(r));
  }
  return k;
}

}  // namespace tempest::dsl
