#include "opt/cuts.hpp"

#include <algorithm>
#include <cmath>
#include <limits>
#include <utility>

#include "opt/basis_lu.hpp"
#include "opt/sparse.hpp"

namespace mlsi::opt {
namespace {

constexpr double kInf = std::numeric_limits<double>::infinity();

/// Maximum cuts returned per generation round.
constexpr int kMaxCuts = 32;
/// Basic values closer than this to an integer generate no cut (the
/// resulting GMI row would be all-noise).
constexpr double kMinFractionality = 0.005;
/// Minimum normalized violation (cut distance to the fractional vertex,
/// scaled by the coefficient 2-norm) for a cut to enter the pool.
constexpr double kMinViolation = 1e-4;
/// Pairwise cosine above which two cuts are considered duplicates; the
/// more violated one wins.
constexpr double kMaxParallelism = 0.95;
/// Discard cuts whose |coef| max/min ratio exceeds this (ill-scaled rows
/// hurt the LU more than the bound improvement helps).
constexpr double kMaxDynamism = 1e7;
/// Coefficients below this (relative to the largest) are dropped with a
/// validity-preserving rhs compensation.
constexpr double kDropTol = 1e-11;

double frac(double v) { return v - std::floor(v); }

bool is_integer_valued(double v) { return std::fabs(v - std::nearbyint(v)) <= 1e-9; }

/// A cut under construction: dense structural coefficients + >= rhs.
struct RawCut {
  std::vector<double> coef;  ///< size num_vars
  double rhs = 0.0;
  double violation = 0.0;  ///< normalized distance to the fractional vertex
  double norm = 0.0;       ///< 2-norm of coef
};

}  // namespace

std::vector<LpRow> generate_gomory_cuts(const LpProblem& lp,
                                        const LpResult& root,
                                        const std::vector<char>& is_integral,
                                        CutStats* stats) {
  CutStats local;
  std::vector<LpRow> out;
  const int n = lp.num_vars;
  const int m = static_cast<int>(lp.rows.size());
  const int cols = n + m;
  if (root.status != LpStatus::kOptimal || m == 0 ||
      static_cast<int>(root.basis.basic.size()) != m ||
      static_cast<int>(root.basis.status.size()) != cols) {
    if (stats) *stats = local;
    return out;
  }

  const CscMatrix mat = build_working_matrix(lp);
  const WorkingColumns wc = build_working_columns(lp);

  // Refactorize the reported basis. A repair means the snapshot does not
  // describe the vertex the LP claims — deriving cuts from a repaired basis
  // would be guessing, so bail out instead.
  std::vector<int> basis = root.basis.basic;
  std::vector<char> in_basis(static_cast<std::size_t>(cols), 0);
  for (const int b : basis) {
    if (b < 0 || b >= cols) {
      if (stats) *stats = local;
      return out;
    }
    in_basis[static_cast<std::size_t>(b)] = 1;
  }
  BasisLu lu(&mat);
  if (lu.factorize(basis, in_basis) != 0) {
    if (stats) *stats = local;
    return out;
  }

  // Resting value of every nonbasic column (the bound its status names) and
  // the exact basic values x_B = B^{-1}(-N x_N) through the factorization.
  std::vector<char> basic_flag(static_cast<std::size_t>(cols), 0);
  for (const int b : basis) basic_flag[static_cast<std::size_t>(b)] = 1;
  std::vector<double> nb_val(static_cast<std::size_t>(cols), 0.0);
  std::vector<double> xb(static_cast<std::size_t>(m), 0.0);
  for (int j = 0; j < cols; ++j) {
    if (basic_flag[static_cast<std::size_t>(j)]) continue;
    const double v =
        root.basis.status[static_cast<std::size_t>(j)] == ColStatus::kAtUpper
            ? wc.up[static_cast<std::size_t>(j)]
            : wc.lo[static_cast<std::size_t>(j)];
    nb_val[static_cast<std::size_t>(j)] = v;
    if (v != 0.0) mat.add_column(j, -v, xb);
  }
  lu.ftran(xb);

  // Structural values at the fractional vertex (for violation scoring).
  std::vector<double> xval(static_cast<std::size_t>(n), 0.0);
  for (int j = 0; j < n; ++j) {
    if (!basic_flag[static_cast<std::size_t>(j)]) {
      xval[static_cast<std::size_t>(j)] = nb_val[static_cast<std::size_t>(j)];
    }
  }
  for (int r = 0; r < m; ++r) {
    const int b = basis[static_cast<std::size_t>(r)];
    if (b < n) xval[static_cast<std::size_t>(b)] = xb[static_cast<std::size_t>(r)];
  }

  // Candidate rows: basic *structural* integer variables, most fractional
  // first, at least kMinFractionality away from either integer.
  std::vector<std::pair<double, int>> candidates;  // (-frac distance, row)
  for (int r = 0; r < m; ++r) {
    const int b = basis[static_cast<std::size_t>(r)];
    if (b >= n || !is_integral[static_cast<std::size_t>(b)]) continue;
    const double f0 = frac(xb[static_cast<std::size_t>(r)]);
    const double dist = std::min(f0, 1.0 - f0);
    if (dist < kMinFractionality) continue;
    candidates.emplace_back(-dist, r);
  }
  std::sort(candidates.begin(), candidates.end());
  constexpr int kRowBudget = 4 * kMaxCuts;
  if (static_cast<int>(candidates.size()) > kRowBudget) {
    candidates.resize(static_cast<std::size_t>(kRowBudget));
  }

  std::vector<double> rho(static_cast<std::size_t>(m));
  std::vector<RawCut> pool;
  for (const auto& [neg_dist, r] : candidates) {
    (void)neg_dist;
    ++local.generated;
    // Tableau row r of the pre-shift system: x_b = -sum_j alpha_j x_j over
    // nonbasic j, with alpha_j = a_j · B^{-T} e_r.
    std::fill(rho.begin(), rho.end(), 0.0);
    rho[static_cast<std::size_t>(r)] = 1.0;
    lu.btran(rho);

    // Shift every nonbasic to its resting bound: x_b = bbar - sum ac_j t_j,
    // t_j >= 0, where ac_j = +alpha_j (at lower) or -alpha_j (at upper) and
    // bbar is exactly the basic value computed through the same LU.
    const double bbar = xb[static_cast<std::size_t>(r)];
    const double f0 = frac(bbar);

    // GMI in t-space: sum gamma_j t_j >= f0. Integer t (integral structural
    // column resting on an integer bound): gamma = f_j if f_j <= f0 else
    // f0(1-f_j)/(1-f0). Continuous t (everything else, slacks included):
    // gamma = ac_j if ac_j >= 0 else -ac_j f0/(1-f0).
    // Mapped straight back to x-space on the fly:
    //   at lower  t = x - lo : coef += gamma,  rhs += gamma * lo
    //   at upper  t = up - x : coef -= gamma,  rhs -= gamma * up
    // and slack columns are substituted out through s_i = a_i · x.
    RawCut cut;
    cut.coef.assign(static_cast<std::size_t>(n), 0.0);
    cut.rhs = f0;
    bool ok = true;
    for (int j = 0; j < cols && ok; ++j) {
      if (basic_flag[static_cast<std::size_t>(j)]) continue;
      const double lo = wc.lo[static_cast<std::size_t>(j)];
      const double up = wc.up[static_cast<std::size_t>(j)];
      if (up - lo < 1e-12) continue;  // fixed: t_j == 0, no contribution
      const double alpha = mat.dot_column(j, rho);
      if (alpha == 0.0) continue;
      const bool at_upper =
          root.basis.status[static_cast<std::size_t>(j)] == ColStatus::kAtUpper;
      const double ac = at_upper ? -alpha : alpha;
      const double bound = at_upper ? up : lo;
      const bool integer_t = j < n && is_integral[static_cast<std::size_t>(j)] &&
                             is_integer_valued(bound);
      double gamma;
      if (integer_t) {
        const double fj = frac(ac);
        gamma = fj <= f0 + 1e-12 ? fj : f0 * (1.0 - fj) / (1.0 - f0);
      } else {
        gamma = ac >= 0.0 ? ac : -ac * f0 / (1.0 - f0);
      }
      if (gamma == 0.0) continue;
      const double signed_gamma = at_upper ? -gamma : gamma;
      if (j < n) {
        cut.coef[static_cast<std::size_t>(j)] += signed_gamma;
        cut.rhs += signed_gamma * bound;
      } else {
        // Slack column: s_i = a_i · x, substitute through the row terms.
        cut.rhs += signed_gamma * bound;
        const LpRow& row = lp.rows[static_cast<std::size_t>(j - n)];
        for (const auto& [var, c] : row.terms) {
          if (var < 0 || var >= n) {
            ok = false;
            break;
          }
          cut.coef[static_cast<std::size_t>(var)] += signed_gamma * c;
        }
      }
      if (!std::isfinite(cut.rhs)) ok = false;
    }
    if (!ok) {
      ++local.dropped;
      continue;
    }

    // Safe rounding: drop tiny coefficients with an rhs compensation that
    // only weakens the >= cut (subtract the dropped term's maximum), then
    // check scaling.
    double max_abs = 0.0;
    for (const double c : cut.coef) max_abs = std::max(max_abs, std::fabs(c));
    if (max_abs <= 0.0 || !std::isfinite(max_abs)) {
      ++local.dropped;
      continue;
    }
    const double drop_below = max_abs * kDropTol;
    double min_abs = kInf;
    double norm2 = 0.0;
    bool valid = true;
    for (int j = 0; j < n && valid; ++j) {
      double& c = cut.coef[static_cast<std::size_t>(j)];
      if (c == 0.0) continue;
      if (std::fabs(c) < drop_below) {
        const double hi_term = std::max(c * lp.lb[static_cast<std::size_t>(j)],
                                        c * lp.ub[static_cast<std::size_t>(j)]);
        if (!std::isfinite(hi_term)) {
          valid = false;
          break;
        }
        cut.rhs -= hi_term;
        c = 0.0;
        continue;
      }
      min_abs = std::min(min_abs, std::fabs(c));
      norm2 += c * c;
    }
    if (!valid || norm2 <= 0.0 || max_abs / min_abs > kMaxDynamism) {
      ++local.dropped;
      continue;
    }
    // Relax the rhs by a relative epsilon: never let roundoff in the
    // derivation chop off the true integer optimum.
    cut.rhs -= 1e-9 * (1.0 + std::fabs(cut.rhs));
    cut.norm = std::sqrt(norm2);

    // Violation at the fractional vertex (structural values only; the
    // slacks were substituted out).
    double activity = 0.0;
    for (int j = 0; j < n; ++j) {
      activity +=
          cut.coef[static_cast<std::size_t>(j)] * xval[static_cast<std::size_t>(j)];
    }
    cut.violation = (cut.rhs - activity) / cut.norm;
    if (cut.violation < kMinViolation) {
      ++local.dropped;
      continue;
    }
    pool.push_back(std::move(cut));
  }

  // Pool filtering: most violated first; drop near-parallel repeats.
  std::sort(pool.begin(), pool.end(),
            [](const RawCut& a, const RawCut& b) {
              return a.violation > b.violation;
            });
  std::vector<const RawCut*> kept;
  for (const RawCut& cut : pool) {
    if (static_cast<int>(kept.size()) >= kMaxCuts) {
      ++local.dropped;
      continue;
    }
    bool parallel = false;
    for (const RawCut* other : kept) {
      double dot = 0.0;
      for (int j = 0; j < n; ++j) {
        dot += cut.coef[static_cast<std::size_t>(j)] *
               other->coef[static_cast<std::size_t>(j)];
      }
      if (std::fabs(dot) / (cut.norm * other->norm) > kMaxParallelism) {
        parallel = true;
        break;
      }
    }
    if (parallel) {
      ++local.dropped;
      continue;
    }
    kept.push_back(&cut);
  }
  out.reserve(kept.size());
  for (const RawCut* cut : kept) {
    LpRow row;
    row.lo = cut->rhs;
    row.hi = kInf;
    for (int j = 0; j < n; ++j) {
      const double c = cut->coef[static_cast<std::size_t>(j)];
      if (c != 0.0) row.terms.emplace_back(j, c);
    }
    out.push_back(std::move(row));
  }
  local.kept = static_cast<long>(out.size());
  if (stats) *stats = local;
  return out;
}

}  // namespace mlsi::opt
