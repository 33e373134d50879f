#include "opt/simplex_dense.hpp"

#include <algorithm>
#include <cmath>
#include <limits>

#include "opt/sparse.hpp"
#include "support/log.hpp"
#include "support/status.hpp"

/// The original dense tableau method: T = B^{-1}[A | -I] is materialized in
/// full and updated by Gauss-Jordan pivots. O(m·(n+m)) per pivot and
/// O(m²·(n+m)) per refactorization — superseded by the sparse revised
/// method in simplex.cpp, and kept verbatim (modulo the shared column-prep
/// helpers and the LpBasis snapshot format) as the cross-checking oracle
/// for it. Phase semantics, the Harris-style ratio test and the Bland
/// fallback are the reference behavior the revised solver must reproduce.

namespace mlsi::opt {
namespace {

/// Rates smaller than this cannot block a move: over any step bounded by the
/// variable spans they change a basic value by less than the feasibility
/// tolerance.
constexpr double kRateTol = 1e-9;
/// Pivots are refactorized away after this many eliminations.
constexpr int kRefactorInterval = 384;

/// Dense bounded-variable tableau simplex. One instance per solve.
class DenseSimplex {
 public:
  DenseSimplex(const LpProblem& lp, const LpParams& params)
      : lp_(lp), params_(params) {}

  LpResult run();

 private:
  // --- setup -------------------------------------------------------------
  void build();

  // --- shared pivoting machinery ------------------------------------------
  /// Recomputes every basic value from the nonbasic assignment.
  void refresh_basic_values();
  /// Rebuilds the tableau T = B^{-1}[A|-I] from scratch by Gauss-Jordan on
  /// the recorded basis — the tableau method's substitute for an LU
  /// refactorization. Resets accumulated floating-point drift. When drifted
  /// pivoting has left the recorded basis (near-)singular, dependent
  /// columns are swapped out for slacks (basis repair) and
  /// basis_repaired_ is set: primal feasibility may be lost, so phase 2
  /// must hand control back to phase 1.
  void rebuild_tableau();
  /// Eliminates column `j` using row `r` and updates the reduced-cost row.
  void pivot(int r, int j);

  /// Result of the ratio test for moving column j in direction dir.
  struct Block {
    int leave_row = -1;   ///< -1: bound flip
    double t = 0.0;       ///< step length
    double leave_to = 0.0;
  };
  /// Two-pass (Harris-style) ratio test: finds the minimum blocking ratio,
  /// then among near-minimal rows picks the largest |pivot| (numerical
  /// stability) or, in Bland mode, the smallest basic index (anti-cycling).
  /// phase1 enables the extended bounds of currently infeasible basics.
  [[nodiscard]] Block ratio_test(int j, double dir, bool phase1,
                                 bool bland) const;
  /// Applies a ratio-test outcome: moves values, then pivots or flips.
  void apply_step(int j, double dir, const Block& block);

  [[nodiscard]] double col_span(int j) const { return up_[j] - lo_[j]; }
  [[nodiscard]] bool is_basic(int j) const { return basic_row_[j] >= 0; }

  // --- phase 1 -------------------------------------------------------------
  [[nodiscard]] double infeasibility() const;
  bool phase1_step(bool bland);
  bool run_phase1();

  // --- phase 2 -------------------------------------------------------------
  void init_reduced_costs();
  bool phase2_step(bool bland);
  /// Returns true when the basis had to be repaired mid-phase and phase 1
  /// must re-establish feasibility; status_ is set otherwise.
  bool run_phase2();

  [[nodiscard]] double objective_value() const;

  const LpProblem& lp_;
  const LpParams& params_;

  int m_ = 0;     ///< rows
  int n_ = 0;     ///< structural columns
  int cols_ = 0;  ///< n_ + m_

  // Tableau T = B^{-1} [A | -I], row-major m_ x cols_.
  std::vector<double> tab_;
  double* row(int r) { return tab_.data() + static_cast<std::size_t>(r) * cols_; }
  [[nodiscard]] const double* row(int r) const {
    return tab_.data() + static_cast<std::size_t>(r) * cols_;
  }

  std::vector<double> lo_, up_;  ///< bounds for all cols (slacks clipped)
  std::vector<double> cost_;     ///< phase-2 costs (slack = 0)
  std::vector<double> val_;      ///< current value of every column
  std::vector<int> basis_;       ///< basis_[r] = column basic in row r
  std::vector<int> basic_row_;   ///< col -> row, or -1 when nonbasic
  std::vector<double> dcost_;    ///< pivoted reduced-cost row (phase 2)

  long iters_ = 0;
  long factorizations_ = 0;
  int pivots_since_refactor_ = 0;
  bool basis_repaired_ = false;
  bool used_warm_start_ = false;
  LpStatus status_ = LpStatus::kIterLimit;
};

void DenseSimplex::build() {
  m_ = static_cast<int>(lp_.rows.size());
  n_ = lp_.num_vars;
  cols_ = n_ + m_;
  tab_.assign(static_cast<std::size_t>(m_) * cols_, 0.0);
  WorkingColumns wc = build_working_columns(lp_);
  lo_ = std::move(wc.lo);
  up_ = std::move(wc.up);
  cost_ = std::move(wc.cost);
  val_.assign(static_cast<std::size_t>(cols_), 0.0);
  basis_.resize(static_cast<std::size_t>(m_));
  basic_row_.assign(static_cast<std::size_t>(cols_), -1);

  for (int j = 0; j < n_; ++j) {
    // Nonbasic start: the bound with smaller magnitude (keeps values small).
    val_[j] = std::fabs(lo_[j]) <= std::fabs(up_[j]) ? lo_[j] : up_[j];
  }

  // Initial basis: slacks. With B = -I the tableau is [-A | I].
  for (int r = 0; r < m_; ++r) {
    double* tr = row(r);
    for (const auto& [c, a] : lp_.rows[static_cast<std::size_t>(r)].terms) {
      tr[c] -= a;  // -A
    }
    const int sj = n_ + r;
    tr[sj] = 1.0;
    basis_[static_cast<std::size_t>(r)] = sj;
    basic_row_[sj] = r;
  }

  // Optional warm start: adopt the caller's basis when it is well-formed.
  if (params_.warm_basis != nullptr &&
      static_cast<int>(params_.warm_basis->basic.size()) == m_) {
    std::vector<int> candidate = params_.warm_basis->basic;
    std::vector<char> seen(static_cast<std::size_t>(cols_), 0);
    bool valid = true;
    for (const int c : candidate) {
      if (c < 0 || c >= cols_ || seen[static_cast<std::size_t>(c)] != 0) {
        valid = false;
        break;
      }
      seen[static_cast<std::size_t>(c)] = 1;
    }
    const auto& status = params_.warm_basis->status;
    const bool have_status = static_cast<int>(status.size()) == cols_;
    if (valid) {
      std::fill(basic_row_.begin(), basic_row_.end(), -1);
      basis_ = std::move(candidate);
      for (int r = 0; r < m_; ++r) basic_row_[basis_[static_cast<std::size_t>(r)]] = r;
      // Nonbasic columns sit at the snapshot's bound (clamped into the
      // possibly-changed box), or at their nearer bound without a snapshot.
      for (int j = 0; j < cols_; ++j) {
        if (basic_row_[j] >= 0) continue;
        if (have_status) {
          val_[j] = status[static_cast<std::size_t>(j)] == ColStatus::kAtUpper
                        ? up_[j]
                        : lo_[j];
        } else {
          val_[j] = std::fabs(val_[j] - lo_[j]) <= std::fabs(val_[j] - up_[j])
                        ? lo_[j]
                        : up_[j];
        }
      }
      used_warm_start_ = true;
      rebuild_tableau();
      return;
    }
  }
  refresh_basic_values();
}

void DenseSimplex::refresh_basic_values() {
  // M x = 0 with M = [A | -I]; T = B^{-1} M, so x_B = -sum_nonbasic T_j x_j.
  for (int r = 0; r < m_; ++r) {
    const double* tr = row(r);
    double acc = 0.0;
    for (int j = 0; j < cols_; ++j) {
      if (basic_row_[j] >= 0) continue;
      acc += tr[j] * val_[j];
    }
    val_[basis_[static_cast<std::size_t>(r)]] = -acc;
  }
}

void DenseSimplex::rebuild_tableau() {
  pivots_since_refactor_ = 0;
  ++factorizations_;
  // Raw M = [A | -I].
  std::fill(tab_.begin(), tab_.end(), 0.0);
  for (int r = 0; r < m_; ++r) {
    double* tr = row(r);
    for (const auto& [c, a] : lp_.rows[static_cast<std::size_t>(r)].terms) {
      tr[c] += a;
    }
    tr[n_ + r] = -1.0;
  }
  // Gauss-Jordan with partial pivoting, arranging column basis_[k]'s unit
  // entry into row k (rows of T correspond to basis positions).
  for (int k = 0; k < m_; ++k) {
    int c = basis_[static_cast<std::size_t>(k)];
    int best = -1;
    double best_abs = 0.0;
    for (int r = k; r < m_; ++r) {
      const double v = std::fabs(row(r)[c]);
      if (v > best_abs) {
        best_abs = v;
        best = r;
      }
    }
    if (best < 0 || best_abs <= 1e-9) {
      // Basis repair: the recorded column is dependent on the previous
      // pivot columns (drifted pivoting let a numerically-zero element
      // enter the basis). Swap in the best-conditioned nonbasic slack.
      int repl = -1;
      int repl_row = -1;
      double repl_abs = 1e-9;
      for (int cand = n_; cand < cols_; ++cand) {
        if (basic_row_[cand] >= 0) continue;
        for (int r = k; r < m_; ++r) {
          const double v = std::fabs(row(r)[cand]);
          if (v > repl_abs) {
            repl_abs = v;
            repl = cand;
            repl_row = r;
          }
        }
      }
      MLSI_ASSERT(repl >= 0, "basis repair found no replacement column");
      basic_row_[c] = -1;
      val_[c] = std::fabs(val_[c] - lo_[c]) <= std::fabs(val_[c] - up_[c])
                    ? lo_[c]
                    : up_[c];
      basis_[static_cast<std::size_t>(k)] = repl;
      basic_row_[repl] = k;
      c = repl;
      best = repl_row;
      basis_repaired_ = true;
      log_debug("simplex: repaired singular basis at position ", k);
    }
    if (best != k) {
      double* a = row(k);
      double* b = row(best);
      std::swap_ranges(a, a + cols_, b);
    }
    double* pk = row(k);
    const double inv = 1.0 / pk[c];
    for (int cc = 0; cc < cols_; ++cc) pk[cc] *= inv;
    pk[c] = 1.0;
    for (int r = 0; r < m_; ++r) {
      if (r == k) continue;
      double* tr = row(r);
      const double f = tr[c];
      if (f == 0.0) continue;
      for (int cc = 0; cc < cols_; ++cc) tr[cc] -= f * pk[cc];
      tr[c] = 0.0;
    }
  }
  refresh_basic_values();
  if (!dcost_.empty()) init_reduced_costs();
}

void DenseSimplex::pivot(int r, int j) {
  double* pr = row(r);
  const double piv = pr[j];
  MLSI_ASSERT(std::fabs(piv) > 1e-12, "pivot element too small");
  const double inv = 1.0 / piv;
  for (int c = 0; c < cols_; ++c) pr[c] *= inv;
  pr[j] = 1.0;  // exact
  for (int i = 0; i < m_; ++i) {
    if (i == r) continue;
    double* ti = row(i);
    const double f = ti[j];
    if (f == 0.0) continue;
    for (int c = 0; c < cols_; ++c) ti[c] -= f * pr[c];
    ti[j] = 0.0;  // exact
  }
  if (!dcost_.empty()) {
    const double f = dcost_[static_cast<std::size_t>(j)];
    if (f != 0.0) {
      for (int c = 0; c < cols_; ++c) {
        dcost_[static_cast<std::size_t>(c)] -= f * pr[c];
      }
      dcost_[static_cast<std::size_t>(j)] = 0.0;
    }
  }
  const int leaving = basis_[static_cast<std::size_t>(r)];
  basic_row_[leaving] = -1;
  basis_[static_cast<std::size_t>(r)] = j;
  basic_row_[j] = r;
}

DenseSimplex::Block DenseSimplex::ratio_test(int j, double dir, bool phase1,
                                             bool bland) const {
  const double ftol = kLpFeasTol;
  const double t_bound = dir > 0 ? up_[j] - val_[j] : val_[j] - lo_[j];

  // Per-row blocking limit under the move; kInf when the row cannot block.
  constexpr double kInf = std::numeric_limits<double>::infinity();
  const auto row_limit = [&](int r, double* to_out, double* rate_out) {
    const double rate = -dir * row(r)[j];
    *rate_out = rate;
    if (std::fabs(rate) <= kRateTol) return kInf;
    const int b = basis_[static_cast<std::size_t>(r)];
    double limit = kInf;
    double to = 0.0;
    if (phase1 && val_[b] < lo_[b] - ftol) {
      // Infeasible below: blocks only when moving up, at its lower bound.
      if (rate > 0) {
        limit = (lo_[b] - val_[b]) / rate;
        to = lo_[b];
      }
    } else if (phase1 && val_[b] > up_[b] + ftol) {
      if (rate < 0) {
        limit = (up_[b] - val_[b]) / rate;
        to = up_[b];
      }
    } else if (rate > 0) {
      limit = (up_[b] - val_[b]) / rate;
      to = up_[b];
    } else {
      limit = (lo_[b] - val_[b]) / rate;
      to = lo_[b];
    }
    if (limit < 0.0) limit = 0.0;  // degeneracy / tolerance noise
    *to_out = to;
    return limit;
  };

  // Pass 1: minimum ratio over the rows.
  double t_rows = kInf;
  for (int r = 0; r < m_; ++r) {
    double to;
    double rate;
    const double limit = row_limit(r, &to, &rate);
    t_rows = std::min(t_rows, limit);
  }

  Block block;
  if (t_rows >= t_bound - 1e-9) {
    // The entering variable's own bound blocks first: bound flip.
    block.leave_row = -1;
    block.t = t_bound;
    return block;
  }

  // Pass 2: among rows within tolerance of the minimum ratio, prefer the
  // largest |pivot| (Bland mode: the smallest basic index).
  block.t = t_rows;
  double best_metric = -1.0;
  int best_basic = std::numeric_limits<int>::max();
  for (int r = 0; r < m_; ++r) {
    double to;
    double rate;
    const double limit = row_limit(r, &to, &rate);
    if (limit > t_rows + 1e-9) continue;
    const int b = basis_[static_cast<std::size_t>(r)];
    const bool better = bland ? b < best_basic : std::fabs(rate) > best_metric;
    if (better) {
      best_metric = std::fabs(rate);
      best_basic = b;
      block.leave_row = r;
      block.leave_to = to;
    }
  }
  MLSI_ASSERT(block.leave_row >= 0, "ratio test lost its blocking row");
  return block;
}

void DenseSimplex::apply_step(int j, double dir, const Block& block) {
  const double t = block.t;
  if (t != 0.0) {
    for (int r = 0; r < m_; ++r) {
      const double rate = -dir * row(r)[j];
      if (rate != 0.0) val_[basis_[static_cast<std::size_t>(r)]] += rate * t;
    }
    val_[j] += dir * t;
  }
  if (block.leave_row < 0) {
    // Bound flip: snap exactly onto the far bound.
    val_[j] = dir > 0 ? up_[j] : lo_[j];
    return;
  }
  // Snap the leaving variable exactly onto its blocking bound, then pivot.
  val_[basis_[static_cast<std::size_t>(block.leave_row)]] = block.leave_to;
  pivot(block.leave_row, j);
  if (++pivots_since_refactor_ >= kRefactorInterval) {
    rebuild_tableau();
  } else if (pivots_since_refactor_ % 64 == 0) {
    refresh_basic_values();
  }
}

double DenseSimplex::infeasibility() const {
  double sum = 0.0;
  for (int r = 0; r < m_; ++r) {
    const int b = basis_[static_cast<std::size_t>(r)];
    if (val_[b] < lo_[b]) {
      sum += lo_[b] - val_[b];
    } else if (val_[b] > up_[b]) {
      sum += val_[b] - up_[b];
    }
  }
  return sum;
}

bool DenseSimplex::phase1_step(bool bland) {
  const double ftol = kLpFeasTol;
  // Gradient of the total infeasibility along each nonbasic direction:
  // g_j = sum_{basic below lo} T[i][j] - sum_{basic above up} T[i][j];
  // moving j by dir changes the infeasibility at rate dir * g_j.
  std::vector<int> below;
  std::vector<int> above;
  for (int r = 0; r < m_; ++r) {
    const int b = basis_[static_cast<std::size_t>(r)];
    if (val_[b] < lo_[b] - ftol) {
      below.push_back(r);
    } else if (val_[b] > up_[b] + ftol) {
      above.push_back(r);
    }
  }
  if (below.empty() && above.empty()) return false;  // feasible

  int best_j = -1;
  double best_dir = 0.0;
  double best_score = -ftol;
  for (int j = 0; j < cols_; ++j) {
    if (is_basic(j) || col_span(j) < ftol) continue;
    double g = 0.0;
    for (const int r : below) g += row(r)[j];
    for (const int r : above) g -= row(r)[j];
    const bool at_lo = val_[j] <= lo_[j] + ftol;
    const bool at_up = val_[j] >= up_[j] - ftol;
    double dir;
    if (at_lo && !at_up) {
      dir = 1.0;
    } else if (at_up && !at_lo) {
      dir = -1.0;
    } else {
      dir = g < 0 ? 1.0 : -1.0;
    }
    const double score = dir * g;  // d(infeasibility)/dt, want < 0
    if (score < best_score) {
      best_score = score;
      best_j = j;
      best_dir = dir;
      if (bland) break;  // smallest attractive index
    }
  }
  if (best_j < 0) return false;  // stuck: no attractive column

  apply_step(best_j, best_dir,
             ratio_test(best_j, best_dir, /*phase1=*/true, bland));
  return true;
}

bool DenseSimplex::run_phase1() {
  const double inf_tol = kLpFeasTol * static_cast<double>(m_ + 1);
  double last_inf = infeasibility();
  if (last_inf <= inf_tol) return true;
  int stall = 0;
  bool bland = false;
  while (true) {
    if (++iters_ > kLpMaxIters || params_.deadline.expired() ||
        params_.stop.stop_requested()) {
      status_ = LpStatus::kIterLimit;
      return false;
    }
    if (!phase1_step(bland)) {
      rebuild_tableau();
      if (infeasibility() <= inf_tol) return true;
      if (!bland) {
        bland = true;  // one exact retry before declaring infeasible
        continue;
      }
      status_ = LpStatus::kInfeasible;
      return false;
    }
    const double inf = infeasibility();
    if (inf <= inf_tol) {
      rebuild_tableau();
      if (infeasibility() <= inf_tol) return true;
      last_inf = infeasibility();
      continue;
    }
    if (inf < last_inf - kLpFeasTol) {
      last_inf = inf;
      stall = 0;
      bland = false;
    } else if (++stall >= params_.stall_limit) {
      bland = true;  // anti-cycling
      stall = 0;
      rebuild_tableau();
    }
  }
}

void DenseSimplex::init_reduced_costs() {
  dcost_.assign(static_cast<std::size_t>(cols_), 0.0);
  for (int j = 0; j < cols_; ++j) dcost_[static_cast<std::size_t>(j)] = cost_[j];
  for (int r = 0; r < m_; ++r) {
    const double cb = cost_[basis_[static_cast<std::size_t>(r)]];
    if (cb == 0.0) continue;
    const double* tr = row(r);
    for (int c = 0; c < cols_; ++c) {
      dcost_[static_cast<std::size_t>(c)] -= cb * tr[c];
    }
  }
  for (int r = 0; r < m_; ++r) {
    dcost_[static_cast<std::size_t>(basis_[static_cast<std::size_t>(r)])] = 0.0;
  }
}

bool DenseSimplex::phase2_step(bool bland) {
  const double otol = kLpOptTol;
  const double ftol = kLpFeasTol;
  int best_j = -1;
  double best_dir = 0.0;
  double best_score = -otol;
  for (int j = 0; j < cols_; ++j) {
    if (is_basic(j) || col_span(j) < ftol) continue;
    const double d = dcost_[static_cast<std::size_t>(j)];
    const bool at_lo = val_[j] <= lo_[j] + ftol;
    const bool at_up = val_[j] >= up_[j] - ftol;
    double dir;
    if (at_lo && !at_up) {
      dir = 1.0;
    } else if (at_up && !at_lo) {
      dir = -1.0;
    } else {
      dir = d < 0 ? 1.0 : -1.0;
    }
    const double score = dir * d;  // d(objective)/dt
    if (score < best_score) {
      best_score = score;
      best_j = j;
      best_dir = dir;
      if (bland) break;
    }
  }
  if (best_j < 0) return false;  // optimal

  apply_step(best_j, best_dir,
             ratio_test(best_j, best_dir, /*phase1=*/false, bland));
  return true;
}

double DenseSimplex::objective_value() const {
  double acc = lp_.cost_constant;
  for (int j = 0; j < n_; ++j) acc += cost_[j] * val_[j];
  return acc;
}

bool DenseSimplex::run_phase2() {
  init_reduced_costs();
  double last_obj = objective_value();
  int stall = 0;
  bool bland = false;
  while (true) {
    if (basis_repaired_) {
      // A refactorization repaired the basis; primal feasibility is no
      // longer guaranteed — hand control back to phase 1.
      basis_repaired_ = false;
      return true;
    }
    if (++iters_ > kLpMaxIters || params_.deadline.expired() ||
        params_.stop.stop_requested()) {
      status_ = LpStatus::kIterLimit;
      return false;
    }
    if (!phase2_step(bland)) {
      // Confirm optimality against a freshly refactorized tableau: drifted
      // reduced costs must not declare victory (or keep cycling) silently.
      rebuild_tableau();
      if (basis_repaired_) continue;  // handled at the loop head
      if (!phase2_step(bland)) {
        status_ = LpStatus::kOptimal;
        return false;
      }
      continue;
    }
    const double obj = objective_value();
    if (obj < last_obj - kLpOptTol) {
      last_obj = obj;
      stall = 0;
      bland = false;
    } else if (++stall >= params_.stall_limit) {
      bland = true;
      stall = 0;
      rebuild_tableau();
    }
  }
}

LpResult DenseSimplex::run() {
  build();
  LpResult out;
  bool feasible = run_phase1();
  int restarts = 0;
  while (feasible) {
    basis_repaired_ = false;
    const bool restart = run_phase2();
    if (!restart) break;
    if (++restarts > 5) {
      status_ = LpStatus::kIterLimit;
      feasible = false;
      break;
    }
    feasible = run_phase1();
  }
  if (feasible) {
    if (status_ == LpStatus::kOptimal) {
      refresh_basic_values();
      // Clamp residual tolerance noise into the box before reporting.
      out.x.resize(static_cast<std::size_t>(n_));
      for (int j = 0; j < n_; ++j) {
        out.x[static_cast<std::size_t>(j)] = std::clamp(val_[j], lo_[j], up_[j]);
      }
      out.objective = objective_value();
    }
  }
  out.status = status_;
  out.basis.basic = basis_;
  out.basis.status.resize(static_cast<std::size_t>(cols_));
  for (int j = 0; j < cols_; ++j) {
    if (is_basic(j)) {
      out.basis.status[static_cast<std::size_t>(j)] = ColStatus::kBasic;
    } else {
      out.basis.status[static_cast<std::size_t>(j)] =
          std::fabs(val_[j] - up_[j]) < std::fabs(val_[j] - lo_[j])
              ? ColStatus::kAtUpper
              : ColStatus::kAtLower;
    }
  }
  out.iterations = iters_;
  out.factorizations = factorizations_;
  out.used_warm_start = used_warm_start_;
  return out;
}

}  // namespace

LpResult solve_lp_dense(const LpProblem& lp, const LpParams& params) {
  DenseSimplex solver(lp, params);
  return solver.run();
}

}  // namespace mlsi::opt
