#include "opt/simplex.hpp"

#include <algorithm>
#include <cmath>
#include <limits>

#include "obs/metrics.hpp"
#include "opt/basis_lu.hpp"
#include "opt/simplex_dense.hpp"
#include "opt/sparse.hpp"
#include "support/log.hpp"
#include "support/status.hpp"

namespace mlsi::opt {
namespace {

/// Rates smaller than this cannot block a move: over any step bounded by the
/// variable spans they change a basic value by less than the feasibility
/// tolerance.
constexpr double kRateTol = 1e-9;
/// Dual pivot entries below this are treated as zero (ineligible).
constexpr double kAlphaTol = 1e-9;
/// Pivots between full recomputations of the basic values (drift cap).
constexpr int kValueRefreshInterval = 64;
/// Devex weights beyond this trigger a reference-framework reset (the
/// approximation has drifted far from any plausible norm).
constexpr double kWeightResetLimit = 1e8;

/// Sparse revised bounded-variable simplex (see simplex.hpp for the method
/// overview). One instance per solve.
class RevisedSimplex {
 public:
  RevisedSimplex(const LpProblem& lp, const LpParams& params)
      : lp_(lp), params_(params) {}

  LpResult run();

 private:
  enum class DualOutcome {
    kFeasible,    ///< primal feasibility reached; finish with primal phase 2
    kFallback,    ///< numerics/cap: keep the basis, rerun primal phase 1
    kInfeasible,  ///< dual unbounded: the LP is primal infeasible
    kLimit,       ///< deadline / stop / max_iters
  };

  // --- setup ---------------------------------------------------------------
  void build();
  void cold_start();
  /// Adopts params_.warm_basis when well-formed and factorizable without
  /// repair. Falls back to cold_start() and returns false otherwise.
  bool adopt_warm_basis();

  // --- shared machinery ----------------------------------------------------
  /// (Re)factorizes basis_, repairing singularity (sets basis_repaired_ and
  /// kicks dropped columns to their nearer bound), then rebuilds the row
  /// maps and the basic values.
  void factorize_basis();
  /// Recomputes every basic value from the nonbasic assignment via FTRAN.
  void compute_basic_values();
  /// w := B^{-1} a_j (dense scratch, sparse apply).
  void ftran_column(int j, std::vector<double>& w);

  [[nodiscard]] double col_span(int j) const { return up_[j] - lo_[j]; }
  [[nodiscard]] bool is_basic(int j) const { return basic_row_[j] >= 0; }
  [[nodiscard]] double infeasibility() const;
  [[nodiscard]] double objective_value() const;
  /// Counts one iteration against kLpMaxIters / deadline / stop.
  [[nodiscard]] bool budget_exhausted();

  // --- pricing -------------------------------------------------------------
  struct Candidate {
    int j = -1;
    double dir = 0.0;
  };
  /// Picks an entering column. Phase 1 prices the infeasibility gradient
  /// g_j = a_j·B^{-T}s (s = ±1 per violated basic row); phase 2 prices the
  /// reduced costs d_j = c_j - a_j·B^{-T}c_B. Devex scores every
  /// attractive column by d_j²/w_j against the reference weights. Bland
  /// mode scans everything and returns the smallest attractive index
  /// (anti-cycling). j = -1 when none qualifies.
  Candidate price(bool phase1, bool bland);
  /// Forrest–Goldfarb devex update of the primal reference weights for the
  /// pivot "q enters at row r" (w = B^{-1}a_q against the pre-pivot basis).
  /// Must run before the LU update; costs one BTRAN (the pivot row).
  void update_primal_weights(int q, int r, const std::vector<double>& w);
  /// Dual mirror: row weights approximating ||B^{-T}e_r||², updated from
  /// the FTRAN'd entering column.
  void update_dual_weights(int r, double wr, const std::vector<double>& w);
  /// Resets both weight sets to the unit reference framework.
  void reset_weights();

  // --- ratio test ----------------------------------------------------------
  struct Block {
    int leave_row = -1;  ///< -1: bound flip
    double t = 0.0;      ///< step length
    double leave_to = 0.0;
  };
  /// Two-pass (Harris-style) ratio test over the FTRAN'd entering column
  /// \p w: minimum blocking ratio first, then the largest |pivot| among
  /// near-minimal rows (Bland mode: smallest basic index). phase1 enables
  /// the extended bounds of currently infeasible basics.
  [[nodiscard]] Block ratio_test(const std::vector<double>& w, int j,
                                 double dir, bool phase1, bool bland) const;
  /// Applies a ratio-test outcome: moves values, then flips or pivots
  /// (LU product-form update, refactorizing when the update is rejected or
  /// the eta file outgrows its budget).
  void apply_step(int j, double dir, const std::vector<double>& w,
                  const Block& block);

  // --- primal phases -------------------------------------------------------
  bool run_phase1();
  /// Returns true when the basis had to be repaired mid-phase and phase 1
  /// must re-establish feasibility; status_ is set otherwise.
  bool run_phase2();

  // --- dual simplex (warm-start entry) -------------------------------------
  /// d[j] := c_j - a_j·B^{-T}c_B for nonbasic j, 0 for basic.
  void compute_reduced_costs(std::vector<double>& d);
  /// Flips boxed nonbasics whose reduced cost has the wrong sign for their
  /// bound — after this the basis is dual feasible (every column is boxed,
  /// so a flip always exists). Recomputes basic values when anything moved.
  void restore_dual_feasibility(std::vector<double>& d);
  DualOutcome run_dual();

  const LpProblem& lp_;
  const LpParams& params_;

  int m_ = 0;     ///< rows
  int n_ = 0;     ///< structural columns
  int cols_ = 0;  ///< n_ + m_

  CscMatrix mat_;      ///< M = [A | -I]
  BasisLu lu_{&mat_};  ///< basis factorization over mat_

  std::vector<double> lo_, up_;  ///< bounds for all cols (slacks clipped)
  std::vector<double> cost_;     ///< phase-2 costs (slack = 0)
  std::vector<double> val_;      ///< current value of every column
  std::vector<int> basis_;       ///< basis_[r] = column basic in row r
  std::vector<int> basic_row_;   ///< col -> row, or -1 when nonbasic
  std::vector<char> in_basis_;   ///< col -> 0/1 (BasisLu repair input)

  std::vector<double> y_work_;    ///< BTRAN scratch (pricing)
  std::vector<double> rhs_work_;  ///< FTRAN scratch (basic values)
  std::vector<double> w_;         ///< FTRAN'd entering column
  std::vector<double> rho_;       ///< dual: B^{-T} e_r
  std::vector<double> alpha_;     ///< dual: pivot row alpha_j = a_j·rho
  std::vector<double> col_weight_;  ///< devex weights, per working column
  std::vector<double> row_weight_;  ///< dual devex weights, per basis row
  /// Scratch for carrying row weights through a refactorization's basis
  /// permutation (indexed by working column).
  std::vector<double> row_weight_work_;

  long iters_ = 0;
  long phase1_iters_ = 0;
  long dual_iters_ = 0;
  long bland_iters_ = 0;
  long degen_ = 0;  ///< pivots with a ~zero Harris step
  int pivots_since_refresh_ = 0;
  bool basis_repaired_ = false;
  bool used_warm_start_ = false;
  LpStatus status_ = LpStatus::kIterLimit;
};

void RevisedSimplex::build() {
  m_ = static_cast<int>(lp_.rows.size());
  n_ = lp_.num_vars;
  cols_ = n_ + m_;
  mat_ = build_working_matrix(lp_);
  WorkingColumns wc = build_working_columns(lp_);
  lo_ = std::move(wc.lo);
  up_ = std::move(wc.up);
  cost_ = std::move(wc.cost);
  val_.assign(static_cast<std::size_t>(cols_), 0.0);
  basis_.resize(static_cast<std::size_t>(m_));
  basic_row_.assign(static_cast<std::size_t>(cols_), -1);
  in_basis_.assign(static_cast<std::size_t>(cols_), 0);
  col_weight_.assign(static_cast<std::size_t>(cols_), 1.0);
  row_weight_.assign(static_cast<std::size_t>(m_), 1.0);
}

void RevisedSimplex::reset_weights() {
  std::fill(col_weight_.begin(), col_weight_.end(), 1.0);
  std::fill(row_weight_.begin(), row_weight_.end(), 1.0);
}

void RevisedSimplex::cold_start() {
  for (int j = 0; j < cols_; ++j) {
    // Nonbasic start: the bound with smaller magnitude (keeps values small).
    val_[j] = std::fabs(lo_[j]) <= std::fabs(up_[j]) ? lo_[j] : up_[j];
  }
  std::fill(basic_row_.begin(), basic_row_.end(), -1);
  std::fill(in_basis_.begin(), in_basis_.end(), 0);
  for (int r = 0; r < m_; ++r) {
    basis_[static_cast<std::size_t>(r)] = n_ + r;
    basic_row_[n_ + r] = r;
    in_basis_[static_cast<std::size_t>(n_ + r)] = 1;
  }
  factorize_basis();  // trivial triangular factor; fills basic values
  // A cold start is a brand-new slack basis: begin a fresh unit reference
  // framework (weights carried over from whatever basis preceded the
  // fallback would be stale).
  reset_weights();
  basis_repaired_ = false;
}

bool RevisedSimplex::adopt_warm_basis() {
  const LpBasis* wb = params_.warm_basis;
  if (wb == nullptr || static_cast<int>(wb->basic.size()) != m_ ||
      static_cast<int>(wb->status.size()) != cols_) {
    return false;
  }
  std::vector<char> seen(static_cast<std::size_t>(cols_), 0);
  for (const int c : wb->basic) {
    if (c < 0 || c >= cols_ || seen[static_cast<std::size_t>(c)] != 0) {
      return false;
    }
    seen[static_cast<std::size_t>(c)] = 1;
  }
  basis_ = wb->basic;
  in_basis_ = std::move(seen);
  std::fill(basic_row_.begin(), basic_row_.end(), -1);
  for (int r = 0; r < m_; ++r) {
    basic_row_[basis_[static_cast<std::size_t>(r)]] = r;
  }
  // Nonbasic columns sit at the snapshot's bound — re-evaluated against the
  // *current* (possibly tightened) box, which is exactly what makes the
  // parent basis dual feasible for the child.
  for (int j = 0; j < cols_; ++j) {
    if (is_basic(j)) continue;
    val_[j] = wb->status[static_cast<std::size_t>(j)] == ColStatus::kAtUpper
                  ? up_[j]
                  : lo_[j];
  }
  factorize_basis();
  if (basis_repaired_) {
    // The snapshot is singular for this problem; a repaired basis has no
    // dual-feasibility guarantee, so cold-start instead.
    cold_start();
    return false;
  }
  return true;
}

void RevisedSimplex::factorize_basis() {
  std::vector<int> old = basis_;
  const int repaired = lu_.factorize(basis_, in_basis_);
  if (repaired > 0) {
    std::vector<char> now(static_cast<std::size_t>(cols_), 0);
    for (int r = 0; r < m_; ++r) {
      now[static_cast<std::size_t>(basis_[static_cast<std::size_t>(r)])] = 1;
    }
    for (const int c : old) {
      if (now[static_cast<std::size_t>(c)] != 0) continue;
      // Dropped as dependent: park on the nearer bound.
      val_[c] = std::fabs(val_[c] - lo_[c]) <= std::fabs(val_[c] - up_[c])
                    ? lo_[c]
                    : up_[c];
    }
    basis_repaired_ = true;
    log_debug("simplex: refactorization repaired ", repaired, " positions");
  }
  // factorize() permutes basis_, so the maps need rebuilding either way.
  std::fill(basic_row_.begin(), basic_row_.end(), -1);
  std::fill(in_basis_.begin(), in_basis_.end(), 0);
  for (int r = 0; r < m_; ++r) {
    const int b = basis_[static_cast<std::size_t>(r)];
    basic_row_[b] = r;
    in_basis_[static_cast<std::size_t>(b)] = 1;
  }
  // Reference weights persist across refactorizations: the basis matrix is
  // unchanged (only its factors were rebuilt), so the column weights stay
  // valid approximations, and resetting them to the unit framework would
  // throw away what a long solve has built up. factorize()
  // may have permuted basis_, so the row-indexed dual weights are carried
  // through the permutation (row r's weight travels with the column that
  // was basic there). A *repaired* basis is a different matrix — weights
  // anchored to the old one are meaningless, reset to the unit framework.
  if (repaired > 0) {
    reset_weights();
  } else {
    row_weight_work_.assign(static_cast<std::size_t>(cols_), 1.0);
    for (std::size_t r = 0; r < old.size(); ++r) {
      row_weight_work_[static_cast<std::size_t>(old[r])] = row_weight_[r];
    }
    for (int r = 0; r < m_; ++r) {
      row_weight_[static_cast<std::size_t>(r)] =
          row_weight_work_[static_cast<std::size_t>(
              basis_[static_cast<std::size_t>(r)])];
    }
  }
  compute_basic_values();
}

void RevisedSimplex::compute_basic_values() {
  // M x = 0  =>  x_B = B^{-1} (-N x_N).
  rhs_work_.assign(static_cast<std::size_t>(m_), 0.0);
  for (int j = 0; j < cols_; ++j) {
    if (is_basic(j)) continue;
    const double v = val_[j];
    if (v != 0.0) mat_.add_column(j, -v, rhs_work_);
  }
  lu_.ftran(rhs_work_);
  for (int r = 0; r < m_; ++r) {
    val_[basis_[static_cast<std::size_t>(r)]] =
        rhs_work_[static_cast<std::size_t>(r)];
  }
  pivots_since_refresh_ = 0;
}

void RevisedSimplex::ftran_column(int j, std::vector<double>& w) {
  w.assign(static_cast<std::size_t>(m_), 0.0);
  mat_.add_column(j, 1.0, w);
  lu_.ftran(w);
}

double RevisedSimplex::infeasibility() const {
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

double RevisedSimplex::objective_value() const {
  double acc = lp_.cost_constant;
  for (int j = 0; j < n_; ++j) acc += cost_[j] * val_[j];
  return acc;
}

bool RevisedSimplex::budget_exhausted() {
  return ++iters_ > kLpMaxIters || params_.deadline.expired() ||
         params_.stop.stop_requested();
}

RevisedSimplex::Candidate RevisedSimplex::price(bool phase1, bool bland) {
  const double ftol = kLpFeasTol;
  y_work_.assign(static_cast<std::size_t>(m_), 0.0);
  if (phase1) {
    // s_r = +1 where the basic value sits below its lower bound, -1 above
    // the upper; the infeasibility gradient along nonbasic j is then
    // g_j = a_j · B^{-T} s (the revised form of the dense row sums).
    bool any = false;
    for (int r = 0; r < m_; ++r) {
      const int b = basis_[static_cast<std::size_t>(r)];
      if (val_[b] < lo_[b] - ftol) {
        y_work_[static_cast<std::size_t>(r)] = 1.0;
        any = true;
      } else if (val_[b] > up_[b] + ftol) {
        y_work_[static_cast<std::size_t>(r)] = -1.0;
        any = true;
      }
    }
    if (!any) return {};  // primal feasible
  } else {
    for (int r = 0; r < m_; ++r) {
      y_work_[static_cast<std::size_t>(r)] =
          cost_[basis_[static_cast<std::size_t>(r)]];
    }
  }
  lu_.btran(y_work_);

  const double threshold = -(phase1 ? ftol : kLpOptTol);
  const auto score_of = [&](int j, double* dir_out) {
    const double v = phase1 ? mat_.dot_column(j, y_work_)
                            : cost_[j] - mat_.dot_column(j, y_work_);
    const bool at_lo = val_[j] <= lo_[j] + ftol;
    const bool at_up = val_[j] >= up_[j] - ftol;
    double dir;
    if (at_lo && !at_up) {
      dir = 1.0;
    } else if (at_up && !at_lo) {
      dir = -1.0;
    } else {
      dir = v < 0 ? 1.0 : -1.0;
    }
    *dir_out = dir;
    return dir * v;  // rate of change along the move; want < 0
  };

  Candidate best;
  if (bland) {
    // Exact anti-cycling scan: the smallest attractive index wins.
    for (int j = 0; j < cols_; ++j) {
      if (is_basic(j) || col_span(j) < ftol) continue;
      double dir;
      if (score_of(j, &dir) < threshold) return {j, dir};
    }
    return best;
  }
  // Devex: full scan, best d²/w ratio wins. The weights approximate
  // ||B^{-1}a_j||², so the score is the squared objective rate per unit of
  // *edge* length — the measure Dantzig pricing ignores and the reason it
  // zig-zags on degenerate vertices.
  double best_ratio = 0.0;
  for (int j = 0; j < cols_; ++j) {
    if (is_basic(j) || col_span(j) < ftol) continue;
    double dir;
    const double s = score_of(j, &dir);
    if (s >= threshold) continue;
    const double ratio =
        s * s / std::max(col_weight_[static_cast<std::size_t>(j)], 1e-12);
    if (ratio > best_ratio) {
      best_ratio = ratio;
      best = {j, dir};
    }
  }
  return best;
}

void RevisedSimplex::update_primal_weights(int q, int r,
                                           const std::vector<double>& w) {
  const double alpha_q = w[static_cast<std::size_t>(r)];
  if (std::fabs(alpha_q) <= kAlphaTol) {
    // Too small to normalize against; re-anchor rather than divide by it.
    reset_weights();
    return;
  }
  // Pivot row of the pre-pivot basis: rho = B^{-T} e_r, alpha_j = a_j·rho.
  rho_.assign(static_cast<std::size_t>(m_), 0.0);
  rho_[static_cast<std::size_t>(r)] = 1.0;
  lu_.btran(rho_);
  const double gamma_q = col_weight_[static_cast<std::size_t>(q)];
  bool overflow = false;
  for (int j = 0; j < cols_; ++j) {
    if (j == q || is_basic(j)) continue;
    const double alpha_j = mat_.dot_column(j, rho_);
    if (alpha_j == 0.0) continue;
    const double ratio = alpha_j / alpha_q;
    double& wj = col_weight_[static_cast<std::size_t>(j)];
    // Forrest–Goldfarb devex: monotone max update within the framework.
    wj = std::max(wj, ratio * ratio * gamma_q);
    if (wj > kWeightResetLimit) overflow = true;
  }
  // The leaving variable joins the nonbasic set along the entering edge.
  const int leaving = basis_[static_cast<std::size_t>(r)];
  col_weight_[static_cast<std::size_t>(leaving)] =
      std::max(gamma_q / (alpha_q * alpha_q), 1.0);
  if (col_weight_[static_cast<std::size_t>(leaving)] > kWeightResetLimit) {
    overflow = true;
  }
  if (overflow) reset_weights();
}

void RevisedSimplex::update_dual_weights(int r, double wr,
                                         const std::vector<double>& w) {
  if (std::fabs(wr) <= kAlphaTol) {
    reset_weights();
    return;
  }
  const double gamma_r = row_weight_[static_cast<std::size_t>(r)];
  bool overflow = false;
  for (int i = 0; i < m_; ++i) {
    if (i == r) continue;
    const double wi = w[static_cast<std::size_t>(i)];
    if (wi == 0.0) continue;
    const double ratio = wi / wr;
    double& g = row_weight_[static_cast<std::size_t>(i)];
    g = std::max(g, ratio * ratio * gamma_r);
    if (g > kWeightResetLimit) overflow = true;
  }
  row_weight_[static_cast<std::size_t>(r)] =
      std::max(gamma_r / (wr * wr), 1e-4);
  if (overflow) reset_weights();
}

RevisedSimplex::Block RevisedSimplex::ratio_test(const std::vector<double>& w,
                                                 int j, double dir, bool phase1,
                                                 bool bland) const {
  const double ftol = kLpFeasTol;
  const double t_bound = dir > 0 ? up_[j] - val_[j] : val_[j] - lo_[j];

  // Per-row blocking limit under the move; kInf when the row cannot block.
  constexpr double kInf = std::numeric_limits<double>::infinity();
  const auto row_limit = [&](int r, double* to_out, double* rate_out) {
    const double rate = -dir * w[static_cast<std::size_t>(r)];
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
    t_rows = std::min(t_rows, row_limit(r, &to, &rate));
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
    if (row_limit(r, &to, &rate) > t_rows + 1e-9) continue;
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

void RevisedSimplex::apply_step(int j, double dir,
                                const std::vector<double>& w,
                                const Block& block) {
  const double t = block.t;
  if (t != 0.0) {
    for (int r = 0; r < m_; ++r) {
      const double wr = w[static_cast<std::size_t>(r)];
      if (wr != 0.0) {
        // Basic value rate along the move is -dir * w_r.
        val_[basis_[static_cast<std::size_t>(r)]] -= dir * wr * t;
      }
    }
    val_[j] += dir * t;
  }
  if (block.leave_row < 0) {
    // Bound flip: snap exactly onto the far bound.
    val_[j] = dir > 0 ? up_[j] : lo_[j];
    return;
  }
  // Snap the leaving variable exactly onto its blocking bound, then swap it
  // for the entering column and append the product-form update.
  if (t < 1e-12) ++degen_;
  const int r = block.leave_row;
  // Reference weights need the pre-pivot basis (BTRAN of e_r and the
  // nonbasic partition), so update them before the swap and LU update.
  update_primal_weights(j, r, w);
  const int leaving = basis_[static_cast<std::size_t>(r)];
  val_[leaving] = block.leave_to;
  basic_row_[leaving] = -1;
  in_basis_[static_cast<std::size_t>(leaving)] = 0;
  basis_[static_cast<std::size_t>(r)] = j;
  basic_row_[j] = r;
  in_basis_[static_cast<std::size_t>(j)] = 1;
  if (!lu_.update(r, w) || lu_.should_refactorize()) {
    factorize_basis();
  } else if (++pivots_since_refresh_ >= kValueRefreshInterval) {
    compute_basic_values();
  }
}

bool RevisedSimplex::run_phase1() {
  const double inf_tol = kLpFeasTol * static_cast<double>(m_ + 1);
  double last_inf = infeasibility();
  if (last_inf <= inf_tol) return true;
  int stall = 0;
  bool bland = false;
  while (true) {
    if (budget_exhausted()) {
      status_ = LpStatus::kIterLimit;
      return false;
    }
    const Candidate c = price(/*phase1=*/true, bland);
    if (c.j < 0) {
      // Feasible or stuck: decide against a freshly refactorized basis.
      factorize_basis();
      if (infeasibility() <= inf_tol) return true;
      if (!bland) {
        bland = true;  // one exact retry before declaring infeasible
        continue;
      }
      status_ = LpStatus::kInfeasible;
      return false;
    }
    ++phase1_iters_;
    if (bland) ++bland_iters_;
    ftran_column(c.j, w_);
    apply_step(c.j, c.dir, w_,
               ratio_test(w_, c.j, c.dir, /*phase1=*/true, bland));
    const double inf = infeasibility();
    if (inf <= inf_tol) {
      factorize_basis();
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
      factorize_basis();
    }
  }
}

bool RevisedSimplex::run_phase2() {
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
    if (budget_exhausted()) {
      status_ = LpStatus::kIterLimit;
      return false;
    }
    Candidate c = price(/*phase1=*/false, bland);
    if (c.j < 0) {
      // Confirm optimality against a fresh factorization: eta-file drift
      // must not declare victory silently.
      factorize_basis();
      if (basis_repaired_) continue;  // handled at the loop head
      c = price(/*phase1=*/false, bland);
      if (c.j < 0) {
        status_ = LpStatus::kOptimal;
        return false;
      }
    }
    if (bland) ++bland_iters_;
    ftran_column(c.j, w_);
    apply_step(c.j, c.dir, w_,
               ratio_test(w_, c.j, c.dir, /*phase1=*/false, bland));
    const double obj = objective_value();
    if (obj < last_obj - kLpOptTol) {
      last_obj = obj;
      stall = 0;
      bland = false;
    } else if (++stall >= params_.stall_limit) {
      bland = true;
      stall = 0;
      factorize_basis();
    }
  }
}

void RevisedSimplex::compute_reduced_costs(std::vector<double>& d) {
  y_work_.assign(static_cast<std::size_t>(m_), 0.0);
  for (int r = 0; r < m_; ++r) {
    y_work_[static_cast<std::size_t>(r)] =
        cost_[basis_[static_cast<std::size_t>(r)]];
  }
  lu_.btran(y_work_);
  d.assign(static_cast<std::size_t>(cols_), 0.0);
  for (int j = 0; j < cols_; ++j) {
    if (is_basic(j)) continue;
    d[static_cast<std::size_t>(j)] = cost_[j] - mat_.dot_column(j, y_work_);
  }
}

void RevisedSimplex::restore_dual_feasibility(std::vector<double>& d) {
  const double ftol = kLpFeasTol;
  const double otol = kLpOptTol;
  long flips = 0;
  for (int j = 0; j < cols_; ++j) {
    if (is_basic(j) || col_span(j) < ftol) continue;
    const bool at_lo =
        std::fabs(val_[j] - lo_[j]) <= std::fabs(val_[j] - up_[j]);
    if (at_lo && d[static_cast<std::size_t>(j)] < -otol) {
      val_[j] = up_[j];
      ++flips;
    } else if (!at_lo && d[static_cast<std::size_t>(j)] > otol) {
      val_[j] = lo_[j];
      ++flips;
    }
  }
  if (flips > 0) compute_basic_values();
}

RevisedSimplex::DualOutcome RevisedSimplex::run_dual() {
  const double ftol = kLpFeasTol;
  std::vector<double> d;
  compute_reduced_costs(d);
  restore_dual_feasibility(d);

  // Re-solves after a single bound change converge in a handful of pivots;
  // anything past this cap smells of dual cycling — hand the basis over to
  // the battle-tested primal phase 1 instead of spinning.
  const long cap = std::max<long>(500, 2L * (m_ + cols_));
  long taken = 0;
  bool retried = false;
  while (true) {
    // Leaving row: largest viol²/weight under the devex row weights — the
    // dual mirror of d²/w entering-column pricing.
    int r = -1;
    double best_score = 0.0;
    double sigma = 0.0;
    double target = 0.0;
    for (int i = 0; i < m_; ++i) {
      const int b = basis_[static_cast<std::size_t>(i)];
      double v;
      double sg;
      double tg;
      if (val_[b] < lo_[b] - ftol) {
        v = lo_[b] - val_[b];
        sg = -1.0;
        tg = lo_[b];
      } else if (val_[b] > up_[b] + ftol) {
        v = val_[b] - up_[b];
        sg = 1.0;
        tg = up_[b];
      } else {
        continue;
      }
      const double score =
          v * v / std::max(row_weight_[static_cast<std::size_t>(i)], 1e-12);
      if (score > best_score) {
        best_score = score;
        r = i;
        sigma = sg;
        target = tg;
      }
    }
    if (r < 0) return DualOutcome::kFeasible;
    if (++taken > cap) return DualOutcome::kFallback;
    if (budget_exhausted()) {
      status_ = LpStatus::kIterLimit;
      return DualOutcome::kLimit;
    }
    ++dual_iters_;

    // Pivot row: alpha_j = a_j · B^{-T} e_r for every nonbasic column.
    rho_.assign(static_cast<std::size_t>(m_), 0.0);
    rho_[static_cast<std::size_t>(r)] = 1.0;
    lu_.btran(rho_);
    alpha_.assign(static_cast<std::size_t>(cols_), 0.0);
    for (int j = 0; j < cols_; ++j) {
      if (is_basic(j)) continue;
      alpha_[static_cast<std::size_t>(j)] = mat_.dot_column(j, rho_);
    }

    // Dual ratio test: the entering column must push the leaving value
    // toward its violated bound (sign via sigma) while keeping every
    // reduced cost on the right side of zero. Two passes: exact minimum
    // ratio d_j/abar_j, then the largest |alpha| inside a tolerance window
    // (stability).
    const auto eligible = [&](int j, double* abar_out) {
      if (is_basic(j) || col_span(j) < ftol) return false;
      const double abar = sigma * alpha_[static_cast<std::size_t>(j)];
      if (std::fabs(abar) <= kAlphaTol) return false;
      const bool at_lo =
          std::fabs(val_[j] - lo_[j]) <= std::fabs(val_[j] - up_[j]);
      *abar_out = abar;
      return at_lo ? abar > 0.0 : abar < 0.0;
    };
    double rmin = std::numeric_limits<double>::infinity();
    for (int j = 0; j < cols_; ++j) {
      double abar;
      if (!eligible(j, &abar)) continue;
      rmin = std::min(rmin, d[static_cast<std::size_t>(j)] / abar);
    }
    if (!std::isfinite(rmin)) {
      // No entering candidate: the violated row is (numerically) fixed —
      // dual unbounded, i.e. primal infeasible. Confirm on a clean
      // factorization before giving up.
      if (!retried) {
        retried = true;
        factorize_basis();
        if (basis_repaired_) return DualOutcome::kFallback;
        compute_reduced_costs(d);
        restore_dual_feasibility(d);
        continue;
      }
      status_ = LpStatus::kInfeasible;
      return DualOutcome::kInfeasible;
    }
    retried = false;
    int q = -1;
    double best_abs = 0.0;
    for (int j = 0; j < cols_; ++j) {
      double abar;
      if (!eligible(j, &abar)) continue;
      if (d[static_cast<std::size_t>(j)] / abar > rmin + 1e-9) continue;
      if (std::fabs(abar) > best_abs) {
        best_abs = std::fabs(abar);
        q = j;
      }
    }
    MLSI_ASSERT(q >= 0, "dual ratio test lost its entering column");

    // Dual update: d_j -= theta * alpha_j; the leaving column picks up
    // -theta, whose sign lands on the correct side for the bound it goes to.
    const double theta =
        d[static_cast<std::size_t>(q)] / alpha_[static_cast<std::size_t>(q)];
    if (theta != 0.0) {
      for (int j = 0; j < cols_; ++j) {
        if (is_basic(j) || j == q) continue;
        const double a = alpha_[static_cast<std::size_t>(j)];
        if (a != 0.0) d[static_cast<std::size_t>(j)] -= theta * a;
      }
    }
    const int leaving = basis_[static_cast<std::size_t>(r)];
    d[static_cast<std::size_t>(leaving)] = -theta;
    d[static_cast<std::size_t>(q)] = 0.0;

    // Primal step: drive the leaving value exactly onto its bound. The
    // entering column may overshoot its own far bound — that is fine: it
    // becomes a primal-infeasible basic and a later dual pivot fixes it.
    ftran_column(q, w_);
    const double wr = w_[static_cast<std::size_t>(r)];
    if (std::fabs(wr) <= kAlphaTol) {
      // FTRAN disagrees with BTRAN about the pivot: stale etas. Rebuild and
      // restart the iteration rather than risk a destabilizing pivot.
      factorize_basis();
      if (basis_repaired_) return DualOutcome::kFallback;
      compute_reduced_costs(d);
      restore_dual_feasibility(d);
      continue;
    }
    update_dual_weights(r, wr, w_);
    const double delta = (val_[leaving] - target) / wr;
    if (delta != 0.0) {
      for (int i = 0; i < m_; ++i) {
        const double wi = w_[static_cast<std::size_t>(i)];
        if (wi != 0.0) {
          val_[basis_[static_cast<std::size_t>(i)]] -= wi * delta;
        }
      }
      val_[q] += delta;
    }
    val_[leaving] = target;
    basic_row_[leaving] = -1;
    in_basis_[static_cast<std::size_t>(leaving)] = 0;
    basis_[static_cast<std::size_t>(r)] = q;
    basic_row_[q] = r;
    in_basis_[static_cast<std::size_t>(q)] = 1;
    if (!lu_.update(r, w_) || lu_.should_refactorize()) {
      factorize_basis();
      if (basis_repaired_) return DualOutcome::kFallback;
      compute_reduced_costs(d);
      restore_dual_feasibility(d);
    } else if (++pivots_since_refresh_ >= kValueRefreshInterval) {
      compute_basic_values();
    }
  }
}

LpResult RevisedSimplex::run() {
  build();
  bool terminal = false;  // the dual already set a final status
  if (adopt_warm_basis()) {
    used_warm_start_ = true;
    switch (run_dual()) {
      case DualOutcome::kFeasible:
      case DualOutcome::kFallback:
        break;  // finish (or re-establish feasibility) on the primal side
      case DualOutcome::kInfeasible:
      case DualOutcome::kLimit:
        terminal = true;
        break;
    }
  } else {
    cold_start();
  }

  bool feasible = false;
  if (!terminal) {
    feasible = run_phase1();
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
  }

  LpResult out;
  if (feasible && status_ == LpStatus::kOptimal) {
    compute_basic_values();
    // Clamp residual tolerance noise into the box before reporting.
    out.x.resize(static_cast<std::size_t>(n_));
    for (int j = 0; j < n_; ++j) {
      out.x[static_cast<std::size_t>(j)] = std::clamp(val_[j], lo_[j], up_[j]);
    }
    out.objective = objective_value();
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
  out.phase1_iterations = phase1_iters_;
  out.dual_iterations = dual_iters_;
  out.bland_iterations = bland_iters_;
  out.factorizations = lu_.factorizations();
  out.degenerate_steps = degen_;
  out.used_warm_start = used_warm_start_;
  return out;
}

}  // namespace

namespace {

/// Per-*solve* aggregates (never per-pivot — the overhead contract): call
/// counts as counters, shape-of-the-solve as histograms. Instrument
/// references are cached; the registry map probe happens once per process.
/// Non-Bland pivots count under the rule that priced them: devex for the
/// revised solver, Dantzig for the dense oracle (\p dense).
void record_lp_metrics(const LpResult& result, bool dense,
                       std::int64_t elapsed_us) {
  using obs::metrics;
  static obs::Counter& solves = metrics().counter("lp.solves");
  static obs::Counter& pivots = metrics().counter("lp.pivots");
  static obs::Counter& by_dantzig =
      metrics().counter("lp.pivots_by_rule.dantzig");
  static obs::Counter& by_devex = metrics().counter("lp.pivots_by_rule.devex");
  static obs::Counter& by_bland = metrics().counter("lp.pivots_by_rule.bland");
  static obs::Counter& degen = metrics().counter("lp.degenerate_steps");
  static obs::Counter& factor = metrics().counter("lp.factorizations");
  static obs::Counter& warm = metrics().counter("lp.warm_starts");
  static obs::Histogram& pivot_time = metrics().histogram(
      "lp.pivot_time_us", {0.5, 1, 2, 5, 10, 25, 50, 100, 250, 1000});
  static obs::Histogram& refactor_interval = metrics().histogram(
      "lp.refactor_interval", {1, 2, 4, 8, 16, 32, 64, 128, 256});
  static obs::Histogram& degen_per_solve = metrics().histogram(
      "lp.degenerate_steps_per_solve", {0, 1, 2, 5, 10, 25, 50, 100, 250});

  solves.add();
  pivots.add(result.iterations);
  const long ruled = result.iterations - result.bland_iterations;
  if (ruled > 0) (dense ? by_dantzig : by_devex).add(ruled);
  if (result.bland_iterations > 0) by_bland.add(result.bland_iterations);
  degen.add(result.degenerate_steps);
  factor.add(result.factorizations);
  if (result.used_warm_start) warm.add();
  if (result.iterations > 0) {
    pivot_time.observe(static_cast<double>(elapsed_us) /
                       static_cast<double>(result.iterations));
  }
  if (result.factorizations > 0) {
    refactor_interval.observe(static_cast<double>(result.iterations) /
                              static_cast<double>(result.factorizations));
  }
  degen_per_solve.observe(static_cast<double>(result.degenerate_steps));
}

}  // namespace

LpResult solve_lp(const LpProblem& lp, const LpParams& params) {
  if (!obs::metrics_enabled()) {
    if (params.use_dense) return solve_lp_dense(lp, params);
    RevisedSimplex solver(lp, params);
    return solver.run();
  }
  const std::int64_t start_us = support::monotonic_us();
  LpResult result;
  if (params.use_dense) {
    result = solve_lp_dense(lp, params);
  } else {
    RevisedSimplex solver(lp, params);
    result = solver.run();
  }
  record_lp_metrics(result, params.use_dense,
                    support::monotonic_us() - start_us);
  return result;
}

}  // namespace mlsi::opt
