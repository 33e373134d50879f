#pragma once

/// \file simplex.hpp
/// \brief Sparse revised simplex (primal + dual) for LP relaxations.
///
/// Scope: the LPs arising from linearized switch-synthesis models. All
/// structural variables carry finite bounds (Model enforces this), which
/// removes unboundedness from the method entirely: every ratio test is
/// blocked either by a basic variable's bound or by the entering variable's
/// own bound span.
///
/// Method: revised simplex over the CSC working matrix [A | -I] with one
/// slack per row (a_r·x - s_r = 0, slack bounds = row bounds clipped to the
/// row's activity range). The basis is held as a Markowitz-ordered eta-file
/// LU factorization with product-form pivot updates and periodic refactor
/// (basis_lu.hpp); solves go through sparse FTRAN/BTRAN, never an explicit
/// inverse. Phase 1 minimizes the sum of primal infeasibilities with
/// dynamically recomputed gradient costs and short-step blocking; both
/// phases price with devex: Forrest–Goldfarb reference-framework weights
/// approximating the steepest-edge norms ||B^{-1}a_j||², each attractive
/// column scored d_j²/w_j. Weights survive eta (product-form) updates *and*
/// refactorizations (the row-indexed dual weights are carried through the
/// factor permutation); they fall back to the unit reference framework on
/// weight overflow, a near-zero pivot, basis repair or a cold start. The
/// ratio test is two-pass Harris-style; Bland's rule engages after a stall
/// to guarantee termination. The dual simplex mirrors devex with row
/// weights approximating ||B^{-T}e_r||².
///
/// Warm starts: a caller holding an optimal parent basis (branch & bound
/// after a single bound change) re-enters through the bounded-variable
/// *dual* simplex — the parent basis stays dual feasible under bound
/// changes (any wrong-sign reduced cost is curable by a bound flip, since
/// every column is boxed), so the child needs a handful of dual pivots
/// instead of a cold phase 1.
///
/// The original dense tableau implementation is retained behind
/// LpParams::use_dense as a differential-testing oracle.

#include <cstdint>
#include <utility>
#include <vector>

#include "support/executor.hpp"
#include "support/timer.hpp"

namespace mlsi::opt {

/// One LP row: lo <= sum(terms) <= hi (either bound may be infinite).
struct LpRow {
  std::vector<std::pair<int, double>> terms;  ///< (column, coefficient)
  double lo = 0.0;
  double hi = 0.0;
};

/// LP in natural form: minimize cost·x + cost_constant over box + rows.
struct LpProblem {
  int num_vars = 0;
  std::vector<double> lb;    ///< size num_vars, finite
  std::vector<double> ub;    ///< size num_vars, finite
  std::vector<double> cost;  ///< size num_vars
  double cost_constant = 0.0;
  std::vector<LpRow> rows;
};

enum class LpStatus {
  kOptimal,
  kInfeasible,
  kIterLimit,  ///< pivot cap (kLpMaxIters), deadline or stop hit first
};

/// Status of one working column (structural or slack) in a basis snapshot.
enum class ColStatus : char {
  kAtLower = 0,
  kAtUpper = 1,
  kBasic = 2,
};

/// \brief A complete basis snapshot: which column is basic in each row plus
/// the bound every nonbasic column rests at.
///
/// The basic set alone does not determine the vertex for bounded variables;
/// the at-lower/at-upper split is what lets a child node reconstruct the
/// parent's point exactly and re-enter through the dual simplex.
struct LpBasis {
  std::vector<int> basic;       ///< size #rows: column id basic in that row
  std::vector<ColStatus> status;  ///< size num_vars + #rows
  [[nodiscard]] bool empty() const { return basic.empty() && status.empty(); }
};

struct LpResult {
  LpStatus status = LpStatus::kIterLimit;
  double objective = 0.0;  ///< includes cost_constant (valid when optimal)
  std::vector<double> x;   ///< structural values (valid when optimal)
  /// Final basis snapshot; feed back via LpParams::warm_basis to warm-start
  /// a re-solve after bound changes (branch & bound children).
  LpBasis basis;
  long iterations = 0;        ///< total pivots/flips (primal + dual)
  long phase1_iterations = 0; ///< primal phase-1 share of `iterations`
  long dual_iterations = 0;   ///< dual-simplex share of `iterations`
  /// Iterations taken in Bland anti-cycling mode; the remaining
  /// `iterations - bland_iterations` were priced by devex (the dense oracle:
  /// Dantzig-style). Feeds the lp.pivots_by_rule.* counters.
  long bland_iterations = 0;
  long factorizations = 0;    ///< basis (re)factorizations performed
  /// Basis changes whose Harris ratio step was (numerically) zero — the
  /// degeneracy measure fed to the obs::metrics histogram.
  long degenerate_steps = 0;
  /// True when the caller's warm basis was adopted and the solve never had
  /// to cold-start from the slack basis.
  bool used_warm_start = false;
};

struct LpParams {
  /// Iterations without objective progress before switching to Bland's rule.
  int stall_limit = 256;
  Deadline deadline;  ///< unlimited by default
  /// Cooperative cancellation: checked once per pivot alongside the
  /// deadline. Default-constructed: never stops.
  support::StopToken stop;
  /// Optional starting basis (an LpResult::basis from a previous solve of
  /// the same problem shape, typically after bound changes). The basis
  /// matrix is independent of variable bounds, so a parent node's basis is
  /// always structurally valid for a child; the revised solver re-enters
  /// through the dual simplex, the dense oracle re-adopts it primally.
  /// Invalid input falls back to the slack-basis cold start.
  const LpBasis* warm_basis = nullptr;
  /// Route the solve through the retained dense-tableau implementation
  /// (simplex_dense.cpp). Slower on everything but tiny LPs; kept as the
  /// differential-testing oracle for the revised method.
  bool use_dense = false;
};

/// Solves \p lp. Deterministic for a given input.
LpResult solve_lp(const LpProblem& lp, const LpParams& params = {});

}  // namespace mlsi::opt
