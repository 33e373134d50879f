#pragma once

/// \file sparse.hpp
/// \brief Compressed-sparse-column storage of the working LP matrix, and
/// the tolerances both simplex implementations share.
///
/// Both simplex implementations operate on the working matrix
/// M = [A | -I]: one column per structural variable followed by one slack
/// column per row (a_r·x - s_r = 0). The revised simplex keeps M in CSC
/// form and never materializes B^{-1}; the routing/scheduling LPs the
/// synthesis layer produces touch only a handful of columns per row, so
/// packed columns cut both memory and per-iteration work from O(m·(n+m))
/// to O(nnz).

#include <vector>

#include "opt/simplex.hpp"

namespace mlsi::opt {

/// Primal feasibility tolerance of every LP solve (revised and dense).
inline constexpr double kLpFeasTol = 1e-7;
/// Optimality (reduced-cost) tolerance of every LP solve.
inline constexpr double kLpOptTol = 1e-7;
/// Safety limit on pivots per solve; reaching it reports kIterLimit.
inline constexpr long kLpMaxIters = 500000;

/// Immutable CSC matrix. Entries within a column are sorted by row and
/// duplicate-free (build_working_matrix merges duplicates on ingestion).
struct CscMatrix {
  int rows = 0;
  int cols = 0;
  std::vector<int> start;    ///< size cols + 1; column j spans [start[j], start[j+1])
  std::vector<int> index;    ///< row index per entry
  std::vector<double> value; ///< coefficient per entry

  [[nodiscard]] int col_nnz(int j) const {
    return start[static_cast<std::size_t>(j) + 1] -
           start[static_cast<std::size_t>(j)];
  }
  [[nodiscard]] long nnz() const { return static_cast<long>(index.size()); }

  /// y += scale * column j (y is a dense row-space vector).
  void add_column(int j, double scale, std::vector<double>& y) const;
  /// Sparse dot product column j · y.
  [[nodiscard]] double dot_column(int j, const std::vector<double>& y) const;
};

/// Builds M = [A | -I] from \p lp: columns 0..num_vars-1 are the structural
/// columns of A (duplicate terms merged), column num_vars + r is the slack
/// column -e_r of row r.
[[nodiscard]] CscMatrix build_working_matrix(const LpProblem& lp);

/// Bounds and phase-2 costs for all n + m working columns.
struct WorkingColumns {
  std::vector<double> lo;    ///< finite for every column
  std::vector<double> up;    ///< finite for every column
  std::vector<double> cost;  ///< structural costs, slacks 0
};

/// Structural bounds come straight from the problem; slack bounds are the
/// row bounds clipped to the row's achievable activity range, so every
/// column is boxed (clipping cannot cut off a feasible point). When the row
/// bounds lie entirely outside the activity range the LP is infeasible: the
/// slack is pinned to the nearer row bound and phase 1 then proves
/// infeasibility because no pivot can reach it.
[[nodiscard]] WorkingColumns build_working_columns(const LpProblem& lp);

}  // namespace mlsi::opt
