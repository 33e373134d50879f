#pragma once

/// \file cuts.hpp
/// \brief Gomory mixed-integer (GMI) cuts from an LU-factored simplex basis.
///
/// generate_gomory_cuts() reads the optimal basis of an LP relaxation,
/// refactorizes it (basis_lu.hpp), and derives one GMI cut per basic
/// integer-constrained variable with a usefully fractional value. The
/// derivation works in the bounded-variable tableau of the working system
/// M x = [A | -I] x = 0: every nonbasic column is shifted to its resting
/// bound (t_j = x_j - lo_j or up_j - x_j), the classic GMI formula is
/// applied to the shifted row, and the cut is mapped back to *structural*
/// variables only — slack columns are substituted out through their row
/// definitions, so the returned rows can be appended to any LpProblem (or
/// a Model) without referencing solver internals.
///
/// Numerics follow the usual safe-rounding playbook: rows whose basic value
/// lies within 0.005 of an integer are skipped, cut coefficients below
/// 1e-11 of the largest are dropped with an rhs compensation that keeps the
/// cut valid (weaker, never wrong), cuts whose |coef| max/min ratio exceeds
/// 1e7 are discarded, and every surviving rhs is relaxed by a relative
/// epsilon. The pool is then filtered: cuts must cut off the fractional
/// vertex by at least 1e-4 (normalized), and cuts with pairwise cosine
/// above 0.95 are deduplicated keeping the most violated first, at most 32
/// per round. These values are fixed constants in cuts.cpp.
///
/// Cuts generated at the branch & bound *root* are valid for the whole
/// tree (the derivation only uses global bounds and integrality).

#include <vector>

#include "opt/simplex.hpp"

namespace mlsi::opt {

struct CutStats {
  long generated = 0;  ///< raw GMI rows derived before filtering
  long kept = 0;       ///< rows returned to the caller
  long dropped = 0;    ///< filtered: weak, parallel, ill-scaled, or overflow
};

/// Derives GMI cuts for \p lp from \p root (an optimal solve_lp result whose
/// basis snapshot is complete). \p is_integral has one flag per structural
/// variable. Returns `coef·x >= lo` rows over structural variables, already
/// filtered and safe to append to the problem; empty when the basis cannot
/// be refactorized cleanly or nothing useful is fractional.
[[nodiscard]] std::vector<LpRow> generate_gomory_cuts(
    const LpProblem& lp, const LpResult& root,
    const std::vector<char>& is_integral, CutStats* stats = nullptr);

}  // namespace mlsi::opt
