#pragma once

/// \file milp.hpp
/// \brief Exact branch & bound MILP solver over the simplex relaxation.
///
/// solve_milp() accepts a (possibly quadratic) Model, linearizes binary
/// products exactly (see linearize_products), and runs branch & bound with
/// most-fractional branching and nearest-integer-first child ordering.
/// Before the tree search, Gomory mixed-integer cuts (cuts.hpp) tighten the
/// root relaxation for MilpParams::cut_rounds rounds; root cuts are globally
/// valid, so the tree inherits the stronger bound for free.
///
/// The search tolerances are fixed constants in milp.cpp: a value within
/// 1e-6 of an integer counts as integral, a node whose LP bound is within
/// 1e-6 of the incumbent is pruned (below the smallest objective difference
/// of the integer-valued synthesis objectives, so optimality stays exact),
/// and a solve stops after 50M nodes as a safety limit (reported as
/// kFeasible/kUnknown, like a deadline).
///
/// With MilpParams::jobs == 1 (the default) the search is the classic
/// serial DFS: constant memory, early incumbents, children dual-warm-started
/// from the parent basis. With jobs > 1 the root subtree is expanded
/// breadth-first into a frontier of independent subproblems, each carrying
/// its parent's LpBasis, and a support::ThreadPool drains the frontier with
/// one DFS searcher per worker; the incumbent is shared through an atomic
/// minimum. Every subtree is explored to exhaustion under sound pruning, so
/// the *result* (proven optimum) is deterministic even though the search
/// order is not.
///
/// Every incumbent is re-verified against the original model before being
/// accepted, so a numerically shaky LP can never produce an invalid
/// "solution".

#include <string>
#include <vector>

#include "opt/model.hpp"
#include "opt/simplex.hpp"
#include "support/timer.hpp"

namespace mlsi::opt {

enum class MilpStatus {
  kOptimal,     ///< incumbent found and optimality proven
  kFeasible,    ///< incumbent found, search truncated (time/node limit)
  kInfeasible,  ///< proven infeasible
  kUnknown,     ///< search truncated before any incumbent
};

[[nodiscard]] std::string_view to_string(MilpStatus status);

struct SolveStats {
  long nodes = 0;
  long lp_iterations = 0;       ///< total simplex pivots across all nodes
  long lp_dual_iterations = 0;  ///< dual-simplex share of lp_iterations
  long lp_factorizations = 0;   ///< basis (re)factorizations across all nodes
  long warm_starts = 0;  ///< child LPs re-entered from the parent's basis
  long cold_starts = 0;  ///< LPs solved from the slack basis (root included)
  double runtime_s = 0.0;
  /// Objective bound from the root relaxation after cut rounds (the bound
  /// the tree search starts from).
  double root_bound = 0.0;
  /// Root relaxation bound before any cuts; equals root_bound when cuts are
  /// disabled or none applied. The precut -> postcut delta is the measured
  /// strength of the Gomory rounds (also exported as the
  /// milp.root_bound_{precut,postcut} gauges).
  double root_bound_precut = 0.0;
  long cuts_generated = 0;  ///< raw GMI rows derived across all rounds
  long cuts_applied = 0;    ///< cut rows appended to the relaxation
  long cuts_dropped = 0;    ///< filtered out (weak, parallel, ill-scaled)
};

struct Solution {
  MilpStatus status = MilpStatus::kUnknown;
  double objective = 0.0;       ///< incumbent objective (model sense)
  std::vector<double> values;   ///< incumbent assignment, original ids first
  SolveStats stats;

  [[nodiscard]] bool has_solution() const {
    return status == MilpStatus::kOptimal || status == MilpStatus::kFeasible;
  }
  /// Value of \p v in the incumbent (0 when no incumbent).
  [[nodiscard]] double value(Var v) const;
  /// Incumbent value rounded to the nearest integer.
  [[nodiscard]] int value_int(Var v) const;
  /// True when the rounded incumbent value is >= 0.5 (for binaries).
  [[nodiscard]] bool value_bool(Var v) const { return value(v) >= 0.5; }
};

struct MilpParams {
  /// Absolute wall-clock limit; unlimited by default. Construct with
  /// Deadline::after(seconds) at launch time — being absolute, the same
  /// deadline propagates unchanged into every LP relaxation.
  Deadline deadline;
  /// Cooperative cancellation: checked at every B&B node and LP pivot; the
  /// search unwinds with its best incumbent (kFeasible/kUnknown).
  support::StopToken stop;
  /// Run the presolve reductions (opt/presolve.hpp) before the search.
  bool presolve = true;
  /// Rounds of Gomory mixed-integer cut generation at the root; each round
  /// re-solves the relaxation (dual warm start) and generates from the new
  /// basis. 0 disables cutting. Cuts are root-only: they strengthen the
  /// global relaxation, so they stay valid in every subtree.
  int cut_rounds = 3;
  /// Worker threads for the tree search: 1 (default) = serial DFS, n > 1 =
  /// n DFS workers over a breadth-first frontier with a shared incumbent,
  /// <= 0 = hardware parallelism. The proven optimum is identical at every
  /// job count; only the search order (and node count) varies.
  int jobs = 1;
  LpParams lp;
};

/// Solves \p model exactly (modulo limits). The model is copied internally;
/// quadratic binary products are linearized automatically.
Solution solve_milp(const Model& model, const MilpParams& params = {});

}  // namespace mlsi::opt
