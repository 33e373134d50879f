#pragma once

/// \file cp_engine.hpp
/// \brief Exact branch & bound synthesis over (binding, path, set) choices.
///
/// Search structure:
///  * fixed policy — depth-first over flows; per flow iterate candidate
///    paths between the bound pins, then flow sets;
///  * clockwise policy — outer enumeration of every cyclic-order-preserving
///    module->pin assignment (the feasible set of the paper's constraints
///    (3.12)-(3.13)), inner fixed search sharing one incumbent; a large
///    solve splits the first module's pin loop over EngineParams::jobs
///    workers and returns the serial answer;
///  * unfixed policy — binding decisions are taken lazily inside the flow
///    DFS; the first binding ranges over one pin per orbit of the path
///    set's verified symmetries (PathSet::pin_symmetries()), or over the
///    first side of a crossbar when only the identity verifies — which,
///    with the default path cap, is every 12- and 16-pin crossbar.
///
/// Constraints enforced during the dive (identical to the IQP):
///  * one path per flow, each candidate path used at most once (3.1, 3.2);
///  * conflicting reagents (inlet modules) never share a path vertex, in
///    any set (3.3, strengthened to per-pair disjointness);
///  * within a flow set every vertex is wetted by at most one inlet
///    (3.4-3.6, the collision/scheduling rule);
///  * binding is injective (3.9, 3.10).
///
/// Bound: alpha * sets_used + beta * union_length is monotone along a dive,
/// so partial costs plus an admissible suffix bound (the pin stubs still to
/// be wetted) prune against the incumbent. Candidate paths are tried by
/// added-union-length, sets lowest-first — the first dive is the greedy
/// solution and gives a strong early incumbent. Because of that order, the
/// first candidate whose cheapest set choice fails the bound ends its
/// candidate loop: every later (path, set) pair bounds at least as high
/// (alpha, beta >= 0), so the exit skips only placements that would fail.
///
/// The search itself lives in cp_search.hpp. EngineParams::cp_symmetry is
/// its only tuning knob; off, the unfixed search enumerates the full
/// binding space.

#include "synth/engine.hpp"

namespace mlsi::synth {

/// Runs the search. \p paths must come from enumerate_paths(topo); callers
/// normally pass arch::switch_model()'s shared pair.
/// Returns kInfeasible when no contamination-free schedule exists (the
/// paper's "no solution" rows) and kTimeout when the budget expired before
/// any incumbent was found.
Result<SynthesisResult> solve_cp(const arch::SwitchTopology& topo,
                                 const arch::PathSet& paths,
                                 const ProblemSpec& spec,
                                 const EngineParams& params = {});

}  // namespace mlsi::synth
