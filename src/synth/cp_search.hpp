#pragma once

/// \file cp_search.hpp
/// \brief The CP search behind solve_cp() (cp_engine.hpp).
///
/// A chronological, exact branch & bound: flows in a conflicted-first
/// static order; per flow bind pins, pick a candidate path, pick a flow
/// set; prune with an admissible suffix-length bound against the incumbent.
/// A dive that exhausts its space within budget has proven its answer.
///
/// The node loop: candidate paths are sorted by added union length, so the
/// first one whose cheapest set choice fails the bound ends the candidate
/// loop — exactly, since every later placement would fail it too. The
/// contamination check ANDs each candidate's PathSet::vertex_mask() with
/// the OR of the conflicting earlier flows' masks, built once per node.
/// Candidate lists, conflict masks and undo lists live in per-depth
/// buffers sized once per search, so a node allocates nothing. The
/// search tallies why it pruned (bound, early breaks, owner clashes,
/// conflict clashes) and reports the tallies as args of the cp.done trace
/// instant.
///
/// For the clockwise policy the outer loop runs over the first module's
/// pin. When EngineParams::jobs resolves to more than one worker and the
/// first pin's subtree was large, the other first pins are searched on a
/// pool, each from a fresh state bounded by the first subtree's incumbent,
/// and folded in first-pin order: the answer is the serial one.
///
/// For the unfixed policy one symmetry rule applies: the first binding
/// ranges over the orbit representatives of the symmetries the path set
/// verified when it was built (arch/symmetry.hpp says what verifies). When
/// only the identity verifies — with the default path cap, on every 12- and
/// 16-pin crossbar — a crossbar falls back to the pins of its first side,
/// the quarter-turn rule, unverified there. No later binding is pruned:
/// every crossbar rotation moves every pin.

#include "arch/paths.hpp"
#include "arch/topology.hpp"
#include "synth/engine.hpp"
#include "synth/result.hpp"
#include "synth/spec.hpp"

namespace mlsi::synth {

/// Runs the CP search. Called by solve_cp() after validation.
[[nodiscard]] Result<SynthesisResult> run_cp_search(
    const arch::SwitchTopology& topo, const arch::PathSet& paths,
    const ProblemSpec& spec, const EngineParams& params);

}  // namespace mlsi::synth
