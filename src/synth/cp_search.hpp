#pragma once

/// \file cp_search.hpp
/// \brief The CP search behind solve_cp() (cp_engine.hpp).
///
/// A chronological, exact branch & bound: flows in a conflicted-first
/// static order; per flow bind pins, pick a candidate path, pick a flow
/// set; prune with an admissible suffix-length bound against the incumbent
/// (and the portfolio's shared incumbent when racing). A dive that
/// exhausts its space within budget has proven its answer.
///
/// For the unfixed policy, lex-leader symmetry breaking (cp_symmetry)
/// restricts bindings to those lexicographically minimal under the
/// verified automorphisms of (topology, path set) (cp_symmetry.hpp),
/// generalizing the seed's quarter-turn rule; when no symmetry verifies,
/// the quarter-turn restriction is kept as the fallback.

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
