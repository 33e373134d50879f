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
/// added length comes from PathSet::segment_mask() and the union of the
/// placed paths' masks, one popcount per PathSet::length_classes() entry
/// (one POPCNT instruction on x86-64: the library builds with -mpopcnt).
/// The contamination check ANDs each candidate's PathSet::vertex_mask()
/// with the OR of the conflicting earlier flows' masks, built once per node.
/// Candidate lists, conflict masks, segment unions and undo lists live in
/// per-depth buffers sized once per search, so a node allocates nothing.
/// The search tallies why it pruned (bound, early breaks, owner clashes,
/// conflict clashes, precedence skips) and its nodes per flow-order
/// position, and reports them as args of the cp.done trace instant.
///
/// Both free policies split into root units: the first module's pin
/// (clockwise), or the first flow's (source, destination) pin pair
/// (unfixed, whose root node the units share). When EngineParams::jobs
/// resolves to more than one worker, the calling thread hands units 1.. off
/// once unit 0 is large: at its 4,096th node if it holds an incumbent by
/// then, else at its end. A pool of jobs - 1 workers and, after unit 0, the
/// calling thread take them from one counter, each unit searched from a
/// reset state bounded by the incumbent held at the handoff; the outcomes
/// are folded in unit order, so the answer is the serial one.
///
/// For the unfixed policy two symmetry rules apply. The first binding
/// ranges over the orbit representatives of the symmetries the path set
/// verified when it was built (arch/symmetry.hpp says what verifies). When
/// only the identity verifies — with the default path cap, on every 12- and
/// 16-pin crossbar — a crossbar falls back to the pins of its first side,
/// the quarter-turn rule, unverified there. Then modules the spec cannot
/// tell apart (the outlets of one inlet; single-flow inlets with their
/// outlets and matching conflict neighbours) form classes, each swap
/// checked against the flow set and the inlet-level conflict pairs; each
/// class binds in increasing pin order along the order the dive binds it.
/// That is exact when every class permutation fixes the modules outside
/// the class, the first-binding pins are a prefix of the pin order (else
/// the first-bound module leaves its chain) and the chain order is the
/// bind order; prepare() checks all three. DESIGN.md gives the argument.

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
