#pragma once

/// \file cp_symmetry.hpp
/// \brief Verified switch symmetries and lex-leader binding pruning.
///
/// A crossbar (and some other switch families) is geometrically symmetric:
/// rotations and reflections of the plane map the flow-layer netlist onto
/// itself. Any such map sends a synthesis solution to another solution with
/// the identical objective, so the unfixed binding search only has to visit
/// one representative per orbit. The seed engine exploited a single ad-hoc
/// consequence (the "quarter-turn" restriction of the very first pin
/// choice); this module generalizes it soundly:
///
///  * compute_pin_symmetries() proposes the eight isometries of the square
///    about the layout's bounding-box centre and keeps only those that are
///    *verified* to be metric graph automorphisms (vertex kinds, segments
///    and lengths preserved) AND to map the enumerated candidate PathSet
///    onto itself. The second check matters: path enumeration truncates to
///    max_paths_per_pair with a lexicographic tie-break, which can break
///    closure on larger switches — using an unverified symmetry there would
///    prune real solutions. Verified maps are returned as permutations of
///    the clockwise pin indices.
///  * SymmetryBreaker rejects a candidate module->pin binding whenever some
///    verified symmetry makes the (partial) binding lexicographically
///    smaller w.r.t. a *fixed* module comparison order. The lex-minimal
///    member of every solution orbit always survives, so the optimum is
///    preserved.

#include <vector>

#include "arch/paths.hpp"
#include "arch/topology.hpp"

namespace mlsi::synth {

/// Non-identity pin-index permutations (over the clockwise pin order)
/// induced by verified automorphisms of (topology, path set).
class PinSymmetries {
 public:
  PinSymmetries() = default;
  explicit PinSymmetries(std::vector<std::vector<int>> perms)
      : perms_(std::move(perms)) {}

  [[nodiscard]] const std::vector<std::vector<int>>& perms() const {
    return perms_;
  }
  /// Verified group members including the identity.
  [[nodiscard]] int group_size() const {
    return static_cast<int>(perms_.size()) + 1;
  }
  [[nodiscard]] bool nontrivial() const { return !perms_.empty(); }

  /// Smallest pin index reachable from \p pin (identity included).
  [[nodiscard]] int orbit_min(int pin) const;

 private:
  std::vector<std::vector<int>> perms_;
};

/// Discovers and verifies the switch's plane symmetries. Candidates are the
/// 4 rotations and 4 reflections of the square about the bounding-box
/// centre; each survives only if it bijects vertices kind-preservingly,
/// maps every segment to a segment of equal length, and maps every
/// enumerated candidate path to another enumerated path. Returns the
/// non-identity survivors; empty means only the identity verified (e.g.
/// when path truncation broke closure) and callers should fall back to
/// symmetry-unaware search.
[[nodiscard]] PinSymmetries compute_pin_symmetries(
    const arch::SwitchTopology& topo, const arch::PathSet& paths);

/// Lex-leader pruning over partial module->pin bindings.
class SymmetryBreaker {
 public:
  /// \p syms must outlive the breaker. \p module_order is the fixed
  /// comparison order (the order modules are first bound in the static
  /// search order); it must contain every module exactly once.
  SymmetryBreaker(const PinSymmetries* syms, std::vector<int> module_order)
      : syms_(syms), module_order_(std::move(module_order)) {}

  /// True unless binding \p module to \p pin (on top of the partial binding
  /// \p module_pin, -1 = unbound) is *provably* not lex-minimal in its
  /// orbit: some verified symmetry maps the extended partial binding to a
  /// lex-smaller one at a comparison position before the first unbound
  /// hole. Complete assignments that are lex-minimal are always admitted.
  [[nodiscard]] bool admits(const std::vector<int>& module_pin, int module,
                            int pin) const;

 private:
  const PinSymmetries* syms_;
  std::vector<int> module_order_;
};

}  // namespace mlsi::synth
