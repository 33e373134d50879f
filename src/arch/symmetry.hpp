#pragma once

/// \file symmetry.hpp
/// \brief Verified plane symmetries of a switch and its candidate paths.
///
/// A crossbar (and some other switch families) is geometrically symmetric:
/// rotations and reflections of the plane map the flow-layer netlist onto
/// itself. Any such map sends a synthesis solution to another solution with
/// the identical objective, so an unfixed binding search only has to try
/// one pin per orbit for its first binding.
///
/// compute_pin_symmetries() proposes the eight isometries of the square
/// about the layout's bounding-box centre and keeps only those that are
/// *verified* to be metric graph automorphisms (vertex kinds, segments and
/// lengths preserved) AND to map the enumerated candidate paths onto
/// themselves. The second check matters: path enumeration truncates to
/// max_paths_per_pair with a lexicographic tie-break, which breaks closure
/// on larger switches — using an unverified symmetry there would prune real
/// solutions. Verified maps are returned as permutations of the clockwise
/// pin indices. PathSet runs it once, when it is built (paths.hpp).
///
/// What verifies on a crossbar: the 4 rotations when every shortest path is
/// kept, on 8, 12 and 16 pins; reflections never do. With the default cap
/// of 16 paths per pair, 12- and 16-pin crossbars keep 488 and 1,396 of
/// their 504 and 1,948 shortest paths and verify only the identity.

#include <vector>

#include "arch/topology.hpp"

namespace mlsi::arch {

struct Path;

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
/// maps every segment to a segment of equal length, and maps every path of
/// \p paths to another path of \p paths. Returns the non-identity
/// survivors; empty means only the identity verified (e.g. when path
/// truncation broke closure).
[[nodiscard]] PinSymmetries compute_pin_symmetries(
    const SwitchTopology& topo, const std::vector<Path>& paths);

}  // namespace mlsi::arch
