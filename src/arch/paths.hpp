#pragma once

/// \file paths.hpp
/// \brief Pin-to-pin routing path enumeration.
///
/// The synthesis model assigns each flow one of a precomputed set of
/// candidate paths (paper, Section 3.1: "a set of shortest paths that route
/// between each pair of flow pins"). enumerate_paths() produces, for every
/// ordered pin pair, all minimum-length simple paths (optionally with extra
/// length slack), capped per pair for model-size control. Paths never pass
/// *through* a third pin: a pin is a channel end.
///
/// The switch model a synthesis runs on — topology, candidate paths and
/// their verified symmetries — depends only on the switch size and the path
/// options, so switch_model() builds each one once per process and every
/// caller (Synthesizer, the serving layer) shares it.
///
/// A PathSet also holds one vertex bitmask per path, built with the set:
/// mask_words() 64-bit words per path (one on every crossbar, which has at
/// most 41 vertices), so a search tests two paths for a shared vertex with
/// one AND per word.

#include <cstdint>
#include <span>
#include <vector>

#include "arch/symmetry.hpp"
#include "arch/topology.hpp"

namespace mlsi::arch {

/// One routing path between two pins.
struct Path {
  int id = -1;
  int from_pin = -1;  ///< vertex id
  int to_pin = -1;    ///< vertex id
  std::vector<int> vertices;  ///< in order, from_pin first, to_pin last
  std::vector<int> segments;  ///< in order, vertices.size() - 1 entries
  double length_um = 0.0;

  /// Sorted copies for O(log) membership tests (the IQP model's
  /// uses_vertex()); the CP search tests paths against each other with
  /// PathSet::vertex_mask() instead.
  std::vector<int> vertex_set;
  std::vector<int> segment_set;

  [[nodiscard]] bool uses_vertex(int v) const;
  [[nodiscard]] bool uses_segment(int s) const;
};

struct PathEnumOptions {
  /// Extra length allowed above the pair's shortest distance (micrometres).
  /// 0 keeps exactly the shortest paths, as in the paper.
  double slack_um = 0.0;
  /// Maximum number of paths kept per ordered pin pair (shortest first,
  /// then lexicographic by vertex sequence — deterministic).
  int max_paths_per_pair = 16;
};

/// All candidate paths of a topology.
class PathSet {
 public:
  /// Indexes \p paths, builds their vertex masks and verifies the pin
  /// symmetries of (topology, paths).
  PathSet(const SwitchTopology* topo, std::vector<Path> paths);

  [[nodiscard]] const SwitchTopology& topology() const { return *topo_; }
  [[nodiscard]] int size() const { return static_cast<int>(paths_.size()); }
  [[nodiscard]] const Path& path(int id) const;
  [[nodiscard]] const std::vector<Path>& paths() const { return paths_; }

  /// Path ids for the ordered pair (from_pin, to_pin), shortest first.
  [[nodiscard]] const std::vector<int>& between(int from_pin, int to_pin) const;

  /// Words per vertex mask: ceil(num_vertices / 64).
  [[nodiscard]] int mask_words() const { return mask_words_; }
  /// Path \p id's vertex mask, mask_words() words: bit v % 64 of word v / 64
  /// is set exactly when the path visits vertex v.
  [[nodiscard]] std::span<const std::uint64_t> vertex_mask(int id) const {
    return {masks_.data() + static_cast<std::size_t>(id) *
                                static_cast<std::size_t>(mask_words_),
            static_cast<std::size_t>(mask_words_)};
  }

  /// The plane symmetries that map the topology and this path set onto
  /// themselves, verified once at construction (symmetry.hpp).
  [[nodiscard]] const PinSymmetries& pin_symmetries() const {
    return symmetries_;
  }

 private:
  const SwitchTopology* topo_;
  std::vector<Path> paths_;
  // Indexed by from_pin_index * num_pins + to_pin_index.
  std::vector<std::vector<int>> by_pair_;
  std::vector<int> empty_;
  int mask_words_ = 1;
  std::vector<std::uint64_t> masks_;  ///< mask_words_ words per path, by id
  PinSymmetries symmetries_;
};

/// Enumerates candidate paths for every ordered pin pair of \p topo.
PathSet enumerate_paths(const SwitchTopology& topo,
                        const PathEnumOptions& options = {});

/// An immutable crossbar and its candidate paths; `paths` points into
/// `topology`, so a model never moves.
struct SwitchModel {
  SwitchModel(SwitchTopology topo, const PathEnumOptions& options)
      : topology(std::move(topo)), paths(enumerate_paths(topology, options)) {}
  SwitchModel(const SwitchModel&) = delete;
  SwitchModel& operator=(const SwitchModel&) = delete;

  const SwitchTopology topology;
  const PathSet paths;
};

/// The default-geometry crossbar with \p pins_per_side pins per side and
/// its paths under \p options, built on the first call for that key and
/// shared by every later one. Models are never evicted: a validated spec
/// has one of three switch sizes, and path options come from program or
/// server options, never from a request. Thread-safe; the reference stays
/// valid for the life of the process.
[[nodiscard]] const SwitchModel& switch_model(
    int pins_per_side, const PathEnumOptions& options = {});

}  // namespace mlsi::arch
