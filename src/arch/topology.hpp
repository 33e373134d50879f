#pragma once

/// \file topology.hpp
/// \brief Flow-layer netlist of a microfluidic switch.
///
/// A switch topology is an undirected graph embedded in the plane:
///  * vertices are flow *pins* (channel ends that connect to other modules),
///    *corners* (bends of the boundary ring) and routing *nodes* (the paper's
///    constrained `Nodes` set — every junction where flows can meet),
///  * segments are flow-channel edges between two vertices, each carrying a
///    candidate valve in the unreduced structure.
///
/// Geometry is metric (micrometres) so that flow-channel length L is
/// reported in millimetres like the paper's tables, and so the design-rule
/// checker can verify spacing.

#include <optional>
#include <string>
#include <string_view>
#include <vector>

#include "support/status.hpp"

namespace mlsi::arch {

/// Plane point in micrometres.
struct Point {
  double x = 0.0;
  double y = 0.0;
};

[[nodiscard]] double distance(Point a, Point b);

enum class VertexKind {
  kPin,     ///< channel end reachable by other modules
  kCorner,  ///< boundary bend; not in the constrained node set
  kNode,    ///< routing junction; member of the paper's `Nodes`
};

struct Vertex {
  int id = -1;
  VertexKind kind = VertexKind::kNode;
  std::string name;
  Point pos;
};

struct Segment {
  int id = -1;
  int a = -1;  ///< vertex id
  int b = -1;  ///< vertex id
  double length_um = 0.0;
  bool has_valve = true;  ///< the unreduced structure carries one valve/segment
  std::string name;       ///< "T1-TL" style, derived from vertex names

  /// The other endpoint of the segment.
  [[nodiscard]] int other(int v) const { return v == a ? b : a; }
  [[nodiscard]] bool touches(int v) const { return v == a || v == b; }
};

/// How the switch was constructed. Rendering and reports read it, and so
/// does the CP search: when the path set verifies only the identity
/// symmetry, a kCrossbar switch's unfixed first binding falls back to the
/// pins of its first side (the quarter-turn rule, unverified on that path
/// set), while other kinds keep every pin (CpSearch::prepare, DESIGN.md
/// "CP search symmetry breaking"). A switch built by hand with kind
/// kCrossbar but without a crossbar's rotations would get that rule too.
enum class TopologyKind { kCrossbar, kSpine, kGru };

/// \brief Immutable switch netlist with adjacency and name lookup.
class SwitchTopology {
 public:
  SwitchTopology(TopologyKind kind, std::string name, std::vector<Vertex> vertices,
                 std::vector<Segment> segments,
                 std::vector<int> pins_clockwise);

  [[nodiscard]] TopologyKind kind() const { return kind_; }
  [[nodiscard]] const std::string& name() const { return name_; }

  [[nodiscard]] int num_vertices() const {
    return static_cast<int>(vertices_.size());
  }
  [[nodiscard]] int num_segments() const {
    return static_cast<int>(segments_.size());
  }
  [[nodiscard]] int num_pins() const {
    return static_cast<int>(pins_clockwise_.size());
  }

  [[nodiscard]] const Vertex& vertex(int id) const;
  [[nodiscard]] const Segment& segment(int id) const;
  [[nodiscard]] const std::vector<Vertex>& vertices() const { return vertices_; }
  [[nodiscard]] const std::vector<Segment>& segments() const { return segments_; }

  /// Pin vertex ids in clockwise order starting at the top-left pin; this is
  /// the pin indexing the paper's clockwise binding policy uses.
  [[nodiscard]] const std::vector<int>& pins_clockwise() const {
    return pins_clockwise_;
  }
  /// Position of \p vertex_id in the clockwise pin order, or -1.
  [[nodiscard]] int pin_index(int vertex_id) const;

  /// The paper's constrained `Nodes` (kind == kNode) vertex ids.
  [[nodiscard]] const std::vector<int>& nodes() const { return nodes_; }

  /// Segments incident to \p vertex_id.
  [[nodiscard]] const std::vector<int>& incident(int vertex_id) const;

  /// Vertex/segment lookup by name; nullopt when unknown.
  [[nodiscard]] std::optional<int> vertex_by_name(std::string_view name) const;
  [[nodiscard]] std::optional<int> segment_by_name(std::string_view name) const;
  /// Segment joining two vertices, if any.
  [[nodiscard]] std::optional<int> segment_between(int va, int vb) const;

  /// Total channel length over all segments, millimetres.
  [[nodiscard]] double total_length_mm() const;

  /// Structural sanity: connected, ids consistent, pins have degree 1 within
  /// tolerance of their declared geometry. Used by tests and builders.
  [[nodiscard]] Status validate() const;

 private:
  TopologyKind kind_;
  std::string name_;
  std::vector<Vertex> vertices_;
  std::vector<Segment> segments_;
  std::vector<int> pins_clockwise_;
  std::vector<int> nodes_;
  std::vector<std::vector<int>> incident_;
};

}  // namespace mlsi::arch
