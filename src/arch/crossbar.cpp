#include "arch/crossbar.hpp"

#include <vector>

#include "support/strings.hpp"

namespace mlsi::arch {
namespace {

/// Names a grid vertex. Corners get the paper's TL/TR/BR/BL; boundary
/// routing nodes get the side letter (bare letter for k = 2 to match the
/// paper: T, R, B, L; "T.2"-style for larger switches); the exact centre is
/// "C"; other interior vertices are "n<i>.<j>".
std::string grid_name(int k, int i, int j) {
  const bool top = i == 0;
  const bool bottom = i == k;
  const bool left = j == 0;
  const bool right = j == k;
  if (top && left) return "TL";
  if (top && right) return "TR";
  if (bottom && right) return "BR";
  if (bottom && left) return "BL";
  if (top) return k == 2 ? "T" : cat("T.", j);
  if (bottom) return k == 2 ? "B" : cat("B.", j);
  if (left) return k == 2 ? "L" : cat("L.", i);
  if (right) return k == 2 ? "R" : cat("R.", i);
  if (k % 2 == 0 && i == k / 2 && j == k / 2) return "C";
  return cat("n", i, ".", j);
}

}  // namespace

SwitchTopology make_crossbar(int pins_per_side, const CrossbarGeometry& geom) {
  const int k = pins_per_side;
  MLSI_ASSERT(k >= 2, "crossbar needs at least 2 pins per side");
  MLSI_ASSERT(geom.pitch_um > 0 && geom.stub_um > 0, "bad crossbar geometry");

  std::vector<Vertex> vertices;
  std::vector<Segment> segments;

  const auto pos_of = [&](int i, int j) {
    return Point{geom.margin_um + geom.stub_um + j * geom.pitch_um,
                 geom.margin_um + geom.stub_um + i * geom.pitch_um};
  };

  // Grid vertices, row-major. grid[i][j] = vertex id.
  std::vector<std::vector<int>> grid(static_cast<std::size_t>(k + 1),
                                     std::vector<int>(static_cast<std::size_t>(k + 1)));
  for (int i = 0; i <= k; ++i) {
    for (int j = 0; j <= k; ++j) {
      const bool corner = (i == 0 || i == k) && (j == 0 || j == k);
      Vertex v;
      v.id = static_cast<int>(vertices.size());
      v.kind = corner ? VertexKind::kCorner : VertexKind::kNode;
      v.name = grid_name(k, i, j);
      v.pos = pos_of(i, j);
      grid[static_cast<std::size_t>(i)][static_cast<std::size_t>(j)] = v.id;
      vertices.push_back(std::move(v));
    }
  }

  const auto add_segment = [&](int va, int vb, bool pin_first_name = false) {
    Segment s;
    s.id = static_cast<int>(segments.size());
    s.a = va;
    s.b = vb;
    s.length_um = distance(vertices[static_cast<std::size_t>(va)].pos,
                           vertices[static_cast<std::size_t>(vb)].pos);
    const auto& na = vertices[static_cast<std::size_t>(va)].name;
    const auto& nb = vertices[static_cast<std::size_t>(vb)].name;
    s.name = pin_first_name ? cat(nb, "-", na) : cat(na, "-", nb);
    segments.push_back(std::move(s));
  };

  // Grid edges: horizontal left-to-right, vertical top-to-bottom ("TL-T",
  // "T-C", "C-R" — exactly the paper's segment spellings for k = 2).
  for (int i = 0; i <= k; ++i) {
    for (int j = 0; j <= k; ++j) {
      if (j < k) add_segment(grid[i][j], grid[i][j + 1]);
      if (i < k) add_segment(grid[i][j], grid[i + 1][j]);
    }
  }

  // Pins. Names: Ti left-to-right on top, Ri top-to-bottom on the right,
  // Bi left-to-right on the bottom, Li top-to-bottom on the left. The
  // clockwise-first pin of each side attaches to the corner at the side's
  // clockwise start; the rest attach to the boundary routing nodes.
  struct PinPlan {
    std::string name;
    int attach;     ///< vertex id
    double dx, dy;  ///< outward stub direction
    bool corner;    ///< attaches to a corner (names the stub pin-first)
  };
  std::vector<PinPlan> plans;
  for (int i = 1; i <= k; ++i) {  // top: T1 -> TL, Ti -> (0, i-1)
    plans.push_back({cat("T", i), grid[0][static_cast<std::size_t>(i - 1)],
                     0.0, -1.0, i == 1});
  }
  for (int i = 1; i <= k; ++i) {  // right: R1 -> TR, Ri -> (i-1, k)
    plans.push_back({cat("R", i), grid[static_cast<std::size_t>(i - 1)][static_cast<std::size_t>(k)],
                     1.0, 0.0, i == 1});
  }
  for (int i = 1; i <= k; ++i) {  // bottom: Bk -> BR, Bi -> (k, i)
    const bool corner = i == k;
    const int attach = corner ? grid[static_cast<std::size_t>(k)][static_cast<std::size_t>(k)]
                              : grid[static_cast<std::size_t>(k)][static_cast<std::size_t>(i)];
    plans.push_back({cat("B", i), attach, 0.0, 1.0, corner});
  }
  for (int i = 1; i <= k; ++i) {  // left: Lk -> BL, Li -> (i, 0)
    const bool corner = i == k;
    const int attach = corner ? grid[static_cast<std::size_t>(k)][0]
                              : grid[static_cast<std::size_t>(i)][0];
    plans.push_back({cat("L", i), attach, -1.0, 0.0, corner});
  }

  // plans is currently T1..Tk, R1..Rk, B1..Bk, L1..Lk. Pin *names* use that
  // reading order, but the clockwise traversal around the switch is
  // T1..Tk, R1..Rk, Bk..B1, Lk..L1 (the paper's 8-pin order
  // {T1,T2,R1,R2,B2,B1,L2,L1}).
  std::vector<int> pin_ids(plans.size(), -1);
  for (std::size_t p = 0; p < plans.size(); ++p) {
    const PinPlan& plan = plans[p];
    Vertex v;
    v.id = static_cast<int>(vertices.size());
    v.kind = VertexKind::kPin;
    v.name = plan.name;
    const Point at = vertices[static_cast<std::size_t>(plan.attach)].pos;
    v.pos = Point{at.x + plan.dx * geom.stub_um, at.y + plan.dy * geom.stub_um};
    vertices.push_back(v);
    pin_ids[p] = v.id;
    // Stub naming follows the paper: corner stubs are pin-first ("T1-TL"),
    // node stubs are node-first ("T-T2").
    if (plan.corner) {
      add_segment(plan.attach, v.id, /*pin_first_name=*/true);
    } else {
      add_segment(plan.attach, v.id, /*pin_first_name=*/false);
    }
  }

  std::vector<int> clockwise;
  clockwise.reserve(plans.size());
  const auto kk = static_cast<std::size_t>(k);
  for (std::size_t i = 0; i < kk; ++i) clockwise.push_back(pin_ids[i]);            // T1..Tk
  for (std::size_t i = 0; i < kk; ++i) clockwise.push_back(pin_ids[kk + i]);       // R1..Rk
  for (std::size_t i = 0; i < kk; ++i) clockwise.push_back(pin_ids[3 * kk - 1 - i]);  // Bk..B1
  for (std::size_t i = 0; i < kk; ++i) clockwise.push_back(pin_ids[4 * kk - 1 - i]);  // Lk..L1

  SwitchTopology topo(TopologyKind::kCrossbar, cat(4 * k, "-pin crossbar"),
                      std::move(vertices), std::move(segments),
                      std::move(clockwise));
  MLSI_ASSERT(topo.validate().ok(), topo.validate().to_string());
  return topo;
}

}  // namespace mlsi::arch
