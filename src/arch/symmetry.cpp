#include "arch/symmetry.hpp"

#include <algorithm>
#include <cmath>
#include <limits>
#include <set>

#include "arch/paths.hpp"

namespace mlsi::arch {
namespace {

/// Vertex positions match within this absolute tolerance (micrometres);
/// layouts keep vertices millimetres apart, so this never aliases.
constexpr double kPosTol = 1e-3;

struct Isometry {
  // (x, y) are coordinates relative to the layout centre.
  double (*fx)(double, double);
  double (*fy)(double, double);
};

// The seven non-identity isometries of the square: rotations by 90/180/270
// degrees and reflections across the horizontal, vertical and two diagonal
// axes through the centre.
constexpr Isometry kCandidates[] = {
    {[](double, double y) { return -y; }, [](double x, double) { return x; }},
    {[](double x, double) { return -x; }, [](double, double y) { return -y; }},
    {[](double, double y) { return y; }, [](double x, double) { return -x; }},
    {[](double x, double) { return x; }, [](double, double y) { return -y; }},
    {[](double x, double) { return -x; }, [](double, double y) { return y; }},
    {[](double, double y) { return y; }, [](double x, double) { return x; }},
    {[](double, double y) { return -y; }, [](double x, double) { return -x; }},
};

/// Vertex permutation induced by \p iso, or empty when some vertex has no
/// kind-matching image at the transformed position.
std::vector<int> vertex_permutation(const SwitchTopology& topo,
                                    const Isometry& iso, double cx,
                                    double cy) {
  const auto& vertices = topo.vertices();
  std::vector<int> map(vertices.size(), -1);
  std::vector<char> taken(vertices.size(), 0);
  for (const Vertex& v : vertices) {
    const double dx = v.pos.x - cx;
    const double dy = v.pos.y - cy;
    const double tx = cx + iso.fx(dx, dy);
    const double ty = cy + iso.fy(dx, dy);
    int image = -1;
    for (const Vertex& w : vertices) {
      if (std::abs(w.pos.x - tx) <= kPosTol &&
          std::abs(w.pos.y - ty) <= kPosTol) {
        image = w.id;
        break;
      }
    }
    if (image < 0 || taken[static_cast<std::size_t>(image)] != 0 ||
        vertices[static_cast<std::size_t>(image)].kind != v.kind) {
      return {};
    }
    taken[static_cast<std::size_t>(image)] = 1;
    map[static_cast<std::size_t>(v.id)] = image;
  }
  return map;
}

/// True when every segment maps to a segment of (nearly) equal length.
bool preserves_segments(const SwitchTopology& topo,
                        const std::vector<int>& map) {
  for (const Segment& s : topo.segments()) {
    const auto image = topo.segment_between(map[static_cast<std::size_t>(s.a)],
                                            map[static_cast<std::size_t>(s.b)]);
    if (!image.has_value()) return false;
    const double other = topo.segment(*image).length_um;
    if (std::abs(other - s.length_um) >
        1e-6 * std::max(1.0, std::abs(s.length_um))) {
      return false;
    }
  }
  return true;
}

/// True when the image of every enumerated candidate path is itself an
/// enumerated candidate path (as an ordered vertex sequence).
bool preserves_paths(const std::vector<Path>& paths,
                     const std::set<std::vector<int>>& sequences,
                     const std::vector<int>& map) {
  std::vector<int> image;
  for (const Path& p : paths) {
    image.clear();
    image.reserve(p.vertices.size());
    for (const int v : p.vertices) {
      image.push_back(map[static_cast<std::size_t>(v)]);
    }
    if (sequences.find(image) == sequences.end()) return false;
  }
  return true;
}

}  // namespace

int PinSymmetries::orbit_min(int pin) const {
  int best = pin;
  for (const auto& perm : perms_) {
    best = std::min(best, perm[static_cast<std::size_t>(pin)]);
  }
  return best;
}

PinSymmetries compute_pin_symmetries(const SwitchTopology& topo,
                                     const std::vector<Path>& paths) {
  if (topo.num_vertices() == 0 || topo.num_pins() == 0) return {};

  double min_x = std::numeric_limits<double>::infinity();
  double max_x = -std::numeric_limits<double>::infinity();
  double min_y = std::numeric_limits<double>::infinity();
  double max_y = -std::numeric_limits<double>::infinity();
  for (const Vertex& v : topo.vertices()) {
    min_x = std::min(min_x, v.pos.x);
    max_x = std::max(max_x, v.pos.x);
    min_y = std::min(min_y, v.pos.y);
    max_y = std::max(max_y, v.pos.y);
  }
  const double cx = (min_x + max_x) / 2.0;
  const double cy = (min_y + max_y) / 2.0;

  std::set<std::vector<int>> sequences;
  for (const Path& p : paths) sequences.insert(p.vertices);

  std::vector<std::vector<int>> perms;
  for (const Isometry& iso : kCandidates) {
    const std::vector<int> map = vertex_permutation(topo, iso, cx, cy);
    if (map.empty()) continue;
    if (!preserves_segments(topo, map)) continue;
    if (!preserves_paths(paths, sequences, map)) continue;

    const auto& pins = topo.pins_clockwise();
    std::vector<int> perm(pins.size(), -1);
    bool ok = true;
    bool identity = true;
    for (std::size_t i = 0; i < pins.size(); ++i) {
      const int image = topo.pin_index(map[static_cast<std::size_t>(pins[i])]);
      if (image < 0) {
        ok = false;
        break;
      }
      perm[i] = image;
      identity = identity && image == static_cast<int>(i);
    }
    if (!ok || identity) continue;
    if (std::find(perms.begin(), perms.end(), perm) == perms.end()) {
      perms.push_back(std::move(perm));
    }
  }
  return PinSymmetries(std::move(perms));
}

}  // namespace mlsi::arch
