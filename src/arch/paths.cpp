#include "arch/paths.hpp"

#include <algorithm>
#include <limits>
#include <map>
#include <memory>
#include <mutex>
#include <queue>
#include <tuple>

#include "arch/crossbar.hpp"
#include "obs/trace.hpp"
#include "support/strings.hpp"

namespace mlsi::arch {
namespace {

constexpr double kInfDist = std::numeric_limits<double>::infinity();
constexpr double kEps = 1e-6;

/// Dijkstra distances toward \p target. Pins other than \p target are
/// treated as dead ends (a pin may only be a path endpoint, never interior),
/// so dist[v] is the exact shortest remaining distance of any valid path
/// suffix v -> ... -> target.
std::vector<double> distances_to(const SwitchTopology& topo, int target) {
  std::vector<double> dist(static_cast<std::size_t>(topo.num_vertices()),
                           kInfDist);
  using Item = std::pair<double, int>;
  std::priority_queue<Item, std::vector<Item>, std::greater<>> heap;
  dist[static_cast<std::size_t>(target)] = 0.0;
  heap.emplace(0.0, target);
  while (!heap.empty()) {
    const auto [d, v] = heap.top();
    heap.pop();
    if (d > dist[static_cast<std::size_t>(v)] + kEps) continue;
    if (v != target && topo.vertex(v).kind == VertexKind::kPin) {
      continue;  // cannot pass through a pin
    }
    for (const int sid : topo.incident(v)) {
      const Segment& s = topo.segment(sid);
      const int o = s.other(v);
      const double nd = d + s.length_um;
      if (nd + kEps < dist[static_cast<std::size_t>(o)]) {
        dist[static_cast<std::size_t>(o)] = nd;
        heap.emplace(nd, o);
      }
    }
  }
  return dist;
}

/// Depth-first enumeration of all simple paths source -> target with total
/// length <= limit, using dist-to-target pruning. Deterministic order.
class PathDfs {
 public:
  PathDfs(const SwitchTopology& topo, int source, int target, double limit,
          const std::vector<double>& dist_to_target)
      : topo_(topo),
        source_(source),
        target_(target),
        limit_(limit),
        dist_(dist_to_target),
        on_path_(static_cast<std::size_t>(topo.num_vertices()), 0) {}

  std::vector<Path> run() {
    vertices_.push_back(source_);
    on_path_[static_cast<std::size_t>(source_)] = 1;
    walk(source_, 0.0);
    return std::move(found_);
  }

 private:
  // A generous hard cap against pathological graphs; with zero slack a 5x5
  // grid tops out at 70 shortest paths per pair.
  static constexpr int kHardCap = 4096;

  void walk(int v, double length) {
    if (static_cast<int>(found_.size()) >= kHardCap) return;
    if (v == target_) {
      Path p;
      p.from_pin = source_;
      p.to_pin = target_;
      p.vertices = vertices_;
      p.segments = segments_;
      p.length_um = length;
      found_.push_back(std::move(p));
      return;
    }
    if (v != source_ && topo_.vertex(v).kind == VertexKind::kPin) return;
    for (const int sid : topo_.incident(v)) {  // incident ids ascend -> deterministic
      const Segment& s = topo_.segment(sid);
      const int o = s.other(v);
      if (on_path_[static_cast<std::size_t>(o)] != 0) continue;
      const double nl = length + s.length_um;
      if (nl + dist_[static_cast<std::size_t>(o)] > limit_ + kEps) continue;
      on_path_[static_cast<std::size_t>(o)] = 1;
      vertices_.push_back(o);
      segments_.push_back(sid);
      walk(o, nl);
      segments_.pop_back();
      vertices_.pop_back();
      on_path_[static_cast<std::size_t>(o)] = 0;
    }
  }

  const SwitchTopology& topo_;
  int source_;
  int target_;
  double limit_;
  const std::vector<double>& dist_;
  std::vector<char> on_path_;
  std::vector<int> vertices_;
  std::vector<int> segments_;
  std::vector<Path> found_;
};

}  // namespace

bool Path::uses_vertex(int v) const {
  return std::binary_search(vertex_set.begin(), vertex_set.end(), v);
}

bool Path::uses_segment(int s) const {
  return std::binary_search(segment_set.begin(), segment_set.end(), s);
}

PathSet::PathSet(const SwitchTopology* topo, std::vector<Path> paths)
    : topo_(topo), paths_(std::move(paths)) {
  const int n_pins = topo_->num_pins();
  by_pair_.resize(static_cast<std::size_t>(n_pins) * static_cast<std::size_t>(n_pins));
  mask_words_ = (topo_->num_vertices() + 63) / 64;
  const auto words = static_cast<std::size_t>(mask_words_);
  masks_.assign(paths_.size() * words, 0);
  for (Path& p : paths_) {
    p.id = static_cast<int>(&p - paths_.data());
    p.vertex_set = p.vertices;
    std::sort(p.vertex_set.begin(), p.vertex_set.end());
    p.segment_set = p.segments;
    std::sort(p.segment_set.begin(), p.segment_set.end());
    std::uint64_t* mask = masks_.data() + static_cast<std::size_t>(p.id) * words;
    for (const int v : p.vertices) {
      mask[static_cast<std::size_t>(v) / 64] |= std::uint64_t{1} << (v % 64);
    }
    const int fi = topo_->pin_index(p.from_pin);
    const int ti = topo_->pin_index(p.to_pin);
    MLSI_ASSERT(fi >= 0 && ti >= 0, "path endpoints must be pins");
    by_pair_[static_cast<std::size_t>(fi) * n_pins + static_cast<std::size_t>(ti)]
        .push_back(p.id);
  }
  symmetries_ = compute_pin_symmetries(*topo_, paths_);
}

const Path& PathSet::path(int id) const {
  MLSI_ASSERT(id >= 0 && id < size(), "path id out of range");
  return paths_[static_cast<std::size_t>(id)];
}

const std::vector<int>& PathSet::between(int from_pin, int to_pin) const {
  const int fi = topo_->pin_index(from_pin);
  const int ti = topo_->pin_index(to_pin);
  if (fi < 0 || ti < 0) return empty_;
  return by_pair_[static_cast<std::size_t>(fi) * topo_->num_pins() +
                  static_cast<std::size_t>(ti)];
}

PathSet enumerate_paths(const SwitchTopology& topo,
                        const PathEnumOptions& options) {
  std::vector<Path> all;
  for (const int from : topo.pins_clockwise()) {
    for (const int to : topo.pins_clockwise()) {
      if (from == to) continue;
      const auto dist = distances_to(topo, to);
      const double shortest = dist[static_cast<std::size_t>(from)];
      if (shortest == kInfDist) continue;  // unreachable (never for crossbar)
      PathDfs dfs(topo, from, to, shortest + options.slack_um, dist);
      std::vector<Path> pair_paths = dfs.run();
      std::sort(pair_paths.begin(), pair_paths.end(),
                [](const Path& a, const Path& b) {
                  if (a.length_um != b.length_um) return a.length_um < b.length_um;
                  return a.vertices < b.vertices;
                });
      if (static_cast<int>(pair_paths.size()) > options.max_paths_per_pair) {
        pair_paths.resize(static_cast<std::size_t>(options.max_paths_per_pair));
      }
      for (Path& p : pair_paths) all.push_back(std::move(p));
    }
  }
  return PathSet(&topo, std::move(all));
}

const SwitchModel& switch_model(int pins_per_side,
                                const PathEnumOptions& options) {
  using Key = std::tuple<int, double, int>;
  static std::mutex mutex;
  static std::map<Key, std::unique_ptr<const SwitchModel>> models;
  const Key key{pins_per_side, options.slack_um, options.max_paths_per_pair};
  // Held across the build, so racing first callers wait for the one build.
  const std::lock_guard<std::mutex> lock(mutex);
  auto& model = models[key];
  if (model == nullptr) {
    obs::TraceSpan span("arch.switch_model");
    model = std::make_unique<SwitchModel>(make_crossbar(pins_per_side), options);
  }
  return *model;
}

}  // namespace mlsi::arch
