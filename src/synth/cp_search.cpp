#include "synth/cp_search.hpp"

#include <algorithm>
#include <limits>
#include <optional>
#include <utility>

#include "obs/obs.hpp"
#include "support/log.hpp"
#include "support/timer.hpp"
#include "synth/cp_symmetry.hpp"

namespace mlsi::synth {
namespace {

constexpr double kInf = std::numeric_limits<double>::infinity();
constexpr double kObjEps = 1e-9;

class CpSearch {
 public:
  CpSearch(const arch::SwitchTopology& topo, const arch::PathSet& paths,
           const ProblemSpec& spec, const EngineParams& params)
      : topo_(topo), paths_(paths), spec_(spec), params_(params) {}

  Result<SynthesisResult> run();

 private:
  void prepare();
  /// Recomputes the flow_order_-derived tables (conflict adjacency by
  /// order position and the admissible suffix length bound).
  void rebuild_order_tables();
  void run_fixed_binding(const std::vector<int>& module_pin_idx);
  void enumerate_clockwise(std::vector<int>& pin_of_order, int order_pos);
  void dfs(int pos);
  /// Applies the placement and descends, unless it is pruned first (owner
  /// clash or bound).
  void place_and_recurse(int pos, int flow, const arch::Path& path, int set);

  [[nodiscard]] double union_len_mm() const { return union_len_um_ / 1000.0; }
  [[nodiscard]] double partial_cost(int sets) const {
    return spec_.alpha * sets + spec_.beta * union_len_mm();
  }
  [[nodiscard]] bool out_of_budget() {
    if (truncated_) return true;
    if (nodes_ >= params_.max_nodes || params_.deadline.expired() ||
        params_.stop.stop_requested()) {
      truncated_ = true;
    }
    return truncated_;
  }
  /// Objective upper bound to prune against: the local incumbent, tightened
  /// by the portfolio's shared incumbent when racing.
  [[nodiscard]] double bound_obj() const {
    double b = best_obj_;
    if (params_.shared_incumbent != nullptr) {
      b = std::min(
          b, params_.shared_incumbent->load(std::memory_order_relaxed));
    }
    return b;
  }
  /// Added union length (um) if \p path were placed now.
  [[nodiscard]] double added_length_um(const arch::Path& path) const;

  void record_incumbent();

  const arch::SwitchTopology& topo_;
  const arch::PathSet& paths_;
  const ProblemSpec& spec_;
  const EngineParams& params_;

  int num_pins_ = 0;
  int max_sets_ = 0;

  // Search order over flows and conflict adjacency (by order position),
  // fixed for the whole solve.
  std::vector<int> flow_order_;
  std::vector<std::vector<int>> conflict_prior_;
  double stub_um_ = 0.0;  ///< shortest pin stub (um), for the suffix bound
  /// Admissible lower bound (um) on union length still to be added when the
  /// flows at positions >= pos are unprocessed: every outlet pin stub is
  /// used by exactly one flow (outlets are single-access) and every inlet
  /// stub by one module's flows, so each contributes once and only after
  /// its flow/module first routes.
  std::vector<double> suffix_bound_um_;

  // Mutable search state.
  std::vector<int> module_pin_;  ///< module -> pin index or -1
  std::vector<int> pin_module_;  ///< pin index -> module or -1
  int bound_modules_ = 0;
  std::vector<int> chosen_path_;  ///< per order position, path id
  std::vector<int> chosen_set_;   ///< per order position
  std::vector<int> seg_count_;    ///< per segment, #flows using it
  double union_len_um_ = 0.0;
  int sets_used_ = 0;
  std::vector<std::vector<int>> owner_;  ///< [set][vertex] inlet module or -1
  std::vector<char> path_used_;

  // Symmetry state (unfixed policy).
  PinSymmetries syms_;
  std::optional<SymmetryBreaker> breaker_;
  bool use_lexmin_ = false;

  // Incumbent.
  double best_obj_ = kInf;
  bool have_best_ = false;
  std::vector<int> best_module_pin_;
  std::vector<int> best_path_;
  std::vector<int> best_set_;
  int best_sets_used_ = 0;

  long nodes_ = 0;
  bool truncated_ = false;
};

void CpSearch::prepare() {
  num_pins_ = topo_.num_pins();
  max_sets_ = spec_.effective_max_sets();

  // Search order: flows of conflicting inlets first (most constrained),
  // then grouped by source module so binding decisions cluster.
  std::vector<char> has_conflict(static_cast<std::size_t>(spec_.num_flows()), 0);
  for (const auto& [a, b] : spec_.conflicts) {
    has_conflict[static_cast<std::size_t>(a)] = 1;
    has_conflict[static_cast<std::size_t>(b)] = 1;
  }
  flow_order_.resize(static_cast<std::size_t>(spec_.num_flows()));
  for (int i = 0; i < spec_.num_flows(); ++i) {
    flow_order_[static_cast<std::size_t>(i)] = i;
  }
  std::stable_sort(flow_order_.begin(), flow_order_.end(), [&](int a, int b) {
    const auto ca = has_conflict[static_cast<std::size_t>(a)];
    const auto cb = has_conflict[static_cast<std::size_t>(b)];
    if (ca != cb) return ca > cb;
    return spec_.flows[static_cast<std::size_t>(a)].src_module <
           spec_.flows[static_cast<std::size_t>(b)].src_module;
  });

  // Suffix length bound: the shortest pin stub is a safe per-contribution
  // lower bound for both outlet stubs and first-use inlet stubs.
  stub_um_ = std::numeric_limits<double>::infinity();
  for (const int pin : topo_.pins_clockwise()) {
    for (const int sid : topo_.incident(pin)) {
      stub_um_ = std::min(stub_um_, topo_.segment(sid).length_um);
    }
  }
  rebuild_order_tables();

  module_pin_.assign(static_cast<std::size_t>(spec_.num_modules()), -1);
  pin_module_.assign(static_cast<std::size_t>(num_pins_), -1);
  chosen_path_.assign(flow_order_.size(), -1);
  chosen_set_.assign(flow_order_.size(), -1);
  seg_count_.assign(static_cast<std::size_t>(topo_.num_segments()), 0);
  owner_.assign(static_cast<std::size_t>(max_sets_),
                std::vector<int>(static_cast<std::size_t>(topo_.num_vertices()), -1));
  path_used_.assign(static_cast<std::size_t>(paths_.size()), 0);

  // Lex-leader symmetry breaking needs verified automorphisms and a fixed
  // module comparison order: the order modules are first bound along the
  // static flow order (sources before destinations per flow).
  if (spec_.policy == BindingPolicy::kUnfixed && params_.cp_symmetry) {
    syms_ = compute_pin_symmetries(topo_, paths_);
    if (syms_.nontrivial()) {
      std::vector<int> order;
      std::vector<char> seen(static_cast<std::size_t>(spec_.num_modules()), 0);
      auto note = [&](int m) {
        if (seen[static_cast<std::size_t>(m)] == 0) {
          seen[static_cast<std::size_t>(m)] = 1;
          order.push_back(m);
        }
      };
      for (const int flow : flow_order_) {
        note(spec_.flows[static_cast<std::size_t>(flow)].src_module);
        note(spec_.flows[static_cast<std::size_t>(flow)].dst_module);
      }
      for (int m = 0; m < spec_.num_modules(); ++m) note(m);
      breaker_.emplace(&syms_, std::move(order));
      use_lexmin_ = true;
    }
  }
}

void CpSearch::rebuild_order_tables() {
  conflict_prior_.assign(flow_order_.size(), {});
  for (std::size_t p = 0; p < flow_order_.size(); ++p) {
    for (std::size_t q = 0; q < p; ++q) {
      if (spec_.flows_conflict(flow_order_[p], flow_order_[q])) {
        conflict_prior_[p].push_back(static_cast<int>(q));
      }
    }
  }

  std::vector<int> first_pos(static_cast<std::size_t>(spec_.num_modules()),
                             -1);
  for (int pos = static_cast<int>(flow_order_.size()) - 1; pos >= 0; --pos) {
    const int src =
        spec_.flows[static_cast<std::size_t>(flow_order_[static_cast<std::size_t>(pos)])]
            .src_module;
    first_pos[static_cast<std::size_t>(src)] = pos;
  }
  suffix_bound_um_.assign(flow_order_.size() + 1, 0.0);
  for (int pos = static_cast<int>(flow_order_.size()) - 1; pos >= 0; --pos) {
    double here = stub_um_;  // this flow's outlet stub
    const int src =
        spec_.flows[static_cast<std::size_t>(flow_order_[static_cast<std::size_t>(pos)])]
            .src_module;
    if (first_pos[static_cast<std::size_t>(src)] == pos) {
      here += stub_um_;  // first flow of this inlet also adds the inlet stub
    }
    suffix_bound_um_[static_cast<std::size_t>(pos)] =
        suffix_bound_um_[static_cast<std::size_t>(pos + 1)] + here;
  }
}

double CpSearch::added_length_um(const arch::Path& path) const {
  double add = 0.0;
  for (const int s : path.segments) {
    if (seg_count_[static_cast<std::size_t>(s)] == 0) {
      add += topo_.segment(s).length_um;
    }
  }
  return add;
}

void CpSearch::record_incumbent() {
  const double obj = partial_cost(sets_used_);
  if (params_.shared_incumbent != nullptr) {
    // Atomic-min publish so sibling racers prune against this incumbent.
    auto& shared = *params_.shared_incumbent;
    double cur = shared.load(std::memory_order_relaxed);
    while (obj < cur && !shared.compare_exchange_weak(
                            cur, obj, std::memory_order_relaxed)) {
    }
  }
  if (obj < best_obj_ - kObjEps) {
    best_obj_ = obj;
    have_best_ = true;
    best_module_pin_ = module_pin_;
    // Stored by flow id, the order run() assembles the result in.
    best_path_.assign(static_cast<std::size_t>(spec_.num_flows()), -1);
    best_set_.assign(static_cast<std::size_t>(spec_.num_flows()), -1);
    for (std::size_t pos = 0; pos < flow_order_.size(); ++pos) {
      const auto flow = static_cast<std::size_t>(flow_order_[pos]);
      best_path_[flow] = chosen_path_[pos];
      best_set_[flow] = chosen_set_[pos];
    }
    best_sets_used_ = sets_used_;
    if (params_.log) {
      log_info("cp: incumbent obj=", obj, " sets=", sets_used_,
               " L=", union_len_mm(), "mm after ", nodes_, " nodes");
    }
    if (obs::search_log_enabled()) {
      obs::search_event("incumbent",
                        {{"engine", json::Value{"cp"}},
                         {"obj", json::Value{obj}},
                         {"sets", json::Value{sets_used_}},
                         {"nodes", json::Value{nodes_}}});
    }
    if (obs::metrics_enabled()) {
      obs::metrics().counter("cp.incumbents").add();
      obs::metrics().series("search.incumbent").record(obj);
    }
  }
}

void CpSearch::place_and_recurse(int pos, int flow, const arch::Path& path,
                                 int set) {
  // Collision/scheduling rule: within a set, every vertex belongs to at
  // most one inlet module.
  const int src = spec_.flows[static_cast<std::size_t>(flow)].src_module;
  auto& owners = owner_[static_cast<std::size_t>(set)];
  for (const int v : path.vertices) {
    const int o = owners[static_cast<std::size_t>(v)];
    if (o != -1 && o != src) return;
  }

  // Bound check with this placement applied plus the suffix length bound.
  const double new_len_um = union_len_um_ + added_length_um(path);
  const int new_sets = std::max(sets_used_, set + 1);
  const double lb =
      spec_.alpha * new_sets +
      spec_.beta *
          (new_len_um + suffix_bound_um_[static_cast<std::size_t>(pos + 1)]) /
          1000.0;
  if (lb >= bound_obj() - kObjEps) return;

  // Apply.
  std::vector<int> owned;  // vertices newly claimed (for undo)
  for (const int v : path.vertices) {
    if (owners[static_cast<std::size_t>(v)] == -1) {
      owners[static_cast<std::size_t>(v)] = src;
      owned.push_back(v);
    }
  }
  for (const int s : path.segments) ++seg_count_[static_cast<std::size_t>(s)];
  const double saved_len = union_len_um_;
  const int saved_sets = sets_used_;
  union_len_um_ = new_len_um;
  sets_used_ = new_sets;
  path_used_[static_cast<std::size_t>(path.id)] = 1;
  chosen_path_[static_cast<std::size_t>(pos)] = path.id;
  chosen_set_[static_cast<std::size_t>(pos)] = set;

  dfs(pos + 1);

  // Undo.
  chosen_path_[static_cast<std::size_t>(pos)] = -1;
  chosen_set_[static_cast<std::size_t>(pos)] = -1;
  path_used_[static_cast<std::size_t>(path.id)] = 0;
  union_len_um_ = saved_len;
  sets_used_ = saved_sets;
  for (const int s : path.segments) --seg_count_[static_cast<std::size_t>(s)];
  for (const int v : owned) owners[static_cast<std::size_t>(v)] = -1;
}

void CpSearch::dfs(int pos) {
  ++nodes_;
  if (out_of_budget()) return;
  if (pos == static_cast<int>(flow_order_.size())) {
    record_incumbent();
    return;
  }
  if (partial_cost(sets_used_) +
          spec_.beta * suffix_bound_um_[static_cast<std::size_t>(pos)] /
              1000.0 >=
      bound_obj() - kObjEps) {
    return;
  }

  const int flow = flow_order_[static_cast<std::size_t>(pos)];
  const FlowSpec& fs = spec_.flows[static_cast<std::size_t>(flow)];

  // Candidate source pins.
  std::vector<int> src_pins;
  const bool src_bound = module_pin_[static_cast<std::size_t>(fs.src_module)] >= 0;
  if (src_bound) {
    src_pins.push_back(module_pin_[static_cast<std::size_t>(fs.src_module)]);
  } else if (use_lexmin_) {
    // Lex-leader symmetry breaking: only bindings that stay lex-minimal in
    // their orbit under the verified automorphisms (cp_symmetry.hpp).
    for (int p = 0; p < num_pins_; ++p) {
      if (pin_module_[static_cast<std::size_t>(p)] == -1 &&
          breaker_->admits(module_pin_, fs.src_module, p)) {
        src_pins.push_back(p);
      }
    }
  } else {
    // Quarter-turn symmetry (the seed's ad-hoc rule, the primitive form of
    // the verified lex-leader machinery above): the very first binding
    // decision of an unfixed search only needs one side of the
    // (rotation-symmetric) crossbar. cp_symmetry=false disables binding
    // symmetry breaking entirely — the ablation baseline of
    // bench/cp_unfixed.
    const int limit = (bound_modules_ == 0 && params_.cp_symmetry &&
                       topo_.kind() == arch::TopologyKind::kCrossbar)
                          ? num_pins_ / 4
                          : num_pins_;
    for (int p = 0; p < limit; ++p) {
      if (pin_module_[static_cast<std::size_t>(p)] == -1) src_pins.push_back(p);
    }
  }

  for (const int sp : src_pins) {
    if (!src_bound) {
      module_pin_[static_cast<std::size_t>(fs.src_module)] = sp;
      pin_module_[static_cast<std::size_t>(sp)] = fs.src_module;
      ++bound_modules_;
    }

    std::vector<int> dst_pins;
    const bool dst_bound =
        module_pin_[static_cast<std::size_t>(fs.dst_module)] >= 0;
    if (dst_bound) {
      dst_pins.push_back(module_pin_[static_cast<std::size_t>(fs.dst_module)]);
    } else {
      for (int p = 0; p < num_pins_; ++p) {
        if (pin_module_[static_cast<std::size_t>(p)] != -1) continue;
        if (use_lexmin_ &&
            !breaker_->admits(module_pin_, fs.dst_module, p)) {
          continue;
        }
        dst_pins.push_back(p);
      }
    }

    for (const int dp : dst_pins) {
      if (!dst_bound) {
        module_pin_[static_cast<std::size_t>(fs.dst_module)] = dp;
        pin_module_[static_cast<std::size_t>(dp)] = fs.dst_module;
        ++bound_modules_;
      }

      const int src_vertex = topo_.pins_clockwise()[static_cast<std::size_t>(sp)];
      const int dst_vertex = topo_.pins_clockwise()[static_cast<std::size_t>(dp)];
      const auto& candidates = paths_.between(src_vertex, dst_vertex);

      // Order candidate paths by the union length they would add: the
      // greedy-first dive produces a strong early incumbent.
      std::vector<std::pair<double, int>> ordered;
      ordered.reserve(candidates.size());
      for (const int pid : candidates) {
        if (path_used_[static_cast<std::size_t>(pid)] != 0) continue;
        const arch::Path& path = paths_.path(pid);
        // Contamination rule: conflicting reagents never share a vertex.
        bool clash = false;
        for (const int q : conflict_prior_[static_cast<std::size_t>(pos)]) {
          const int other = chosen_path_[static_cast<std::size_t>(q)];
          if (other < 0) continue;
          const arch::Path& op = paths_.path(other);
          const auto& a = path.vertex_set;
          const auto& b = op.vertex_set;
          for (std::size_t i = 0, j = 0; i < a.size() && j < b.size();) {
            if (a[i] == b[j]) {
              clash = true;
              break;
            }
            if (a[i] < b[j]) {
              ++i;
            } else {
              ++j;
            }
          }
          if (clash) break;
        }
        if (clash) continue;
        ordered.emplace_back(added_length_um(path), pid);
      }
      std::stable_sort(ordered.begin(), ordered.end(),
                       [](const auto& a, const auto& b) { return a.first < b.first; });

      for (const auto& [added, pid] : ordered) {
        (void)added;
        const arch::Path& path = paths_.path(pid);
        const int set_limit = std::min(sets_used_ + 1, max_sets_);
        for (int set = 0; set < set_limit; ++set) {
          place_and_recurse(pos, flow, path, set);
          if (truncated_) break;
        }
        if (truncated_) break;
      }

      if (!dst_bound) {
        module_pin_[static_cast<std::size_t>(fs.dst_module)] = -1;
        pin_module_[static_cast<std::size_t>(dp)] = -1;
        --bound_modules_;
      }
      if (truncated_) break;
    }

    if (!src_bound) {
      module_pin_[static_cast<std::size_t>(fs.src_module)] = -1;
      pin_module_[static_cast<std::size_t>(sp)] = -1;
      --bound_modules_;
    }
    if (truncated_) break;
  }
}

void CpSearch::run_fixed_binding(const std::vector<int>& module_pin_idx) {
  module_pin_ = module_pin_idx;
  std::fill(pin_module_.begin(), pin_module_.end(), -1);
  bound_modules_ = 0;
  for (int m = 0; m < spec_.num_modules(); ++m) {
    const int p = module_pin_idx[static_cast<std::size_t>(m)];
    if (p >= 0) {
      pin_module_[static_cast<std::size_t>(p)] = m;
      ++bound_modules_;
    }
  }
  dfs(0);
}

void CpSearch::enumerate_clockwise(std::vector<int>& pin_of_order,
                                   int order_pos) {
  if (out_of_budget()) return;
  const int m_count = spec_.num_modules();
  if (order_pos == m_count) {
    std::vector<int> module_pin(static_cast<std::size_t>(m_count), -1);
    for (int i = 0; i < m_count; ++i) {
      module_pin[static_cast<std::size_t>(
          spec_.clockwise_order[static_cast<std::size_t>(i)])] =
          pin_of_order[static_cast<std::size_t>(i)] % num_pins_;
    }
    run_fixed_binding(module_pin);
    return;
  }
  if (order_pos == 0) {
    // The portfolio partitions this outer loop: worker w of W takes the
    // first-pin residue class p0 % W == w. (1, 0) covers the whole space.
    const int stride = std::max(1, params_.clockwise_stride);
    for (int p0 = params_.clockwise_offset; p0 < num_pins_; p0 += stride) {
      pin_of_order[0] = p0;
      enumerate_clockwise(pin_of_order, 1);
      if (out_of_budget()) return;
    }
    return;
  }
  // Remaining modules take strictly increasing clockwise offsets from the
  // first module's pin; enough positions must remain for those after us.
  const int first = pin_of_order[0];
  const int prev = pin_of_order[static_cast<std::size_t>(order_pos - 1)];
  const int remaining_after = m_count - order_pos - 1;
  for (int p = prev + 1; p <= first + num_pins_ - 1 - remaining_after; ++p) {
    pin_of_order[static_cast<std::size_t>(order_pos)] = p;
    enumerate_clockwise(pin_of_order, order_pos + 1);
    if (out_of_budget()) return;
  }
}

Result<SynthesisResult> CpSearch::run() {
  obs::TraceSpan span("cp.solve");
  Timer timer;
  prepare();

  switch (spec_.policy) {
    case BindingPolicy::kFixed: {
      std::vector<int> module_pin(static_cast<std::size_t>(spec_.num_modules()), -1);
      for (const ModulePin& mp : spec_.fixed_binding) {
        if (mp.pin_index >= num_pins_) {
          return Status::InvalidArgument(
              cat("fixed binding pin index ", mp.pin_index,
                  " exceeds the switch's ", num_pins_, " pins"));
        }
        module_pin[static_cast<std::size_t>(mp.module)] = mp.pin_index;
      }
      run_fixed_binding(module_pin);
      break;
    }
    case BindingPolicy::kClockwise: {
      if (spec_.num_modules() > num_pins_) {
        return Status::InvalidArgument("more modules than pins");
      }
      std::vector<int> pin_of_order(static_cast<std::size_t>(spec_.num_modules()));
      enumerate_clockwise(pin_of_order, 0);
      break;
    }
    case BindingPolicy::kUnfixed: {
      if (spec_.num_modules() > num_pins_) {
        return Status::InvalidArgument("more modules than pins");
      }
      dfs(0);
      break;
    }
  }

  if (obs::metrics_enabled()) {
    obs::metrics().counter("cp.nodes").add(nodes_);
  }

  if (!have_best_) {
    if (truncated_) {
      return Status::Timeout(
          cat("cp engine exhausted its budget after ", nodes_,
              " nodes without finding a feasible solution"));
    }
    return Status::Infeasible(
        cat("no contamination-free solution for '", spec_.name, "' with ",
            to_string(spec_.policy), " binding"));
  }

  SynthesisResult out;
  out.binding.assign(static_cast<std::size_t>(spec_.num_modules()), -1);
  for (int m = 0; m < spec_.num_modules(); ++m) {
    const int p = best_module_pin_[static_cast<std::size_t>(m)];
    if (p >= 0) {
      out.binding[static_cast<std::size_t>(m)] =
          topo_.pins_clockwise()[static_cast<std::size_t>(p)];
    }
  }
  out.routed.resize(static_cast<std::size_t>(spec_.num_flows()));
  for (int flow = 0; flow < spec_.num_flows(); ++flow) {
    RoutedFlow rf;
    rf.flow = flow;
    rf.set = best_set_[static_cast<std::size_t>(flow)];
    rf.path = paths_.path(best_path_[static_cast<std::size_t>(flow)]);
    out.routed[static_cast<std::size_t>(flow)] = std::move(rf);
  }
  out.num_sets = best_sets_used_;
  out.used_segments = union_segments(out.routed);
  out.flow_length_mm = segments_length_mm(topo_, out.used_segments);
  out.objective = spec_.alpha * out.num_sets + spec_.beta * out.flow_length_mm;
  out.stats.engine = "cp";
  out.stats.runtime_s = timer.seconds();
  out.stats.nodes = nodes_;
  out.stats.proven_optimal = !truncated_;
  if (obs::metrics_enabled()) {
    // A lone full-space search proves globally on exhaustion. A partition
    // racer (stride > 1) or a racer pruning against a shared incumbent
    // proves only its residue class — the portfolio records the combined
    // proof instead.
    const bool partitioned = spec_.policy == BindingPolicy::kClockwise &&
                             std::max(1, params_.clockwise_stride) > 1;
    if (out.stats.proven_optimal && !partitioned &&
        params_.shared_incumbent == nullptr) {
      obs::metrics().series("search.gap").record(0.0);
    }
  }
  if (obs::search_log_enabled()) {
    obs::search_event("cp_done",
                      {{"proven", json::Value{out.stats.proven_optimal}},
                       {"nodes", json::Value{nodes_}},
                       {"obj", json::Value{out.objective}}});
  }
  return out;
}

}  // namespace

Result<SynthesisResult> run_cp_search(const arch::SwitchTopology& topo,
                                      const arch::PathSet& paths,
                                      const ProblemSpec& spec,
                                      const EngineParams& params) {
  CpSearch search(topo, paths, spec, params);
  return search.run();
}

}  // namespace mlsi::synth
