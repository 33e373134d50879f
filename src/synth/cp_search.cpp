#include "synth/cp_search.hpp"

#include <algorithm>
#include <atomic>
#include <cstdint>
#include <exception>
#include <limits>
#include <memory>
#include <span>
#include <utility>

#include "obs/obs.hpp"
#include "support/executor.hpp"
#include "support/strings.hpp"
#include "support/timer.hpp"

namespace mlsi::synth {
namespace {

constexpr double kInf = std::numeric_limits<double>::infinity();
constexpr double kObjEps = 1e-9;
/// Safety limit on the nodes of one search state (the whole serial search,
/// or one first-pin subtree of the clockwise split); past it the search
/// stops and reports itself truncated, like an expired deadline.
constexpr long kMaxNodes = 500'000'000;
/// A clockwise solve with jobs > 1 searches first pins 1..n-1 on a pool
/// only when the first pin's subtree explored at least this many nodes.
/// Measured: the 119 clockwise specs of the perfbench serve_zipf pool
/// explore at most 1,790 nodes in their first subtree (2,629 in a whole
/// solve), so serving stays serial, while the four clockwise hard cases
/// explore 5,159 to 46,110.
constexpr long kSplitMinNodes = 4096;

/// Why the search cut what it cut, tallied per search state and summed over
/// the split's subtrees. Reported as args of the cp.done trace instant.
struct PruneTally {
  long bound = 0;     ///< placements the bound rejects
  long breaks = 0;    ///< candidate loops the early exit cuts
  long owner = 0;     ///< placements the collision rule rejects
  long conflict = 0;  ///< candidate paths the contamination rule drops

  PruneTally& operator+=(const PruneTally& o) {
    bound += o.bound;
    breaks += o.breaks;
    owner += o.owner;
    conflict += o.conflict;
    return *this;
  }
};

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
  /// Clockwise policy: searches every binding whose first module (in the
  /// cyclic order) sits on pin \p p0.
  void search_first_pin(int p0);
  /// Searches first pins 1..n-1 on \p jobs workers, each subtree from a
  /// fresh state bounded by the current incumbent, then folds the subtrees
  /// in first-pin order. The answer is the serial search's.
  void split_first_pins(int jobs);
  void enumerate_clockwise(std::vector<int>& pin_of_order, int order_pos);
  void dfs(int pos);
  /// Tries the candidate paths between pins \p sp and \p dp for the flow at
  /// \p pos, cheapest added length first. \p forbid is the union of the
  /// vertex masks of the flow's conflicting earlier flows, or null.
  void route(int pos, int flow, int sp, int dp, const std::uint64_t* forbid);
  /// Applies the placement and descends, unless it is pruned first (bound or
  /// owner clash). \p added_um is the union length \p path adds.
  void place_and_recurse(int pos, int flow, const arch::Path& path,
                         double added_um, int set);

  [[nodiscard]] double union_len_mm() const { return union_len_um_ / 1000.0; }
  [[nodiscard]] double partial_cost(int sets) const {
    return spec_.alpha * sets + spec_.beta * union_len_mm();
  }
  [[nodiscard]] bool out_of_budget() {
    if (truncated_) return true;
    if (nodes_ >= kMaxNodes || params_.deadline.expired() ||
        params_.stop.stop_requested()) {
      truncated_ = true;
    }
    return truncated_;
  }
  /// Added union length (um) if \p path were placed now.
  [[nodiscard]] double added_length_um(const arch::Path& path) const;
  /// Lower bound on every completion once the flow at \p pos is placed on a
  /// path adding \p added_um with \p sets flow sets in use. The early exit
  /// and the per-placement check both call this, so equal arguments give
  /// bit-identical bounds.
  [[nodiscard]] double placement_bound(int pos, double added_um,
                                       int sets) const {
    return spec_.alpha * sets +
           spec_.beta *
               (union_len_um_ + added_um +
                suffix_bound_um_[static_cast<std::size_t>(pos + 1)]) /
               1000.0;
  }

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

  // Per-depth buffers, sized in prepare(): the node at order position pos
  // owns slice pos of each, so a node allocates nothing.
  std::size_t max_candidates_ = 0;  ///< most candidate paths of any pin pair
  std::size_t mask_words_ = 1;      ///< PathSet::mask_words()
  std::size_t num_vertices_ = 0;
  /// (added length um, path id), kept sorted by added length.
  std::vector<std::pair<double, int>> candidates_;
  std::vector<std::uint64_t> forbid_;  ///< OR of conflicting flows' masks
  std::vector<int> owned_;             ///< vertices a placement newly claimed

  /// Pin indices the first binding may use (every pin is free then).
  std::vector<int> first_pins_;

  // Incumbent. best_obj_ is also the bound the search prunes against; a
  // split subtree starts from the first subtree's objective and no
  // incumbent.
  double best_obj_ = kInf;
  bool have_best_ = false;
  std::vector<int> best_module_pin_;
  std::vector<int> best_path_;
  std::vector<int> best_set_;
  int best_sets_used_ = 0;

  long nodes_ = 0;
  PruneTally tally_;
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

  max_candidates_ = 0;
  for (const int from : topo_.pins_clockwise()) {
    for (const int to : topo_.pins_clockwise()) {
      max_candidates_ = std::max(max_candidates_, paths_.between(from, to).size());
    }
  }
  mask_words_ = static_cast<std::size_t>(paths_.mask_words());
  num_vertices_ = static_cast<std::size_t>(topo_.num_vertices());
  candidates_.resize(flow_order_.size() * max_candidates_);
  forbid_.resize(flow_order_.size() * mask_words_);
  owned_.resize(flow_order_.size() * num_vertices_);

  // Symmetry breaking (unfixed policy): the first binding ranges over one
  // pin per orbit of the path set's verified symmetries (arch/symmetry.hpp)
  // — every solution has an image of equal objective that binds the first
  // module there. When only the identity verifies, a crossbar falls back to
  // the pins of its first side: the quarter-turn argument, which the
  // capped 12- and 16-pin path sets do not verify. cp_symmetry = false
  // searches the full binding space (the bench/cp_unfixed baseline).
  const bool reduce =
      spec_.policy == BindingPolicy::kUnfixed && params_.cp_symmetry;
  const arch::PinSymmetries& syms = paths_.pin_symmetries();
  first_pins_.clear();
  for (int p = 0; p < num_pins_; ++p) {
    const bool keep =
        !reduce || (syms.nontrivial()
                        ? syms.orbit_min(p) == p
                        : topo_.kind() != arch::TopologyKind::kCrossbar ||
                              p < num_pins_ / 4);
    if (keep) first_pins_.push_back(p);
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
    if (obs::trace_enabled()) {
      obs::trace_instant("cp.incumbent", {{"engine", json::Value{"cp"}},
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
                                 double added_um, int set) {
  // Bound check with this placement applied plus the suffix length bound.
  const int new_sets = std::max(sets_used_, set + 1);
  if (placement_bound(pos, added_um, new_sets) >= best_obj_ - kObjEps) {
    ++tally_.bound;
    return;
  }

  // Collision/scheduling rule: within a set, every vertex belongs to at
  // most one inlet module.
  const int src = spec_.flows[static_cast<std::size_t>(flow)].src_module;
  auto& owners = owner_[static_cast<std::size_t>(set)];
  for (const int v : path.vertices) {
    const int o = owners[static_cast<std::size_t>(v)];
    if (o != -1 && o != src) {
      ++tally_.owner;
      return;
    }
  }

  // Apply.
  int* owned = owned_.data() + static_cast<std::size_t>(pos) * num_vertices_;
  int num_owned = 0;  // vertices newly claimed (for undo)
  for (const int v : path.vertices) {
    if (owners[static_cast<std::size_t>(v)] == -1) {
      owners[static_cast<std::size_t>(v)] = src;
      owned[num_owned++] = v;
    }
  }
  for (const int s : path.segments) ++seg_count_[static_cast<std::size_t>(s)];
  const double saved_len = union_len_um_;
  const int saved_sets = sets_used_;
  union_len_um_ = union_len_um_ + added_um;
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
  for (int i = 0; i < num_owned; ++i) owners[static_cast<std::size_t>(owned[i])] = -1;
}

void CpSearch::route(int pos, int flow, int sp, int dp,
                     const std::uint64_t* forbid) {
  const int src_vertex = topo_.pins_clockwise()[static_cast<std::size_t>(sp)];
  const int dst_vertex = topo_.pins_clockwise()[static_cast<std::size_t>(dp)];

  // Order candidate paths by the union length they would add: the
  // greedy-first dive produces a strong early incumbent. The insertion
  // sort is stable: equal lengths keep their between() order.
  std::pair<double, int>* ordered =
      candidates_.data() + static_cast<std::size_t>(pos) * max_candidates_;
  int count = 0;
  for (const int pid : paths_.between(src_vertex, dst_vertex)) {
    if (path_used_[static_cast<std::size_t>(pid)] != 0) continue;
    // Contamination rule: conflicting reagents never share a vertex.
    if (forbid != nullptr) {
      const std::span<const std::uint64_t> mask = paths_.vertex_mask(pid);
      std::uint64_t shared = 0;
      for (std::size_t w = 0; w < mask_words_; ++w) shared |= mask[w] & forbid[w];
      if (shared != 0) {
        ++tally_.conflict;
        continue;
      }
    }
    const double added = added_length_um(paths_.path(pid));
    int at = count++;
    for (; at > 0 && ordered[at - 1].first > added; --at) {
      ordered[at] = ordered[at - 1];
    }
    ordered[at] = {added, pid};
  }

  const int set_limit = std::min(sets_used_ + 1, max_sets_);
  for (int i = 0; i < count && !truncated_; ++i) {
    const auto [added, pid] = ordered[i];
    // Early exit, exact: set 0 gives the lowest bound any set choice can
    // (placement_bound with max(sets_used_, 1) sets; a later set only adds
    // sets), and `ordered` ascends in added length. With alpha, beta >= 0
    // (ProblemSpec::validate) and IEEE +, * and / by 1000 monotone, every
    // later (path, set) pair bounds at least this high, and best_obj_ never
    // rises; so each placement skipped here would have returned at
    // place_and_recurse's bound check without entering dfs.
    if (placement_bound(pos, added, std::max(sets_used_, 1)) >=
        best_obj_ - kObjEps) {
      ++tally_.breaks;
      break;
    }
    const arch::Path& path = paths_.path(pid);
    for (int set = 0; set < set_limit && !truncated_; ++set) {
      place_and_recurse(pos, flow, path, added, set);
    }
  }
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
      best_obj_ - kObjEps) {
    return;
  }

  const int flow = flow_order_[static_cast<std::size_t>(pos)];
  const FlowSpec& fs = spec_.flows[static_cast<std::size_t>(flow)];

  // The paths of the conflicting earlier flows stay fixed below this node,
  // so their vertex masks are ORed once here.
  std::uint64_t* forbid = nullptr;
  for (const int q : conflict_prior_[static_cast<std::size_t>(pos)]) {
    const int other = chosen_path_[static_cast<std::size_t>(q)];
    if (other < 0) continue;
    if (forbid == nullptr) {
      forbid = forbid_.data() + static_cast<std::size_t>(pos) * mask_words_;
      std::fill_n(forbid, mask_words_, 0);
    }
    const std::span<const std::uint64_t> mask = paths_.vertex_mask(other);
    for (std::size_t w = 0; w < mask_words_; ++w) forbid[w] |= mask[w];
  }

  // Source pins: the bound one, else the first binding's (every pin is
  // free then), else every free pin. Destination pins: the bound one, else
  // every pin still free. Both in pin order.
  const int src_pin = module_pin_[static_cast<std::size_t>(fs.src_module)];
  const int dst_pin = module_pin_[static_cast<std::size_t>(fs.dst_module)];
  const bool first_binding = src_pin < 0 && bound_modules_ == 0;
  const int num_src = src_pin >= 0    ? 1
                      : first_binding ? static_cast<int>(first_pins_.size())
                                      : num_pins_;
  for (int i = 0; i < num_src && !truncated_; ++i) {
    const int sp = src_pin >= 0    ? src_pin
                   : first_binding ? first_pins_[static_cast<std::size_t>(i)]
                                   : i;
    if (src_pin < 0) {
      if (pin_module_[static_cast<std::size_t>(sp)] != -1) continue;
      module_pin_[static_cast<std::size_t>(fs.src_module)] = sp;
      pin_module_[static_cast<std::size_t>(sp)] = fs.src_module;
      ++bound_modules_;
    }

    const int num_dst = dst_pin >= 0 ? 1 : num_pins_;
    for (int j = 0; j < num_dst && !truncated_; ++j) {
      const int dp = dst_pin >= 0 ? dst_pin : j;
      if (dst_pin < 0) {
        if (pin_module_[static_cast<std::size_t>(dp)] != -1) continue;
        module_pin_[static_cast<std::size_t>(fs.dst_module)] = dp;
        pin_module_[static_cast<std::size_t>(dp)] = fs.dst_module;
        ++bound_modules_;
      }

      route(pos, flow, sp, dp, forbid);

      if (dst_pin < 0) {
        module_pin_[static_cast<std::size_t>(fs.dst_module)] = -1;
        pin_module_[static_cast<std::size_t>(dp)] = -1;
        --bound_modules_;
      }
    }

    if (src_pin < 0) {
      module_pin_[static_cast<std::size_t>(fs.src_module)] = -1;
      pin_module_[static_cast<std::size_t>(sp)] = -1;
      --bound_modules_;
    }
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

void CpSearch::search_first_pin(int p0) {
  std::vector<int> pin_of_order(static_cast<std::size_t>(spec_.num_modules()));
  pin_of_order[0] = p0;
  enumerate_clockwise(pin_of_order, 1);
}

void CpSearch::split_first_pins(int jobs) {
  // Every subtree starts from the same bound, so what each one explores and
  // finds does not depend on the others or on thread timing. Folding them
  // in first-pin order, where only a strictly better incumbent replaces
  // the current one, then picks exactly the solution the serial loop ends
  // on; the node count matches too whenever the first subtree already
  // holds the optimum, since the serial loop then prunes every later
  // subtree against that same bound.
  const auto slots = static_cast<std::size_t>(num_pins_);
  std::vector<std::unique_ptr<CpSearch>> subtrees(slots);
  // A throwing subtree search must not escape the pool thread; it is
  // rethrown on the calling thread, as the serial search would throw it.
  std::vector<std::exception_ptr> errors(slots);
  std::atomic<int> next_pin{1};
  {
    support::ThreadPool pool(std::min(jobs, num_pins_ - 1));
    for (int w = 0; w < pool.size(); ++w) {
      pool.submit([&] {
        for (int p0 = next_pin++; p0 < num_pins_; p0 = next_pin++) {
          const auto slot = static_cast<std::size_t>(p0);
          try {
            obs::TraceSpan span("cp.subtree",
                                [p0] { return cat("cp.subtree:", p0); });
            auto sub =
                std::make_unique<CpSearch>(topo_, paths_, spec_, params_);
            sub->prepare();
            sub->best_obj_ = best_obj_;
            sub->search_first_pin(p0);
            subtrees[slot] = std::move(sub);
          } catch (...) {
            errors[slot] = std::current_exception();
          }
        }
      });
    }
  }  // joins the workers

  for (const std::exception_ptr& error : errors) {
    if (error) std::rethrow_exception(error);
  }
  for (int p0 = 1; p0 < num_pins_; ++p0) {
    CpSearch& sub = *subtrees[static_cast<std::size_t>(p0)];
    nodes_ += sub.nodes_;
    tally_ += sub.tally_;
    truncated_ = truncated_ || sub.truncated_;
    if (sub.have_best_ && sub.best_obj_ < best_obj_ - kObjEps) {
      best_obj_ = sub.best_obj_;
      have_best_ = true;
      best_module_pin_ = std::move(sub.best_module_pin_);
      best_path_ = std::move(sub.best_path_);
      best_set_ = std::move(sub.best_set_);
      best_sets_used_ = sub.best_sets_used_;
    }
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
      search_first_pin(0);
      if (!truncated_ && nodes_ >= kSplitMinNodes) {
        const int jobs = support::ThreadPool::resolve_jobs(params_.jobs);
        if (jobs > 1) {
          split_first_pins(jobs);
          break;
        }
      }
      for (int p0 = 1; p0 < num_pins_ && !out_of_budget(); ++p0) {
        search_first_pin(p0);
      }
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
  if (out.stats.proven_optimal && obs::metrics_enabled()) {
    obs::metrics().series("search.gap").record(0.0);
  }
  if (obs::trace_enabled()) {
    obs::trace_instant("cp.done",
                       {{"proven", json::Value{out.stats.proven_optimal}},
                        {"nodes", json::Value{nodes_}},
                        {"obj", json::Value{out.objective}},
                        {"bound", json::Value{tally_.bound}},
                        {"breaks", json::Value{tally_.breaks}},
                        {"owner", json::Value{tally_.owner}},
                        {"conflict", json::Value{tally_.conflict}}});
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
