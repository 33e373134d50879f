#include "synth/cp_search.hpp"

#include <algorithm>
#include <atomic>
#include <bit>
#include <cstdint>
#include <exception>
#include <limits>
#include <memory>
#include <numeric>
#include <optional>
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
/// or one root unit of the split); past it the search stops and reports
/// itself truncated, like an expired deadline.
constexpr long kMaxNodes = 500'000'000;
/// A free-policy solve with jobs > 1 hands root units 1.. to a pool only
/// once unit 0 reaches this many nodes (with the unfixed root): at that
/// node if unit 0 holds an incumbent by then, else at unit 0's end.
/// Measured on the perfbench serve_zipf pool: its clockwise specs explore
/// at most 1,790 nodes in unit 0 (2,629 in a whole solve) and its unfixed
/// specs at most 1,531 (8,116), so serving stays serial, while every hard
/// case splits. Only unit 0 counts: a whole-solve count would start pools
/// while serving.
constexpr long kSplitMinNodes = 4096;
/// A search state reads the deadline's clock on its first node and every
/// this many nodes after (a read per node made a serial proof about 45%
/// slower); the stop token, one relaxed load, is read on every node.
constexpr long kDeadlinePollNodes = 1024;
static_assert((kDeadlinePollNodes & (kDeadlinePollNodes - 1)) == 0);

/// What a search state counted, summed over the split's units. Reported as
/// args of the cp.done trace instant.
struct Tally {
  long nodes = 0;
  /// Nodes per flow-order position; the last entry counts the leaves.
  std::vector<long> nodes_by_pos;
  long bound = 0;     ///< placements the bound rejects
  long breaks = 0;    ///< candidate loops the early exit cuts
  long owner = 0;     ///< placements the collision rule rejects
  long conflict = 0;  ///< candidate paths the contamination rule drops
  long symmetry = 0;  ///< bindings the module precedence chains skip

  Tally& operator+=(const Tally& o) {
    nodes += o.nodes;
    for (std::size_t pos = 0; pos < nodes_by_pos.size(); ++pos) {
      nodes_by_pos[pos] += o.nodes_by_pos[pos];
    }
    bound += o.bound;
    breaks += o.breaks;
    owner += o.owner;
    conflict += o.conflict;
    symmetry += o.symmetry;
    return *this;
  }
};

/// The best design a search state has found. obj is also the bound the
/// search prunes against: a handed-off root unit starts from the objective
/// unit 0 held at the handoff, with found = false.
struct Incumbent {
  double obj = kInf;
  bool found = false;
  std::vector<int> module_pin;  ///< module -> pin index or -1
  std::vector<int> path;        ///< by flow id
  std::vector<int> set;         ///< by flow id
  int sets_used = 0;
};

/// What the search of one root unit left.
struct UnitOutcome {
  Tally tally;
  bool truncated = false;
  Incumbent best;
};

/// Root units 1.. once handed off. The pool's workers and, after unit 0,
/// the calling thread take them from one counter, each unit searched from
/// the bound held at the handoff, and leave their outcomes by unit.
struct HandedOff {
  HandedOff(int units, double bound)
      : units(units),
        bound(bound),
        outcomes(static_cast<std::size_t>(units)),
        errors(static_cast<std::size_t>(units)) {}
  /// Runs when the caller unwinds too: no worker takes another unit, and
  /// the pool, declared last, joins them before the rest goes.
  ~HandedOff() { next_unit = units; }
  HandedOff(const HandedOff&) = delete;
  HandedOff& operator=(const HandedOff&) = delete;

  const int units;
  const double bound;
  std::atomic<int> next_unit{1};
  std::vector<UnitOutcome> outcomes;  ///< by unit; slot 0 is unit 0's
  /// A worker's throw, rethrown on the calling thread as the serial search
  /// would throw it.
  std::vector<std::exception_ptr> errors;
  std::optional<support::ThreadPool> pool;
};

/// True when relabeling the modules by \p perm maps the flow set and the
/// inlet-level conflict pairs (the relation the search enforces, see
/// ProblemSpec::flows_conflict) onto themselves. Such a relabeling sends
/// every solution to one of equal objective: each flow keeps its path and
/// set, and the binding moves with the labels. \p flows and
/// \p inlet_conflicts are sorted, the conflict pairs normalized min-first.
bool relabels_onto_itself(const std::vector<std::pair<int, int>>& flows,
                          const std::vector<std::pair<int, int>>& inlet_conflicts,
                          const std::vector<int>& perm) {
  const auto image = [&perm](std::vector<std::pair<int, int>> pairs,
                             bool unordered) {
    for (auto& [a, b] : pairs) {
      a = perm[static_cast<std::size_t>(a)];
      b = perm[static_cast<std::size_t>(b)];
      if (unordered && a > b) std::swap(a, b);
    }
    std::sort(pairs.begin(), pairs.end());
    return pairs;
  };
  return image(flows, false) == flows &&
         image(inlet_conflicts, true) == inlet_conflicts;
}

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
  /// Unfixed policy with cp_symmetry: fills chain_pred_ from the classes of
  /// interchangeable modules, after flow_order_ and first_pins_ are set.
  void build_precedence_chains();
  void run_fixed_binding(const std::vector<int>& module_pin_idx);
  /// Free policies: searches root units 0.. in order. With jobs > 1, once
  /// unit 0 is large, units 1.. are handed off (hand_off) and the caller
  /// joins the pool after unit 0 (finish_split).
  void search_free();
  /// The free policy's root units, the independent subtrees it splits into:
  /// the first module's pin (clockwise), or the first flow's (source,
  /// destination) pin pair, first_pins_ x the other pins (unfixed).
  [[nodiscard]] int num_units() const;
  /// Searches root unit \p u. Unfixed units share the root node, which
  /// search_free() counts once.
  void search_unit(int u);
  /// Hands root units 1.. to a pool, each unit bounded by the incumbent
  /// held now, unless EngineParams::jobs resolves to one thread. Called by
  /// the caller's state during unit 0.
  void hand_off();
  /// Searches handed-off unit \p u from a state reset to the handoff's
  /// bound, and leaves its outcome in the unit's slot.
  void search_handed_off(HandedOff& handed, int u);
  /// After unit 0: takes handed-off units until none is left, joins the
  /// pool and folds the outcomes in unit order. The answer is the serial
  /// search's.
  void finish_split();
  /// Readies a prepared state for one root unit bounded by \p bound: no
  /// counts, no incumbent. A finished or truncated search has undone its
  /// own bindings and placements, so nothing else needs resetting.
  void reset_for_unit(double bound);
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

  void bind(int module, int pin) {
    module_pin_[static_cast<std::size_t>(module)] = pin;
    pin_module_[static_cast<std::size_t>(pin)] = module;
  }
  void unbind(int module, int pin) {
    module_pin_[static_cast<std::size_t>(module)] = -1;
    pin_module_[static_cast<std::size_t>(pin)] = -1;
  }
  [[nodiscard]] double union_len_mm() const { return union_len_um_ / 1000.0; }
  [[nodiscard]] double partial_cost(int sets) const {
    return spec_.alpha * sets + spec_.beta * union_len_mm();
  }
  [[nodiscard]] bool out_of_budget() {
    if (truncated_) return true;
    if (tally_.nodes >= kMaxNodes || params_.stop.stop_requested() ||
        ((tally_.nodes & (kDeadlinePollNodes - 1)) == 1 &&
         params_.deadline.expired())) {
      truncated_ = true;
    }
    return truncated_;
  }
  /// The pin index \p m must exceed: its chain predecessor's, bound already
  /// (the chain order is the bind order), or -1 when \p m is unchained.
  [[nodiscard]] int chain_floor(int m) const {
    const int pred = chain_pred_[static_cast<std::size_t>(m)];
    return pred < 0 ? -1 : module_pin_[static_cast<std::size_t>(pred)];
  }
  /// The union of the segments placed above order position \p pos.
  [[nodiscard]] std::uint64_t* union_at(int pos) {
    return union_.data() + static_cast<std::size_t>(pos) * segment_words_;
  }
  /// Added union length (um) if path \p pid were placed on union \p used.
  [[nodiscard]] double added_length_um(int pid, const std::uint64_t* used) const;
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
  std::vector<int> chosen_path_;  ///< per order position, path id
  std::vector<int> chosen_set_;   ///< per order position
  double union_len_um_ = 0.0;
  int sets_used_ = 0;
  std::vector<std::vector<int>> owner_;  ///< [set][vertex] inlet module or -1
  std::vector<char> path_used_;

  // Per-depth buffers, sized in prepare(): the node at order position pos
  // owns slice pos of each, so a node allocates nothing.
  std::size_t max_candidates_ = 0;  ///< most candidate paths of any pin pair
  std::size_t mask_words_ = 1;      ///< PathSet::mask_words()
  std::size_t segment_words_ = 1;   ///< PathSet::segment_mask_words()
  std::size_t num_vertices_ = 0;
  /// (added length um, path id), kept sorted by added length.
  std::vector<std::pair<double, int>> candidates_;
  std::vector<std::uint64_t> forbid_;  ///< OR of conflicting flows' masks
  std::vector<int> owned_;             ///< vertices a placement newly claimed
  /// Segment union per depth: slice pos + 1 is slice pos OR the segment
  /// mask of the path placed at pos; slice 0 stays empty.
  std::vector<std::uint64_t> union_;

  /// Pin indices the first binding may use (every pin is free then).
  std::vector<int> first_pins_;
  /// Module precedence: chain_pred_[m] is the module of m's class bound
  /// just before m, whose pin index m's must exceed; -1 when unchained.
  std::vector<int> chain_pred_;

  Incumbent best_;
  Tally tally_;
  bool truncated_ = false;
  int units_ = 1;       ///< root units (1 under the fixed policy)
  int pool_units_ = 0;  ///< root units handed off (0 when serial)
  /// The node count at which unit 0 hands off if it holds an incumbent;
  /// -1 when no handoff is pending (one job, a pool state, or done).
  long split_mark_ = -1;
  /// Declared last: its destructor joins workers that read this state's
  /// references.
  std::unique_ptr<HandedOff> handed_;
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
  owner_.assign(static_cast<std::size_t>(max_sets_),
                std::vector<int>(static_cast<std::size_t>(topo_.num_vertices()), -1));
  path_used_.assign(static_cast<std::size_t>(paths_.size()), 0);

  max_candidates_ = 0;
  for (int from = 0; from < num_pins_; ++from) {
    for (int to = 0; to < num_pins_; ++to) {
      max_candidates_ =
          std::max(max_candidates_, paths_.between_indices(from, to).size());
    }
  }
  mask_words_ = static_cast<std::size_t>(paths_.mask_words());
  segment_words_ = static_cast<std::size_t>(paths_.segment_mask_words());
  num_vertices_ = static_cast<std::size_t>(topo_.num_vertices());
  candidates_.resize(flow_order_.size() * max_candidates_);
  forbid_.resize(flow_order_.size() * mask_words_);
  owned_.resize(flow_order_.size() * num_vertices_);
  union_.assign((flow_order_.size() + 1) * segment_words_, 0);
  tally_.nodes_by_pos.assign(flow_order_.size() + 1, 0);

  // Symmetry breaking (unfixed policy), two rules. The first binding ranges
  // over one pin per orbit of the path set's verified symmetries
  // (arch/symmetry.hpp) — every solution has an image of equal objective
  // that binds the first module there. When only the identity verifies, a
  // crossbar falls back to the pins of its first side: the quarter-turn
  // argument, which the capped 12- and 16-pin path sets do not verify.
  // Interchangeable modules then bind in increasing pin order
  // (build_precedence_chains). cp_symmetry = false searches the full
  // binding space (the bench/cp_unfixed baseline).
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
  chain_pred_.assign(static_cast<std::size_t>(spec_.num_modules()), -1);
  if (reduce) build_precedence_chains();
}

void CpSearch::build_precedence_chains() {
  // Two kinds of interchangeable modules: the outlets of one inlet, and
  // single-flow inlets, each taken with its outlet. A member is keyed by
  // the module dfs binds first: the outlet, or the inlet of the pair. A
  // swap of two members joins them only if it relabels the spec onto
  // itself; union-find merges the valid swaps into classes, and the
  // transpositions of a connected class generate all of its permutations.
  const int n = spec_.num_modules();
  std::vector<std::pair<int, int>> flows;
  std::vector<std::vector<int>> outlets_of(static_cast<std::size_t>(n));
  for (const FlowSpec& f : spec_.flows) {
    flows.emplace_back(f.src_module, f.dst_module);
    outlets_of[static_cast<std::size_t>(f.src_module)].push_back(f.dst_module);
  }
  std::sort(flows.begin(), flows.end());
  const std::vector<std::pair<int, int>> inlet_conflicts =
      spec_.conflicting_inlet_modules();

  std::vector<int> parent(static_cast<std::size_t>(n));
  std::iota(parent.begin(), parent.end(), 0);
  const auto find = [&parent](int m) {
    while (parent[static_cast<std::size_t>(m)] != m) {
      m = parent[static_cast<std::size_t>(m)];
    }
    return m;
  };
  std::vector<int> perm(static_cast<std::size_t>(n));
  std::iota(perm.begin(), perm.end(), 0);
  const auto flip = [&perm](int x, int y) {
    std::swap(perm[static_cast<std::size_t>(x)], perm[static_cast<std::size_t>(y)]);
  };
  // Swaps members a and b, the pair (a, b) of modules and, for (inlet,
  // outlet) members, their outlets (c, d) too.
  const auto try_swap = [&](int a, int b, int c, int d) {
    flip(a, b);
    if (c >= 0) flip(c, d);
    if (relabels_onto_itself(flows, inlet_conflicts, perm)) {
      parent[static_cast<std::size_t>(find(b))] = find(a);
    }
    flip(a, b);
    if (c >= 0) flip(c, d);
  };
  std::vector<int> singles;  // inlets with exactly one flow
  for (int m = 0; m < n; ++m) {
    const std::vector<int>& outs = outlets_of[static_cast<std::size_t>(m)];
    for (std::size_t i = 0; i < outs.size(); ++i) {
      for (std::size_t j = i + 1; j < outs.size(); ++j) {
        try_swap(outs[i], outs[j], -1, -1);
      }
    }
    if (outs.size() == 1) singles.push_back(m);
  }
  for (std::size_t i = 0; i < singles.size(); ++i) {
    for (std::size_t j = i + 1; j < singles.size(); ++j) {
      try_swap(singles[i], singles[j],
               outlets_of[static_cast<std::size_t>(singles[i])][0],
               outlets_of[static_cast<std::size_t>(singles[j])][0]);
    }
  }

  // The static order in which dfs binds modules: per flow in flow_order_,
  // its source, then its destination, each when first seen.
  std::vector<int> bind_order;
  std::vector<char> seen(static_cast<std::size_t>(n), 0);
  for (const int flow : flow_order_) {
    const FlowSpec& f = spec_.flows[static_cast<std::size_t>(flow)];
    for (const int m : {f.src_module, f.dst_module}) {
      if (seen[static_cast<std::size_t>(m)] != 0) continue;
      seen[static_cast<std::size_t>(m)] = 1;
      bind_order.push_back(m);
    }
  }

  // Condition 2: the first-bound module is the first of its chain, so
  // sorting its class can only lower its pin; that stays a first-binding
  // pin when those are downward closed in pin index. They are on every
  // built-in switch (crossbar, GRU and spine representatives, the
  // quarter-turn fallback, all pins); where they are not, the first-bound
  // module is left out of its chain and every class permutation fixes it.
  // first_pins_ ascends without repeats, so it is 0..k-1 when its last pin
  // is k-1.
  const bool downward_closed =
      first_pins_.back() + 1 == static_cast<int>(first_pins_.size());
  const int left_out = downward_closed ? -1 : bind_order.front();
  std::vector<int> class_size(static_cast<std::size_t>(n), 0);
  for (const int key : bind_order) {
    if (key != left_out) ++class_size[static_cast<std::size_t>(find(key))];
  }

  // Chain each class in bind order (condition 3 holds by construction and
  // is checked below).
  std::vector<int> last_of_class(static_cast<std::size_t>(n), -1);
  std::vector<char> in_a_class(static_cast<std::size_t>(n), 0);
  for (const int key : bind_order) {
    const int root = find(key);
    if (key == left_out || class_size[static_cast<std::size_t>(root)] < 2) {
      continue;
    }
    // Condition 1: a class permutation moves only its members' modules (the
    // key, and an inlet key's outlet), so it fixes every module outside the
    // class as long as no module belongs to two classes.
    std::vector<int> moved{key};
    if (outlets_of[static_cast<std::size_t>(key)].size() == 1) {
      moved.push_back(outlets_of[static_cast<std::size_t>(key)][0]);
    }
    for (const int m : moved) {
      MLSI_ASSERT(in_a_class[static_cast<std::size_t>(m)] == 0,
                  "module precedence: a module belongs to two classes");
      in_a_class[static_cast<std::size_t>(m)] = 1;
    }
    chain_pred_[static_cast<std::size_t>(key)] =
        last_of_class[static_cast<std::size_t>(root)];
    last_of_class[static_cast<std::size_t>(root)] = key;
  }

  // Condition 3: the chain order is the bind order, so when dfs binds a
  // chained module its predecessor's pin is already known.
  std::fill(seen.begin(), seen.end(), 0);
  for (const int m : bind_order) {
    const int pred = chain_pred_[static_cast<std::size_t>(m)];
    MLSI_ASSERT(pred < 0 || seen[static_cast<std::size_t>(pred)] != 0,
                "module precedence: a chain member binds before its predecessor");
    seen[static_cast<std::size_t>(m)] = 1;
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

double CpSearch::added_length_um(int pid, const std::uint64_t* used) const {
  // Where every length is an integer (every crossbar: 800-um grid edges,
  // 500-um stubs), each partial sum is an integer double, so this equals a
  // segment-by-segment sum to the bit, in any order.
  const std::span<const std::uint64_t> segs = paths_.segment_mask(pid);
  double add = 0.0;
  for (const arch::SegmentLengthClass& cls : paths_.length_classes()) {
    int count = 0;
    for (std::size_t w = 0; w < segment_words_; ++w) {
      count += std::popcount(segs[w] & cls.mask[w] & ~used[w]);
    }
    add += cls.length_um * count;
  }
  return add;
}

void CpSearch::record_incumbent() {
  const double obj = partial_cost(sets_used_);
  if (obj < best_.obj - kObjEps) {
    best_.obj = obj;
    best_.found = true;
    best_.module_pin = module_pin_;
    // Stored by flow id, the order run() assembles the result in.
    best_.path.assign(static_cast<std::size_t>(spec_.num_flows()), -1);
    best_.set.assign(static_cast<std::size_t>(spec_.num_flows()), -1);
    for (std::size_t pos = 0; pos < flow_order_.size(); ++pos) {
      const auto flow = static_cast<std::size_t>(flow_order_[pos]);
      best_.path[flow] = chosen_path_[pos];
      best_.set[flow] = chosen_set_[pos];
    }
    best_.sets_used = sets_used_;
    if (obs::trace_enabled()) {
      obs::trace_instant("cp.incumbent", {{"engine", json::Value{"cp"}},
                                          {"obj", json::Value{obj}},
                                          {"sets", json::Value{sets_used_}},
                                          {"nodes", json::Value{tally_.nodes}}});
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
  if (placement_bound(pos, added_um, new_sets) >= best_.obj - kObjEps) {
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
  const std::uint64_t* used = union_at(pos);
  std::uint64_t* next = union_at(pos + 1);
  const std::span<const std::uint64_t> segs = paths_.segment_mask(path.id);
  for (std::size_t w = 0; w < segment_words_; ++w) next[w] = used[w] | segs[w];
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
  for (int i = 0; i < num_owned; ++i) owners[static_cast<std::size_t>(owned[i])] = -1;
}

void CpSearch::route(int pos, int flow, int sp, int dp,
                     const std::uint64_t* forbid) {
  // Order candidate paths by the union length they would add: the
  // greedy-first dive produces a strong early incumbent. The insertion
  // sort is stable: equal lengths keep their between() order.
  std::pair<double, int>* ordered =
      candidates_.data() + static_cast<std::size_t>(pos) * max_candidates_;
  const std::uint64_t* used = union_at(pos);
  int count = 0;
  for (const int pid : paths_.between_indices(sp, dp)) {
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
    const double added = added_length_um(pid, used);
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
    // later (path, set) pair bounds at least this high, and best_.obj never
    // rises; so each placement skipped here would have returned at
    // place_and_recurse's bound check without entering dfs.
    if (placement_bound(pos, added, std::max(sets_used_, 1)) >=
        best_.obj - kObjEps) {
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
  ++tally_.nodes;
  ++tally_.nodes_by_pos[static_cast<std::size_t>(pos)];
  if (out_of_budget()) return;
  if (tally_.nodes == split_mark_ && best_.found) hand_off();
  if (pos == static_cast<int>(flow_order_.size())) {
    record_incumbent();
    return;
  }
  if (partial_cost(sets_used_) +
          spec_.beta * suffix_bound_um_[static_cast<std::size_t>(pos)] /
              1000.0 >=
      best_.obj - kObjEps) {
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

  // Source pins: the bound one, else every pin still free; the same for
  // destination pins. Both in pin order, and above the pin of the module's
  // chain predecessor, if any. (The first binding, over first_pins_ only, is
  // search_unit's: dfs runs below the unfixed root.)
  const int src_pin = module_pin_[static_cast<std::size_t>(fs.src_module)];
  const int dst_pin = module_pin_[static_cast<std::size_t>(fs.dst_module)];
  const int src_floor = src_pin < 0 ? chain_floor(fs.src_module) : -1;
  const int dst_floor = dst_pin < 0 ? chain_floor(fs.dst_module) : -1;
  const int num_src = src_pin >= 0 ? 1 : num_pins_;
  for (int i = 0; i < num_src && !truncated_; ++i) {
    const int sp = src_pin >= 0 ? src_pin : i;
    if (src_pin < 0) {
      if (pin_module_[static_cast<std::size_t>(sp)] != -1) continue;
      if (sp < src_floor) {
        ++tally_.symmetry;
        continue;
      }
      bind(fs.src_module, sp);
    }

    const int num_dst = dst_pin >= 0 ? 1 : num_pins_;
    for (int j = 0; j < num_dst && !truncated_; ++j) {
      const int dp = dst_pin >= 0 ? dst_pin : j;
      if (dst_pin < 0) {
        if (pin_module_[static_cast<std::size_t>(dp)] != -1) continue;
        if (dp < dst_floor) {
          ++tally_.symmetry;
          continue;
        }
        bind(fs.dst_module, dp);
      }

      route(pos, flow, sp, dp, forbid);

      if (dst_pin < 0) unbind(fs.dst_module, dp);
    }

    if (src_pin < 0) unbind(fs.src_module, sp);
  }
}

void CpSearch::run_fixed_binding(const std::vector<int>& module_pin_idx) {
  module_pin_ = module_pin_idx;
  std::fill(pin_module_.begin(), pin_module_.end(), -1);
  for (int m = 0; m < spec_.num_modules(); ++m) {
    const int p = module_pin_idx[static_cast<std::size_t>(m)];
    if (p >= 0) pin_module_[static_cast<std::size_t>(p)] = m;
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

int CpSearch::num_units() const {
  if (spec_.policy == BindingPolicy::kClockwise) return num_pins_;
  return static_cast<int>(first_pins_.size()) * (num_pins_ - 1);
}

void CpSearch::search_unit(int u) {
  if (spec_.policy == BindingPolicy::kClockwise) {
    // Every binding whose first module (in the cyclic order) sits on pin u.
    std::vector<int> pin_of_order(static_cast<std::size_t>(spec_.num_modules()));
    pin_of_order[0] = u;
    enumerate_clockwise(pin_of_order, 1);
    return;
  }
  // The unfixed root binds the first flow's source to a pin of first_pins_
  // and its destination to any other pin, and routes the flow; unit u is
  // one such pair, units ascending by source, then destination. Nothing is
  // bound before, and neither module has a chain floor: the first-bound
  // module heads its chain or is left out of it (condition 2), and an
  // outlet class never holds an inlet. No earlier flow conflicts, so no
  // vertex is forbidden. route() descends into dfs(1).
  const int sp = first_pins_[static_cast<std::size_t>(u / (num_pins_ - 1))];
  const int other = u % (num_pins_ - 1);
  const int dp = other < sp ? other : other + 1;
  const int flow = flow_order_[0];
  const FlowSpec& fs = spec_.flows[static_cast<std::size_t>(flow)];
  bind(fs.src_module, sp);
  bind(fs.dst_module, dp);
  route(0, flow, sp, dp, nullptr);
  unbind(fs.dst_module, dp);
  unbind(fs.src_module, sp);
}

void CpSearch::search_free() {
  units_ = num_units();
  if (units_ > 1 && params_.jobs != 1) split_mark_ = kSplitMinNodes;
  if (spec_.policy == BindingPolicy::kUnfixed) {
    // The unfixed root node is shared by its units: counted once, here. Its
    // bound test cannot cut yet (there is no incumbent), and it has no leaf:
    // a valid spec has flows.
    ++tally_.nodes;
    ++tally_.nodes_by_pos[0];
    if (out_of_budget()) return;
  }
  search_unit(0);
  // Unit 0 held no incumbent at the mark: it hands off at its end, once
  // large, with the bound it ends on.
  if (split_mark_ > 0 && !truncated_ && tally_.nodes >= kSplitMinNodes) {
    hand_off();
  }
  split_mark_ = -1;
  if (handed_ != nullptr) {
    finish_split();
    return;
  }
  for (int u = 1; u < units_ && !out_of_budget(); ++u) search_unit(u);
}

void CpSearch::reset_for_unit(double bound) {
  best_ = Incumbent{};
  best_.obj = bound;
  tally_ = Tally{};
  tally_.nodes_by_pos.assign(flow_order_.size() + 1, 0);
  truncated_ = false;
}

void CpSearch::hand_off() {
  split_mark_ = -1;
  // Resolved only here: most solves never reach the mark.
  const int jobs = support::ThreadPool::resolve_jobs(params_.jobs);
  if (jobs < 2) return;
  const int workers = std::min(jobs - 1, units_ - 1);
  handed_ = std::make_unique<HandedOff>(units_, best_.obj);
  if (obs::trace_enabled()) {
    obs::trace_instant(
        "cp.split",
        {{"nodes", json::Value{tally_.nodes}},
         {"bound", best_.found ? json::Value{best_.obj} : json::Value{nullptr}},
         {"workers", json::Value{workers}}});
  }
  HandedOff& handed = *handed_;
  handed.pool.emplace(workers);
  for (int w = 0; w < workers; ++w) {
    handed.pool->submit([this, &handed] {
      // One search state per worker, prepared on its first unit.
      std::unique_ptr<CpSearch> state;
      for (int u = handed.next_unit++; u < handed.units;
           u = handed.next_unit++) {
        try {
          if (state == nullptr) {
            state = std::make_unique<CpSearch>(topo_, paths_, spec_, params_);
            state->prepare();
          }
          state->search_handed_off(handed, u);
        } catch (...) {
          handed.errors[static_cast<std::size_t>(u)] = std::current_exception();
          state.reset();  // a search cut by a throw has not undone itself
        }
      }
    });
  }
}

void CpSearch::search_handed_off(HandedOff& handed, int u) {
  obs::TraceSpan span("cp.subtree", [u] { return cat("cp.subtree:", u); });
  reset_for_unit(handed.bound);
  search_unit(u);
  handed.outcomes[static_cast<std::size_t>(u)] = {std::move(tally_), truncated_,
                                                   std::move(best_)};
}

void CpSearch::finish_split() {
  // Every handed-off unit starts from the same bound, so what each one
  // explores and finds does not depend on the others or on thread timing.
  // That bound is at least unit 0's final one, and a unit searched from a
  // looser bound ends on the same best design whenever that design beats
  // the tighter bound. So folding the units in unit order, where only a
  // strictly better incumbent replaces the current one, picks exactly the
  // solution the serial loop ends on; the node count matches too whenever
  // the handoff's incumbent is already optimal, since the serial loop then
  // prunes every later unit against that same bound.
  HandedOff& handed = *handed_;
  handed.outcomes[0] = {std::move(tally_), truncated_, std::move(best_)};
  for (int u = handed.next_unit++; u < handed.units; u = handed.next_unit++) {
    search_handed_off(handed, u);
  }
  handed.pool.reset();  // joins the workers
  for (const std::exception_ptr& error : handed.errors) {
    if (error) std::rethrow_exception(error);
  }
  UnitOutcome& first = handed.outcomes[0];
  tally_ = std::move(first.tally);
  truncated_ = first.truncated;
  best_ = std::move(first.best);
  for (std::size_t slot = 1; slot < handed.outcomes.size(); ++slot) {
    UnitOutcome& unit = handed.outcomes[slot];
    tally_ += unit.tally;
    truncated_ = truncated_ || unit.truncated;
    if (unit.best.found && unit.best.obj < best_.obj - kObjEps) {
      best_ = std::move(unit.best);
    }
  }
  pool_units_ = units_ - 1;
  handed_.reset();
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
    case BindingPolicy::kClockwise:
    case BindingPolicy::kUnfixed: {
      if (spec_.num_modules() > num_pins_) {
        return Status::InvalidArgument("more modules than pins");
      }
      search_free();
      break;
    }
  }

  if (obs::metrics_enabled()) {
    obs::metrics().counter("cp.nodes").add(tally_.nodes);
  }

  if (!best_.found) {
    if (truncated_) {
      return Status::Timeout(
          cat("cp engine exhausted its budget after ", tally_.nodes,
              " nodes without finding a feasible solution"));
    }
    return Status::Infeasible(
        cat("no contamination-free solution for '", spec_.name, "' with ",
            to_string(spec_.policy), " binding"));
  }

  SynthesisResult out;
  out.binding.assign(static_cast<std::size_t>(spec_.num_modules()), -1);
  for (int m = 0; m < spec_.num_modules(); ++m) {
    const int p = best_.module_pin[static_cast<std::size_t>(m)];
    if (p >= 0) {
      out.binding[static_cast<std::size_t>(m)] =
          topo_.pins_clockwise()[static_cast<std::size_t>(p)];
    }
  }
  out.routed.resize(static_cast<std::size_t>(spec_.num_flows()));
  for (int flow = 0; flow < spec_.num_flows(); ++flow) {
    RoutedFlow rf;
    rf.flow = flow;
    rf.set = best_.set[static_cast<std::size_t>(flow)];
    rf.path = paths_.path(best_.path[static_cast<std::size_t>(flow)]);
    out.routed[static_cast<std::size_t>(flow)] = std::move(rf);
  }
  out.num_sets = best_.sets_used;
  out.used_segments = union_segments(out.routed);
  out.flow_length_mm = segments_length_mm(topo_, out.used_segments);
  out.objective = spec_.alpha * out.num_sets + spec_.beta * out.flow_length_mm;
  out.stats.engine = "cp";
  out.stats.runtime_s = timer.seconds();
  out.stats.nodes = tally_.nodes;
  out.stats.proven_optimal = !truncated_;
  if (out.stats.proven_optimal && obs::metrics_enabled()) {
    obs::metrics().series("search.gap").record(0.0);
  }
  if (obs::trace_enabled()) {
    json::Array nodes_by_pos;
    for (const long n : tally_.nodes_by_pos) nodes_by_pos.emplace_back(n);
    obs::trace_instant("cp.done",
                       {{"proven", json::Value{out.stats.proven_optimal}},
                        {"nodes", json::Value{tally_.nodes}},
                        {"obj", json::Value{out.objective}},
                        {"bound", json::Value{tally_.bound}},
                        {"breaks", json::Value{tally_.breaks}},
                        {"owner", json::Value{tally_.owner}},
                        {"conflict", json::Value{tally_.conflict}},
                        {"symmetry", json::Value{tally_.symmetry}},
                        {"nodes_by_pos", json::Value{std::move(nodes_by_pos)}},
                        {"units", json::Value{units_}},
                        {"pool_units", json::Value{pool_units_}}});
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
