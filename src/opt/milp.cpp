#include "opt/milp.hpp"

#include <algorithm>
#include <atomic>
#include <cmath>
#include <deque>
#include <limits>
#include <mutex>
#include <utility>

#include "obs/obs.hpp"
#include "opt/cuts.hpp"
#include "opt/presolve.hpp"
#include "support/executor.hpp"
#include "support/log.hpp"
#include "support/status.hpp"

namespace mlsi::opt {

std::string_view to_string(MilpStatus status) {
  switch (status) {
    case MilpStatus::kOptimal: return "optimal";
    case MilpStatus::kFeasible: return "feasible";
    case MilpStatus::kInfeasible: return "infeasible";
    case MilpStatus::kUnknown: return "unknown";
  }
  return "?";
}

double Solution::value(Var v) const {
  if (!has_solution() || !v.valid() ||
      static_cast<std::size_t>(v.id) >= values.size()) {
    return 0.0;
  }
  return values[static_cast<std::size_t>(v.id)];
}

int Solution::value_int(Var v) const {
  return static_cast<int>(std::lround(value(v)));
}

namespace {

constexpr double kInf = std::numeric_limits<double>::infinity();
/// Safety limit on branch & bound nodes per solve; reaching it truncates
/// the search like a deadline.
constexpr long kMaxNodes = 50'000'000;
/// Values within this of an integer count as integral.
constexpr double kIntTol = 1e-6;
/// Nodes whose LP bound is within this of the incumbent are pruned. It
/// stays below the smallest possible objective difference for exact
/// optimality (the synthesis objectives are integer-valued scaled sums).
constexpr double kAbsGap = 1e-6;

/// Adds the LP counters solve_lp_on accumulates from \p from into \p into.
void add_lp_counters(SolveStats& into, const SolveStats& from) {
  into.lp_iterations += from.lp_iterations;
  into.lp_dual_iterations += from.lp_dual_iterations;
  into.lp_factorizations += from.lp_factorizations;
  into.warm_starts += from.warm_starts;
  into.cold_starts += from.cold_starts;
}

/// Branch & bound search state over a linearized model.
///
/// Concurrency contract (the jobs > 1 path): `model_` and `lp_` are frozen
/// before workers start; every worker owns a Searcher with a private
/// LpProblem copy whose bounds it mutates freely. Shared state is exactly
/// the incumbent (atomic objective for pruning, mutex-guarded vector for
/// publication), the global node counter, and the truncated flag.
class BranchAndBound {
 public:
  BranchAndBound(Model model, const MilpParams& params, int original_vars)
      : model_(std::move(model)),
        params_(params),
        original_vars_(original_vars) {
    build_lp();
  }

  Solution run();

 private:
  /// One frontier entry: a subproblem's structural bounds plus the basis of
  /// its parent's LP relaxation. The basis is a value (not a pointer): the
  /// subtree handoff transfers ownership, so the child's dual warm start
  /// never depends on the parent's stack frame being alive.
  struct Node {
    std::vector<double> lb, ub;
    LpBasis basis;
    int depth = 0;
  };

  /// Per-worker DFS searcher over a private copy of the root LP.
  class Searcher {
   public:
    explicit Searcher(BranchAndBound* owner) : owner_(owner), lp_(owner->lp_) {}

    /// Explores the subtree rooted at \p node. When \p spill is null the
    /// subtree is exhausted recursively (DFS); otherwise the node is
    /// evaluated once and its children are pushed onto \p spill (the BFS
    /// frontier-expansion step). Returns false when a global limit tripped.
    bool run_node(const Node& node, std::deque<Node>* spill);

    SolveStats local;  ///< LP stats merged into the owner after the drain

   private:
    bool explore(const LpBasis* parent_basis, int depth,
                 std::deque<Node>* spill);

    BranchAndBound* owner_;
    LpProblem lp_;  // private copy; bounds mutated in place during the dive
  };

  void build_lp();
  /// Solves \p lp, accumulating LP stats into \p into (caller owns the
  /// race: workers pass their Searcher-local stats).
  LpResult solve_lp_on(const LpProblem& lp, const LpBasis* warm_basis,
                       SolveStats& into) const;
  /// Root relaxation + Gomory cut rounds. Returns the final root LpResult;
  /// `lp_` has every applied cut row appended.
  LpResult solve_root();
  /// Branching variable; -1 when the LP point is integral. Tie-break order
  /// (deterministic): highest branch_priority class first, then the most
  /// fractional value (beyond kBranchTieTol), then the lowest variable
  /// index (implicit in the ascending scan keeping the first best).
  int pick_branch_var(const std::vector<double>& x) const;
  /// Thread-safe incumbent publication: verify against the full model,
  /// then take the incumbent mutex and improve the atomic bound.
  void offer_incumbent(const std::vector<double>& x, double objective_min);
  /// Pushes the (up to two) children of a branching decision, nearest
  /// integer first so FIFO draining preserves the serial dive order.
  void push_children(std::deque<Node>& frontier, const std::vector<double>& lb,
                     const std::vector<double>& ub, const LpResult& lp, int j,
                     int depth) const;
  /// Relative incumbent-vs-root-bound gap in [0, inf); 0 when proven.
  [[nodiscard]] double current_gap() const;
  void record_gap_series() const;
  void finalize(Solution& out, const Timer& timer);

  Model model_;  // read-only once the search starts (workers share it)
  const MilpParams& params_;
  int original_vars_;
  int jobs_ = 1;

  LpProblem lp_;           // root LP incl. cut rows (template for searchers)
  double obj_sign_ = 1.0;  // +1 minimize, -1 maximize (LP always minimizes)

  std::atomic<bool> truncated_{false};
  std::atomic<long> node_count_{0};
  std::atomic<double> best_obj_min_{kInf};  // minimize convention
  std::atomic<bool> have_incumbent_{false};
  std::mutex incumbent_mutex_;  // guards best_x_
  std::vector<double> best_x_;
  bool have_root_bound_ = false;

  SolveStats stats_;        // root solve + merged worker stats
  std::mutex stats_mutex_;  // guards merges after the parallel drain
};

void BranchAndBound::build_lp() {
  MLSI_ASSERT(model_.is_linear(), "build_lp requires a linearized model");
  const int n = model_.num_vars();
  lp_.num_vars = n;
  lp_.lb.resize(static_cast<std::size_t>(n));
  lp_.ub.resize(static_cast<std::size_t>(n));
  lp_.cost.assign(static_cast<std::size_t>(n), 0.0);
  for (int j = 0; j < n; ++j) {
    const VarInfo& v = model_.var(Var{j});
    // Integer bounds can be tightened to the enclosed integer range.
    double lb = v.lb;
    double ub = v.ub;
    if (v.is_integral()) {
      lb = std::ceil(lb - 1e-9);
      ub = std::floor(ub + 1e-9);
    }
    lp_.lb[static_cast<std::size_t>(j)] = lb;
    lp_.ub[static_cast<std::size_t>(j)] = ub;
  }

  obj_sign_ = model_.minimize() ? 1.0 : -1.0;
  LinExpr obj = model_.objective().lin();
  obj.compress();
  lp_.cost_constant = obj_sign_ * obj.constant();
  for (const auto& [id, c] : obj.terms()) {
    lp_.cost[static_cast<std::size_t>(id)] = obj_sign_ * c;
  }

  lp_.rows.reserve(model_.constraints().size());
  for (const Constraint& c : model_.constraints()) {
    LinExpr e = c.expr.lin();
    e.compress();
    LpRow row;
    row.terms = e.terms();
    row.lo = c.lo - e.constant();
    row.hi = c.hi - e.constant();
    lp_.rows.push_back(std::move(row));
  }
}

LpResult BranchAndBound::solve_lp_on(const LpProblem& lp,
                                     const LpBasis* warm_basis,
                                     SolveStats& into) const {
  LpParams lp_params = params_.lp;
  lp_params.deadline = params_.deadline;
  lp_params.stop = params_.stop;
  lp_params.warm_basis = warm_basis;
  LpResult res = solve_lp(lp, lp_params);
  into.lp_iterations += res.iterations;
  into.lp_dual_iterations += res.dual_iterations;
  into.lp_factorizations += res.factorizations;
  if (res.used_warm_start) {
    ++into.warm_starts;
  } else {
    ++into.cold_starts;
  }
  return res;
}

int BranchAndBound::pick_branch_var(const std::vector<double>& x) const {
  // Fractionality differences below this are ties: two candidates this
  // close are equally attractive, and the lower index must win so the
  // search tree does not depend on floating-point noise in the relaxation.
  constexpr double kBranchTieTol = 1e-9;
  int best = -1;
  int best_priority = std::numeric_limits<int>::min();
  double best_frac_dist = kIntTol;
  for (int j = 0; j < model_.num_vars(); ++j) {
    const VarInfo& info = model_.var(Var{j});
    if (!info.is_integral()) continue;
    const double v = x[static_cast<std::size_t>(j)];
    const double frac = v - std::floor(v);
    const double dist = std::min(frac, 1.0 - frac);  // distance to integer
    if (dist <= kIntTol) continue;
    // 1. highest branch_priority class; 2. most fractional (strictly, by
    // more than kBranchTieTol); 3. lowest index — the ascending scan keeps
    // the incumbent candidate on ties.
    if (best < 0 || info.branch_priority > best_priority ||
        (info.branch_priority == best_priority &&
         dist > best_frac_dist + kBranchTieTol)) {
      best_priority = info.branch_priority;
      best_frac_dist = dist;
      best = j;
    }
  }
  return best;
}

void BranchAndBound::offer_incumbent(const std::vector<double>& x,
                                     double objective_min) {
  // Cheap monotone reject without the lock (the bound only ever decreases).
  if (objective_min >= best_obj_min_.load(std::memory_order_relaxed)) return;
  // Round integral vars exactly and re-verify against the full model: a
  // drifting LP must never smuggle in an infeasible incumbent. The model is
  // read-only here, so verification runs outside the lock.
  std::vector<double> rounded = x;
  for (int j = 0; j < model_.num_vars(); ++j) {
    if (model_.var(Var{j}).is_integral()) {
      rounded[static_cast<std::size_t>(j)] =
          std::nearbyint(rounded[static_cast<std::size_t>(j)]);
    }
  }
  if (!model_.is_feasible(rounded, 1e-5)) {
    log_warn("milp: rejected a numerically infeasible incumbent");
    return;
  }
  {
    std::lock_guard<std::mutex> lock(incumbent_mutex_);
    // Re-check under the lock: another worker may have published a better
    // incumbent since the relaxed probe above.
    if (objective_min >= best_obj_min_.load(std::memory_order_relaxed)) {
      return;
    }
    best_obj_min_.store(objective_min, std::memory_order_relaxed);
    best_x_ = std::move(rounded);
    have_incumbent_.store(true, std::memory_order_relaxed);
  }
  if (obs::trace_enabled()) {
    obs::trace_instant(
        "milp.incumbent",
        {{"engine", json::Value{"milp"}},
         {"obj", json::Value{obj_sign_ * objective_min}},
         {"nodes",
          json::Value{node_count_.load(std::memory_order_relaxed)}},
         {"gap", json::Value{current_gap()}}});
  }
  if (obs::metrics_enabled()) {
    obs::metrics().counter("milp.incumbents").add();
    obs::metrics().series("search.incumbent").record(obj_sign_ * objective_min);
    record_gap_series();
  }
}

double BranchAndBound::current_gap() const {
  if (!have_incumbent_.load(std::memory_order_relaxed)) return kInf;
  if (!have_root_bound_) return kInf;
  // Both in minimize convention; the search never tightens the global bound
  // below the root relaxation, so the root bound is the honest denominator
  // until the search completes (run() records the final 0).
  const double best = best_obj_min_.load(std::memory_order_relaxed);
  const double bound_min = obj_sign_ * stats_.root_bound;
  const double gap = best - bound_min;
  return std::max(0.0, gap / std::max(1.0, std::fabs(best)));
}

void BranchAndBound::record_gap_series() const {
  obs::metrics().series("search.gap").record(current_gap());
}

void BranchAndBound::push_children(std::deque<Node>& frontier,
                                   const std::vector<double>& lb,
                                   const std::vector<double>& ub,
                                   const LpResult& lp, int j,
                                   int depth) const {
  const auto idx = static_cast<std::size_t>(j);
  const double v = lp.x[idx];
  const double fl = std::floor(v);
  const bool down_first = (v - fl) <= 0.5;
  for (int child = 0; child < 2; ++child) {
    const bool down = (child == 0) == down_first;
    Node node;
    node.lb = lb;
    node.ub = ub;
    node.basis = lp.basis;
    node.depth = depth;
    if (down) {
      node.ub[idx] = fl;
    } else {
      node.lb[idx] = fl + 1.0;
    }
    if (node.lb[idx] <= node.ub[idx]) frontier.push_back(std::move(node));
  }
}

bool BranchAndBound::Searcher::run_node(const Node& node,
                                        std::deque<Node>* spill) {
  lp_.lb = node.lb;
  lp_.ub = node.ub;
  return explore(&node.basis, node.depth, spill);
}

bool BranchAndBound::Searcher::explore(const LpBasis* parent_basis, int depth,
                                       std::deque<Node>* spill) {
  BranchAndBound& bb = *owner_;
  if (bb.params_.deadline.expired() || bb.params_.stop.stop_requested() ||
      bb.node_count_.load(std::memory_order_relaxed) >= kMaxNodes) {
    bb.truncated_.store(true, std::memory_order_relaxed);
    return false;
  }
  const long node =
      bb.node_count_.fetch_add(1, std::memory_order_relaxed) + 1;
  if (obs::metrics_enabled()) {
    static obs::Histogram& depth_hist = obs::metrics().histogram(
        "milp.node_depth", {1, 2, 4, 8, 16, 24, 32, 48, 64, 96});
    depth_hist.observe(static_cast<double>(depth));
    obs::metrics().counter("milp.nodes").add();
  }

  const LpResult lp = bb.solve_lp_on(lp_, parent_basis, local);
  // Per-node instants are the verbose tail of a trace; every site guards
  // explicitly so the arg lists are never built when tracing is off.
  if (obs::trace_enabled()) {
    obs::trace_instant(
        "milp.node",
        {{"node", json::Value{node}},
         {"depth", json::Value{depth}},
         {"warm", json::Value{lp.used_warm_start}},
         {"bound", lp.status == LpStatus::kOptimal
                       ? json::Value{bb.obj_sign_ * lp.objective}
                       : json::Value{}}});
  }
  if (lp.status == LpStatus::kInfeasible) {
    if (obs::trace_enabled()) {
      obs::trace_instant("milp.prune",
                         {{"node", json::Value{node}},
                          {"reason", json::Value{"infeasible"}}});
    }
    return true;  // prune
  }
  if (lp.status == LpStatus::kIterLimit) {
    bb.truncated_.store(true, std::memory_order_relaxed);
    return false;
  }

  if (lp.objective >=
      bb.best_obj_min_.load(std::memory_order_relaxed) - kAbsGap) {
    if (obs::trace_enabled()) {
      obs::trace_instant("milp.prune", {{"node", json::Value{node}},
                                        {"reason", json::Value{"bound"}}});
    }
    return true;  // bound prune
  }

  const int j = bb.pick_branch_var(lp.x);
  if (j < 0) {
    bb.offer_incumbent(lp.x, lp.objective);
    return true;
  }
  if (obs::trace_enabled()) {
    obs::trace_instant(
        "milp.branch",
        {{"node", json::Value{node}},
         {"var", json::Value{j}},
         {"value", json::Value{lp.x[static_cast<std::size_t>(j)]}}});
  }

  if (spill != nullptr) {
    // Frontier expansion: hand both subtrees (with this LP's basis) back to
    // the caller instead of diving.
    bb.push_children(*spill, lp_.lb, lp_.ub, lp, j, depth + 1);
    return true;
  }

  const double v = lp.x[static_cast<std::size_t>(j)];
  const double fl = std::floor(v);
  const auto idx = static_cast<std::size_t>(j);
  const double saved_lb = lp_.lb[idx];
  const double saved_ub = lp_.ub[idx];

  // Nearest-integer child first: dives toward an early incumbent.
  const bool down_first = (v - fl) <= 0.5;
  for (int child = 0; child < 2; ++child) {
    const bool down = (child == 0) == down_first;
    if (down) {
      lp_.lb[idx] = saved_lb;
      lp_.ub[idx] = fl;
    } else {
      lp_.lb[idx] = fl + 1.0;
      lp_.ub[idx] = saved_ub;
    }
    // Each child differs from this node by one bound, so the parent's
    // optimal basis is dual feasible for it: the revised simplex re-enters
    // through the dual method and typically needs only a few pivots.
    const bool child_feasible_bounds = lp_.lb[idx] <= lp_.ub[idx];
    if (child_feasible_bounds && !explore(&lp.basis, depth + 1, nullptr)) {
      lp_.lb[idx] = saved_lb;
      lp_.ub[idx] = saved_ub;
      return false;
    }
  }
  lp_.lb[idx] = saved_lb;
  lp_.ub[idx] = saved_ub;
  return true;
}

LpResult BranchAndBound::solve_root() {
  // The root counts as node 1 (cut-round re-solves stay part of it).
  node_count_.store(1, std::memory_order_relaxed);
  if (obs::metrics_enabled()) {
    static obs::Histogram& depth_hist = obs::metrics().histogram(
        "milp.node_depth", {1, 2, 4, 8, 16, 24, 32, 48, 64, 96});
    depth_hist.observe(0.0);
    obs::metrics().counter("milp.nodes").add();
  }
  LpResult root = solve_lp_on(lp_, nullptr, stats_);
  if (obs::trace_enabled()) {
    obs::trace_instant(
        "milp.node",
        {{"node", json::Value{1L}},
         {"depth", json::Value{0}},
         {"warm", json::Value{false}},
         {"bound", root.status == LpStatus::kOptimal
                       ? json::Value{obj_sign_ * root.objective}
                       : json::Value{}}});
  }
  if (root.status != LpStatus::kOptimal) return root;

  stats_.root_bound_precut = obj_sign_ * root.objective;
  if (obs::metrics_enabled()) {
    obs::metrics()
        .gauge("milp.root_bound_precut")
        .set(stats_.root_bound_precut);
  }

  if (params_.cut_rounds > 0) {
    std::vector<char> is_integral(static_cast<std::size_t>(model_.num_vars()),
                                  0);
    for (int j = 0; j < model_.num_vars(); ++j) {
      is_integral[static_cast<std::size_t>(j)] =
          model_.var(Var{j}).is_integral() ? 1 : 0;
    }
    for (int round = 0; round < params_.cut_rounds; ++round) {
      if (params_.deadline.expired() || params_.stop.stop_requested()) break;
      if (pick_branch_var(root.x) < 0) break;  // already integral
      CutStats cs;
      std::vector<LpRow> cuts =
          generate_gomory_cuts(lp_, root, is_integral, &cs);
      stats_.cuts_generated += cs.generated;
      stats_.cuts_dropped += cs.dropped;
      if (cuts.empty()) break;

      // Append the cut rows and extend the basis: every new cut slack
      // enters basic (at the current vertex's activity, typically violating
      // its new bound), so the re-solve is a plain dual warm start.
      const std::size_t old_rows = lp_.rows.size();
      LpBasis warm = root.basis;
      for (std::size_t k = 0; k < cuts.size(); ++k) {
        warm.basic.push_back(lp_.num_vars + static_cast<int>(old_rows + k));
        warm.status.push_back(ColStatus::kBasic);
        lp_.rows.push_back(std::move(cuts[k]));
      }
      LpResult next = solve_lp_on(lp_, &warm, stats_);
      if (next.status != LpStatus::kOptimal) {
        // Numerics or budget trouble: rewind this round and search with
        // what we already have. (Valid cuts cannot make the LP infeasible
        // unless the MILP itself is infeasible — in which case the tree
        // search proves it anyway.)
        lp_.rows.resize(old_rows);
        stats_.cuts_dropped += static_cast<long>(cuts.size());
        break;
      }
      stats_.cuts_applied += static_cast<long>(cuts.size());
      root = std::move(next);
    }
  }

  if (obs::metrics_enabled()) {
    static obs::Counter& generated = obs::metrics().counter(
        "milp.cuts_generated");
    static obs::Counter& applied = obs::metrics().counter("milp.cuts_applied");
    static obs::Counter& dropped = obs::metrics().counter("milp.cuts_dropped");
    generated.add(stats_.cuts_generated);
    applied.add(stats_.cuts_applied);
    dropped.add(stats_.cuts_dropped);
    obs::metrics()
        .gauge("milp.root_bound_postcut")
        .set(obj_sign_ * root.objective);
  }
  return root;
}

void BranchAndBound::finalize(Solution& out, const Timer& timer) {
  stats_.runtime_s = timer.seconds();
  stats_.nodes = node_count_.load(std::memory_order_relaxed);
  out.stats = stats_;
  const bool truncated = truncated_.load(std::memory_order_relaxed);
  if (have_incumbent_.load(std::memory_order_relaxed)) {
    out.status = truncated ? MilpStatus::kFeasible : MilpStatus::kOptimal;
    out.objective = obj_sign_ * best_obj_min_.load(std::memory_order_relaxed);
    // Report only the caller's variables, not the linearization auxiliaries.
    best_x_.resize(static_cast<std::size_t>(original_vars_));
    out.values = std::move(best_x_);
  } else {
    out.status = truncated ? MilpStatus::kUnknown : MilpStatus::kInfeasible;
  }
  // An exhausted tree is a proof: the gap timeline closes at exactly 0.
  if (out.status == MilpStatus::kOptimal && obs::metrics_enabled()) {
    obs::metrics().series("search.gap").record(0.0);
  }
  if (obs::trace_enabled()) {
    obs::trace_instant("milp.done",
                       {{"status", json::Value{to_string(out.status)}},
                        {"nodes", json::Value{stats_.nodes}},
                        {"cuts", json::Value{stats_.cuts_applied}},
                        {"jobs", json::Value{jobs_}},
                        {"warm_starts", json::Value{stats_.warm_starts}},
                        {"cold_starts", json::Value{stats_.cold_starts}},
                        {"obj", out.has_solution() ? json::Value{out.objective}
                                                   : json::Value{}}});
  }
}

Solution BranchAndBound::run() {
  Timer timer;
  Solution out;
  jobs_ = params_.jobs == 1 ? 1
                            : support::ThreadPool::resolve_jobs(params_.jobs);

  const LpResult root = solve_root();
  if (root.status == LpStatus::kInfeasible) {
    finalize(out, timer);
    return out;
  }
  if (root.status == LpStatus::kIterLimit) {
    truncated_.store(true, std::memory_order_relaxed);
    finalize(out, timer);
    return out;
  }
  stats_.root_bound = obj_sign_ * root.objective;
  have_root_bound_ = true;

  std::deque<Node> frontier;
  const int j0 = pick_branch_var(root.x);
  if (j0 < 0) {
    offer_incumbent(root.x, root.objective);
    finalize(out, timer);
    return out;
  }
  push_children(frontier, lp_.lb, lp_.ub, root, j0, 1);

  if (jobs_ <= 1) {
    // Serial DFS: FIFO over the two root children preserves the classic
    // nearest-integer-first dive order.
    Searcher searcher(this);
    while (!frontier.empty()) {
      const Node node = std::move(frontier.front());
      frontier.pop_front();
      if (!searcher.run_node(node, nullptr)) break;
    }
    add_lp_counters(stats_, searcher.local);
    finalize(out, timer);
    return out;
  }

  // Parallel drain. Phase 1: breadth-first expansion (still serial) until
  // the frontier holds enough independent subtrees to feed every worker —
  // each entry carries its parent's basis, so workers dual-warm-start their
  // first LP exactly like a serial dive would.
  Searcher expander(this);
  const std::size_t target =
      static_cast<std::size_t>(std::max(4 * jobs_, 8));
  while (!frontier.empty() && frontier.size() < target) {
    const Node node = std::move(frontier.front());
    frontier.pop_front();
    if (!expander.run_node(node, &frontier)) break;
  }

  // Phase 2: workers drain the frontier, each running an exhaustive DFS per
  // subtree. The incumbent bound crosses workers through the atomic min, so
  // any worker's solution prunes every other's dive; StopToken/deadline
  // trips unwind all workers at their next node check. A frontier the
  // expansion already emptied needs no pool.
  if (!frontier.empty()) {
    std::mutex frontier_mutex;
    support::ThreadPool pool(jobs_);
    for (int w = 0; w < jobs_; ++w) {
      pool.submit([this, &frontier, &frontier_mutex] {
        Searcher searcher(this);
        while (!truncated_.load(std::memory_order_relaxed)) {
          Node node;
          {
            std::lock_guard<std::mutex> lock(frontier_mutex);
            if (frontier.empty()) break;
            node = std::move(frontier.front());
            frontier.pop_front();
          }
          if (!searcher.run_node(node, nullptr)) break;
        }
        std::lock_guard<std::mutex> lock(stats_mutex_);
        add_lp_counters(stats_, searcher.local);
      });
    }
    pool.wait_idle();
  }  // joins the workers
  add_lp_counters(stats_, expander.local);
  finalize(out, timer);
  return out;
}

}  // namespace

Solution solve_milp(const Model& model, const MilpParams& params) {
  obs::TraceSpan span("milp.solve");
  Model work = model;  // keep the caller's model untouched
  const int original_vars = model.num_vars();
  linearize_products(work);
  if (params.presolve) {
    obs::TraceSpan presolve_span("milp.presolve");
    const PresolveStats ps = opt::presolve(work);
    if (ps.proven_infeasible) {
      Solution out;
      out.status = MilpStatus::kInfeasible;
      return out;
    }
  }
  BranchAndBound search(std::move(work), params, original_vars);
  return search.run();
}

}  // namespace mlsi::opt
