#include "synth/iqp_engine.hpp"

#include <algorithm>
#include <map>

#include "obs/trace.hpp"
#include "support/strings.hpp"
#include "support/timer.hpp"

namespace mlsi::synth {
namespace {

using opt::LinExpr;
using opt::Model;
using opt::QuadExpr;
using opt::Sense;
using opt::Var;

/// Builds and solves the paper's model; see the header for the two
/// documented corrections.
class IqpBuilder {
 public:
  IqpBuilder(const arch::SwitchTopology& topo, const arch::PathSet& paths,
             const ProblemSpec& spec, const EngineParams& params)
      : topo_(topo), paths_(paths), spec_(spec), params_(params) {}

  Result<SynthesisResult> run();

  /// Build-only path used by build_iqp_model().
  Result<opt::Model> build_only() {
    const Status collected = collect_candidates();
    if (!collected.ok()) return collected;
    build_model();
    return std::move(model_);
  }

 private:
  Status collect_candidates();
  void build_model();
  Result<SynthesisResult> extract(const opt::Solution& sol, double runtime_s);

  const arch::SwitchTopology& topo_;
  const arch::PathSet& paths_;
  const ProblemSpec& spec_;
  const EngineParams& params_;

  int num_pins_ = 0;
  int num_sets_ = 0;
  std::vector<int> inlet_modules_;
  std::vector<std::vector<int>> candidates_;  ///< per flow, path ids

  Model model_;
  std::vector<std::map<int, Var>> x_;      ///< x_[i][path_id]
  std::vector<std::vector<Var>> y_;        ///< y_[module][pin_index]
  std::vector<std::vector<Var>> a_;        ///< a_[i][set]
  std::vector<std::map<int, Var>> un_;     ///< un_[i][node vertex id]
  std::vector<Var> u_;                     ///< set used
  std::map<int, Var> used_seg_;            ///< used_e
};

Status IqpBuilder::collect_candidates() {
  num_pins_ = topo_.num_pins();
  num_sets_ = std::min(spec_.effective_max_sets(), spec_.num_flows());

  for (int m = 0; m < spec_.num_modules(); ++m) {
    if (spec_.is_inlet(m)) inlet_modules_.push_back(m);
  }

  // Fixed policy pins by module, or -1.
  std::vector<int> fixed_pin(static_cast<std::size_t>(spec_.num_modules()), -1);
  if (spec_.policy == BindingPolicy::kFixed) {
    for (const ModulePin& mp : spec_.fixed_binding) {
      if (mp.pin_index >= num_pins_) {
        return Status::InvalidArgument(
            cat("fixed binding pin index ", mp.pin_index, " exceeds ",
                num_pins_, " pins"));
      }
      fixed_pin[static_cast<std::size_t>(mp.module)] = mp.pin_index;
    }
  }

  candidates_.resize(static_cast<std::size_t>(spec_.num_flows()));
  std::size_t total = 0;
  for (int i = 0; i < spec_.num_flows(); ++i) {
    const FlowSpec& fs = spec_.flows[static_cast<std::size_t>(i)];
    auto& cand = candidates_[static_cast<std::size_t>(i)];
    const auto add_pair = [&](int from_idx, int to_idx) {
      const int fv = topo_.pins_clockwise()[static_cast<std::size_t>(from_idx)];
      const int tv = topo_.pins_clockwise()[static_cast<std::size_t>(to_idx)];
      const auto& ids = paths_.between(fv, tv);
      cand.insert(cand.end(), ids.begin(), ids.end());
    };
    if (spec_.policy == BindingPolicy::kFixed) {
      add_pair(fixed_pin[static_cast<std::size_t>(fs.src_module)],
               fixed_pin[static_cast<std::size_t>(fs.dst_module)]);
    } else {
      for (int p = 0; p < num_pins_; ++p) {
        for (int q = 0; q < num_pins_; ++q) {
          if (p != q) add_pair(p, q);
        }
      }
    }
    if (cand.empty()) {
      return Status::Infeasible(
          cat("flow ", i, " has no candidate path on ", topo_.name()));
    }
    total += cand.size();
  }

  // Practical size guard for the built-in MILP solver (see header). The
  // sparse revised simplex makes each relaxation cheap, but the binding
  // bottleneck is branch & bound itself: node counts explode on big
  // path-assignment models regardless of per-LP speed.
  if (total > 2000) {
    return Status::InvalidArgument(
        cat("IQP model would have ", total,
            " path-assignment variables; branch & bound does not scale to "
            "models of this shape — use the cp engine (the thesis needed "
            "hours of Gurobi time here)"));
  }
  return Status::Ok();
}

void IqpBuilder::build_model() {
  const int flows = spec_.num_flows();
  const auto& nodes = topo_.nodes();
  const bool free_binding = spec_.policy != BindingPolicy::kFixed;

  // --- variables -------------------------------------------------------------
  x_.resize(static_cast<std::size_t>(flows));
  for (int i = 0; i < flows; ++i) {
    for (const int d : candidates_[static_cast<std::size_t>(i)]) {
      const Var xv = model_.add_binary(cat("x_", i, "_", d));
      model_.set_branch_priority(xv, 1);
      x_[static_cast<std::size_t>(i)].emplace(d, xv);
    }
  }
  if (free_binding) {
    y_.resize(static_cast<std::size_t>(spec_.num_modules()));
    for (int m = 0; m < spec_.num_modules(); ++m) {
      for (int p = 0; p < num_pins_; ++p) {
        const Var yv = model_.add_binary(cat("y_", m, "_", p));
        // Settle the binding before paths and schedule: once y is integral
        // the rest of the model is the (tractable) fixed-policy shape.
        model_.set_branch_priority(yv, 3);
        y_[static_cast<std::size_t>(m)].push_back(yv);
      }
    }
  }
  a_.resize(static_cast<std::size_t>(flows));
  for (int i = 0; i < flows; ++i) {
    // Set-symmetry breaking: flow i can open at most set i.
    const int smax = std::min(num_sets_, i + 1);
    for (int s = 0; s < smax; ++s) {
      const Var av = model_.add_binary(cat("a_", i, "_", s));
      model_.set_branch_priority(av, 2);
      a_[static_cast<std::size_t>(i)].push_back(av);
    }
  }
  un_.resize(static_cast<std::size_t>(flows));
  for (int i = 0; i < flows; ++i) {
    for (const int n : nodes) {
      un_[static_cast<std::size_t>(i)].emplace(
          n, model_.add_binary(cat("un_", i, "_", n)));
    }
  }
  for (int s = 0; s < num_sets_; ++s) {
    u_.push_back(model_.add_binary(cat("u_", s)));
  }
  for (const arch::Path& p : paths_.paths()) {
    for (const int e : p.segments) {
      if (used_seg_.count(e) == 0) {
        used_seg_.emplace(e, model_.add_binary(cat("used_", e)));
      }
    }
  }

  // --- (3.1) one path per flow, (3.2) each path at most once -----------------
  std::map<int, LinExpr> per_path_sum;
  for (int i = 0; i < flows; ++i) {
    LinExpr one_path;
    for (const auto& [d, xv] : x_[static_cast<std::size_t>(i)]) {
      one_path += LinExpr{xv};
      per_path_sum[d] += LinExpr{xv};
    }
    model_.add_constraint(one_path, Sense::kEq, 1.0, cat("one_path_", i));
  }
  for (auto& [d, sum] : per_path_sum) {
    sum.compress();
    if (sum.terms().size() > 1) {
      model_.add_constraint(sum, Sense::kLe, 1.0, cat("path_once_", d));
    }
  }

  // --- binding (3.9)-(3.13) ---------------------------------------------------
  if (free_binding) {
    for (int m = 0; m < spec_.num_modules(); ++m) {
      LinExpr one_pin;
      for (int p = 0; p < num_pins_; ++p) {
        one_pin += LinExpr{y_[static_cast<std::size_t>(m)][static_cast<std::size_t>(p)]};
      }
      model_.add_constraint(one_pin, Sense::kEq, 1.0, cat("bind_", m));
    }
    for (int p = 0; p < num_pins_; ++p) {
      LinExpr one_module;
      for (int m = 0; m < spec_.num_modules(); ++m) {
        one_module += LinExpr{y_[static_cast<std::size_t>(m)][static_cast<std::size_t>(p)]};
      }
      model_.add_constraint(one_module, Sense::kLe, 1.0, cat("pin_once_", p));
    }
    // Aggregated x-to-y links: paths of flow i leaving pin p require the
    // source module on p (and symmetrically for destinations).
    for (int i = 0; i < flows; ++i) {
      const FlowSpec& fs = spec_.flows[static_cast<std::size_t>(i)];
      std::map<int, LinExpr> from_pin;
      std::map<int, LinExpr> to_pin;
      for (const auto& [d, xv] : x_[static_cast<std::size_t>(i)]) {
        const arch::Path& path = paths_.path(d);
        from_pin[topo_.pin_index(path.from_pin)] += LinExpr{xv};
        to_pin[topo_.pin_index(path.to_pin)] += LinExpr{xv};
      }
      for (auto& [p, sum] : from_pin) {
        sum -= LinExpr{y_[static_cast<std::size_t>(fs.src_module)][static_cast<std::size_t>(p)]};
        model_.add_constraint(sum, Sense::kLe, 0.0, cat("src_link_", i, "_", p));
      }
      for (auto& [p, sum] : to_pin) {
        sum -= LinExpr{y_[static_cast<std::size_t>(fs.dst_module)][static_cast<std::size_t>(p)]};
        model_.add_constraint(sum, Sense::kLe, 0.0, cat("dst_link_", i, "_", p));
      }
    }
  }
  if (spec_.policy == BindingPolicy::kClockwise) {
    // (3.12)/(3.13): modules keep the user's clockwise cyclic order.
    const int m_count = spec_.num_modules();
    std::vector<Var> pin_var;
    std::vector<Var> q_var;
    for (int m = 0; m < m_count; ++m) {
      const Var pv = model_.add_integer(1, num_pins_, cat("pin_", m));
      LinExpr def{pv};
      for (int p = 0; p < num_pins_; ++p) {
        def.add(y_[static_cast<std::size_t>(m)][static_cast<std::size_t>(p)],
                -(p + 1.0));
      }
      model_.add_constraint(def, Sense::kEq, 0.0, cat("pin_def_", m));
      pin_var.push_back(pv);
      q_var.push_back(model_.add_binary(cat("q_", m)));
    }
    LinExpr q_sum;
    for (int i = 0; i < m_count; ++i) {
      const int ma = spec_.clockwise_order[static_cast<std::size_t>(i)];
      const int mb = spec_.clockwise_order[static_cast<std::size_t>((i + 1) % m_count)];
      LinExpr order{pin_var[static_cast<std::size_t>(ma)]};
      order -= LinExpr{pin_var[static_cast<std::size_t>(mb)]};
      order.add(q_var[static_cast<std::size_t>(ma)],
                -static_cast<double>(num_pins_));
      model_.add_constraint(order, Sense::kLe, -1.0, cat("cw_", i));
      q_sum += LinExpr{q_var[static_cast<std::size_t>(ma)]};
    }
    model_.add_constraint(q_sum, Sense::kEq, 1.0, "cw_wrap");
  }

  // --- un definition and (3.3) contamination ----------------------------------
  for (int i = 0; i < flows; ++i) {
    std::map<int, LinExpr> node_sum;
    for (const auto& [d, xv] : x_[static_cast<std::size_t>(i)]) {
      const arch::Path& path = paths_.path(d);
      for (const int n : topo_.nodes()) {
        if (path.uses_vertex(n)) node_sum[n] += LinExpr{xv};
      }
    }
    for (const auto& [n, unv] : un_[static_cast<std::size_t>(i)]) {
      LinExpr def{unv};
      const auto it = node_sum.find(n);
      if (it != node_sum.end()) def -= it->second;
      model_.add_constraint(def, Sense::kEq, 0.0, cat("un_def_", i, "_", n));
    }
  }
  // Conflicts act at reagent (inlet-module) granularity: a flow carries its
  // inlet's fluid, so every flow of a conflicting inlet pair participates —
  // not only the literally listed pairs (third documented correction; the
  // CP engine enforces the same closure).
  for (int fa = 0; fa < flows; ++fa) {
    for (int fb = fa + 1; fb < flows; ++fb) {
      if (!spec_.flows_conflict(fa, fb)) continue;
      for (const int n : topo_.nodes()) {
        LinExpr pair{un_[static_cast<std::size_t>(fa)].at(n)};
        pair += LinExpr{un_[static_cast<std::size_t>(fb)].at(n)};
        model_.add_constraint(pair, Sense::kLe, 1.0,
                              cat("conflict_", fa, "_", fb, "_", n));
      }
    }
  }

  // --- scheduling (3.4)-(3.6) with the corrected q' link ----------------------
  for (int i = 0; i < flows; ++i) {
    LinExpr one_set;
    for (const Var av : a_[static_cast<std::size_t>(i)]) one_set += LinExpr{av};
    model_.add_constraint(one_set, Sense::kEq, 1.0, cat("one_set_", i));
  }
  const double big_m = num_pins_;  // the paper's N_Pins constant
  for (const int n : topo_.nodes()) {
    for (int s = 0; s < num_sets_; ++s) {
      // k_{m,n,s} and K_{n,s} as defining equalities over w = un * a.
      std::vector<Var> k_vars;
      LinExpr k_total;
      for (const int m : inlet_modules_) {
        const Var k = model_.add_integer(0, num_pins_, cat("k_", m, "_", n, "_", s));
        QuadExpr def{LinExpr{k}};
        for (int i = 0; i < flows; ++i) {
          if (spec_.flows[static_cast<std::size_t>(i)].src_module != m) continue;
          if (s >= static_cast<int>(a_[static_cast<std::size_t>(i)].size())) continue;
          def.add_product(un_[static_cast<std::size_t>(i)].at(n),
                          a_[static_cast<std::size_t>(i)][static_cast<std::size_t>(s)],
                          -1.0);
        }
        model_.add_constraint(def, Sense::kEq, 0.0, cat("k_def_", m, "_", n, "_", s));
        k_vars.push_back(k);
        k_total += LinExpr{k};
      }
      const Var big_k = model_.add_integer(0, num_pins_, cat("K_", n, "_", s));
      LinExpr k_def{big_k};
      k_def -= k_total;
      model_.add_constraint(k_def, Sense::kEq, 0.0, cat("K_def_", n, "_", s));

      for (std::size_t mi = 0; mi < inlet_modules_.size(); ++mi) {
        const Var k = k_vars[mi];
        const Var q = model_.add_binary(cat("q'_", inlet_modules_[mi], "_", n, "_", s));
        // (3.4): k >= 1 - q*M.
        LinExpr c4{k};
        c4.add(q, big_m);
        model_.add_constraint(c4, Sense::kGe, 1.0);
        // (3.5): k <= K + q*M.
        LinExpr c5{k};
        c5 -= LinExpr{big_k};
        c5.add(q, -big_m);
        model_.add_constraint(c5, Sense::kLe, 0.0);
        // (3.6): k >= K - q*M.
        LinExpr c6{k};
        c6 -= LinExpr{big_k};
        c6.add(q, big_m);
        model_.add_constraint(c6, Sense::kGe, 0.0);
        // Correction (see header): q' = 0 whenever k >= 1.
        LinExpr link{k};
        link.add(q, big_m);
        model_.add_constraint(link, Sense::kLe, big_m);
      }
    }
  }

  // --- set usage and objective -------------------------------------------------
  for (int i = 0; i < flows; ++i) {
    for (std::size_t s = 0; s < a_[static_cast<std::size_t>(i)].size(); ++s) {
      LinExpr used{a_[static_cast<std::size_t>(i)][s]};
      used -= LinExpr{u_[s]};
      model_.add_constraint(used, Sense::kLe, 0.0);
    }
  }
  for (int s = 0; s + 1 < num_sets_; ++s) {
    LinExpr order{u_[static_cast<std::size_t>(s + 1)]};
    order -= LinExpr{u_[static_cast<std::size_t>(s)]};
    model_.add_constraint(order, Sense::kLe, 0.0, cat("set_order_", s));
  }
  std::map<int, int> paths_through;  // segment -> #(i,d) pairs crossing it
  for (int i = 0; i < flows; ++i) {
    for (const auto& [d, xv] : x_[static_cast<std::size_t>(i)]) {
      (void)xv;
      for (const int e : paths_.path(d).segments) ++paths_through[e];
    }
  }
  for (const auto& [e, uv] : used_seg_) {
    LinExpr agg;
    for (int i = 0; i < flows; ++i) {
      for (const auto& [d, xv] : x_[static_cast<std::size_t>(i)]) {
        if (paths_.path(d).uses_segment(e)) agg += LinExpr{xv};
      }
    }
    agg.add(uv, -static_cast<double>(paths_through[e]));
    model_.add_constraint(agg, Sense::kLe, 0.0, cat("used_def_", e));
  }
  LinExpr objective;
  for (const Var uv : u_) objective.add(uv, spec_.alpha);
  for (const auto& [e, uv] : used_seg_) {
    objective.add(uv, spec_.beta * topo_.segment(e).length_um / 1000.0);
  }
  model_.set_objective(objective, /*minimize=*/true);
}

Result<SynthesisResult> IqpBuilder::extract(const opt::Solution& sol,
                                            double runtime_s) {
  SynthesisResult out;
  out.binding.assign(static_cast<std::size_t>(spec_.num_modules()), -1);
  if (spec_.policy == BindingPolicy::kFixed) {
    for (const ModulePin& mp : spec_.fixed_binding) {
      out.binding[static_cast<std::size_t>(mp.module)] =
          topo_.pins_clockwise()[static_cast<std::size_t>(mp.pin_index)];
    }
  } else {
    for (int m = 0; m < spec_.num_modules(); ++m) {
      for (int p = 0; p < num_pins_; ++p) {
        if (sol.value_bool(y_[static_cast<std::size_t>(m)][static_cast<std::size_t>(p)])) {
          out.binding[static_cast<std::size_t>(m)] =
              topo_.pins_clockwise()[static_cast<std::size_t>(p)];
          break;
        }
      }
    }
  }

  // Compact the used set indices in first-use order over flows.
  std::map<int, int> set_remap;
  out.routed.resize(static_cast<std::size_t>(spec_.num_flows()));
  for (int i = 0; i < spec_.num_flows(); ++i) {
    RoutedFlow rf;
    rf.flow = i;
    for (const auto& [d, xv] : x_[static_cast<std::size_t>(i)]) {
      if (sol.value_bool(xv)) {
        rf.path = paths_.path(d);
        break;
      }
    }
    for (std::size_t s = 0; s < a_[static_cast<std::size_t>(i)].size(); ++s) {
      if (sol.value_bool(a_[static_cast<std::size_t>(i)][s])) {
        const auto [it, ins] =
            set_remap.emplace(static_cast<int>(s), static_cast<int>(set_remap.size()));
        (void)ins;
        rf.set = it->second;
        break;
      }
    }
    if (rf.path.vertices.empty() || rf.set < 0) {
      return Status::Internal(cat("IQP solution missing assignment for flow ", i));
    }
    out.routed[static_cast<std::size_t>(i)] = std::move(rf);
  }
  out.num_sets = static_cast<int>(set_remap.size());
  out.used_segments = union_segments(out.routed);
  out.flow_length_mm = segments_length_mm(topo_, out.used_segments);
  out.objective = spec_.alpha * out.num_sets + spec_.beta * out.flow_length_mm;
  out.stats.engine = "iqp";
  out.stats.runtime_s = runtime_s;
  out.stats.nodes = sol.stats.nodes;
  out.stats.proven_optimal = sol.status == opt::MilpStatus::kOptimal;
  add_milp_stats(out.stats, sol.stats);
  return out;
}

Result<SynthesisResult> IqpBuilder::run() {
  obs::TraceSpan span("iqp.solve");
  Timer timer;
  if (params_.deadline.expired() || params_.stop.stop_requested()) {
    return Status::Timeout(
        "IQP solve cancelled before the model was built");
  }
  {
    obs::TraceSpan collect_span("iqp.collect_candidates");
    const Status collected = collect_candidates();
    if (!collected.ok()) return collected;
  }
  {
    obs::TraceSpan build_span("iqp.build_model");
    build_model();
  }
  opt::MilpParams milp = params_.milp;
  milp.deadline = support::Deadline::sooner(milp.deadline, params_.deadline);
  milp.stop = params_.stop;
  if (milp.jobs == 1) milp.jobs = params_.jobs;
  const opt::Solution sol = opt::solve_milp(model_, milp);
  switch (sol.status) {
    case opt::MilpStatus::kInfeasible:
      return Status::Infeasible(
          cat("no contamination-free solution for '", spec_.name, "' with ",
              to_string(spec_.policy), " binding (IQP proven infeasible)"));
    case opt::MilpStatus::kUnknown:
      return Status::Timeout("IQP solver budget expired without an incumbent");
    case opt::MilpStatus::kOptimal:
    case opt::MilpStatus::kFeasible:
      return extract(sol, timer.seconds());
  }
  return Status::Internal("unreachable IQP status");
}

}  // namespace

Result<SynthesisResult> solve_iqp(const arch::SwitchTopology& topo,
                                  const arch::PathSet& paths,
                                  const ProblemSpec& spec,
                                  const EngineParams& params) {
  const Status valid = spec.validate();
  if (!valid.ok()) return valid;
  IqpBuilder builder(topo, paths, spec, params);
  return builder.run();
}

Result<opt::Model> build_iqp_model(const arch::SwitchTopology& topo,
                                   const arch::PathSet& paths,
                                   const ProblemSpec& spec) {
  const Status valid = spec.validate();
  if (!valid.ok()) return valid;
  EngineParams params;
  IqpBuilder builder(topo, paths, spec, params);
  return builder.build_only();
}

}  // namespace mlsi::synth
