#include "synth/spec.hpp"

#include <algorithm>
#include <charconv>
#include <numeric>
#include <set>

#include "support/strings.hpp"

namespace mlsi::synth {

std::string_view to_string(BindingPolicy policy) {
  switch (policy) {
    case BindingPolicy::kFixed: return "fixed";
    case BindingPolicy::kClockwise: return "clockwise";
    case BindingPolicy::kUnfixed: return "unfixed";
  }
  return "?";
}

Result<BindingPolicy> binding_policy_from_string(std::string_view name) {
  if (name == "fixed") return BindingPolicy::kFixed;
  if (name == "clockwise") return BindingPolicy::kClockwise;
  if (name == "unfixed") return BindingPolicy::kUnfixed;
  return Status::InvalidArgument(cat("unknown binding policy '", name, "'"));
}

int ProblemSpec::module_index(std::string_view name) const {
  for (int i = 0; i < num_modules(); ++i) {
    if (modules[static_cast<std::size_t>(i)] == name) return i;
  }
  return -1;
}

bool ProblemSpec::is_inlet(int module) const {
  return std::any_of(flows.begin(), flows.end(), [module](const FlowSpec& f) {
    return f.src_module == module;
  });
}

std::vector<std::pair<int, int>> ProblemSpec::conflicting_inlet_modules()
    const {
  std::set<std::pair<int, int>> pairs;
  for (const auto& [fa, fb] : conflicts) {
    const int ma = flows[static_cast<std::size_t>(fa)].src_module;
    const int mb = flows[static_cast<std::size_t>(fb)].src_module;
    pairs.emplace(std::min(ma, mb), std::max(ma, mb));
  }
  return {pairs.begin(), pairs.end()};
}

bool ProblemSpec::flows_conflict(int flow_a, int flow_b) const {
  const int ma = flows[static_cast<std::size_t>(flow_a)].src_module;
  const int mb = flows[static_cast<std::size_t>(flow_b)].src_module;
  if (ma == mb) return false;
  const auto key = std::pair{std::min(ma, mb), std::max(ma, mb)};
  const auto pairs = conflicting_inlet_modules();
  return std::binary_search(pairs.begin(), pairs.end(), key);
}

Status ProblemSpec::validate() const {
  if (modules.empty()) return Status::InvalidArgument("no modules");
  if (flows.empty()) return Status::InvalidArgument("no flows");
  if (pins_per_side != 0 && (pins_per_side < 2 || pins_per_side > 4)) {
    return Status::InvalidArgument(
        cat("pins_per_side must be 0 (auto) or 2..4, got ", pins_per_side));
  }
  {
    std::set<std::string> names(modules.begin(), modules.end());
    if (static_cast<int>(names.size()) != num_modules()) {
      return Status::InvalidArgument("duplicate module names");
    }
  }

  std::vector<char> is_src(modules.size(), 0);
  std::vector<char> is_dst(modules.size(), 0);
  for (const FlowSpec& f : flows) {
    if (f.src_module < 0 || f.src_module >= num_modules() ||
        f.dst_module < 0 || f.dst_module >= num_modules()) {
      return Status::InvalidArgument("flow references an unknown module");
    }
    if (f.src_module == f.dst_module) {
      return Status::InvalidArgument(
          cat("flow from module ", modules[static_cast<std::size_t>(f.src_module)],
              " to itself"));
    }
    is_src[static_cast<std::size_t>(f.src_module)] = 1;
    if (is_dst[static_cast<std::size_t>(f.dst_module)] != 0) {
      return Status::InvalidArgument(
          cat("outlet module ",
              modules[static_cast<std::size_t>(f.dst_module)],
              " is the destination of more than one flow"));
    }
    is_dst[static_cast<std::size_t>(f.dst_module)] = 1;
  }
  for (int m = 0; m < num_modules(); ++m) {
    if (is_src[static_cast<std::size_t>(m)] != 0 &&
        is_dst[static_cast<std::size_t>(m)] != 0) {
      return Status::InvalidArgument(
          cat("module ", modules[static_cast<std::size_t>(m)],
              " is used both as inlet and outlet"));
    }
    if (is_src[static_cast<std::size_t>(m)] == 0 &&
        is_dst[static_cast<std::size_t>(m)] == 0) {
      return Status::InvalidArgument(
          cat("module ", modules[static_cast<std::size_t>(m)],
              " participates in no flow"));
    }
  }

  for (const auto& [fa, fb] : conflicts) {
    if (fa < 0 || fa >= num_flows() || fb < 0 || fb >= num_flows()) {
      return Status::InvalidArgument("conflict references an unknown flow");
    }
    if (fa == fb) return Status::InvalidArgument("flow conflicts with itself");
    if (flows[static_cast<std::size_t>(fa)].src_module ==
        flows[static_cast<std::size_t>(fb)].src_module) {
      return Status::InvalidArgument(
          "conflicting flows share an inlet: a reagent cannot conflict with "
          "itself");
    }
  }

  switch (policy) {
    case BindingPolicy::kFixed: {
      if (static_cast<int>(fixed_binding.size()) != num_modules()) {
        return Status::InvalidArgument(
            "fixed policy requires a pin for every module");
      }
      std::set<int> mods;
      std::set<int> pins;
      for (const ModulePin& mp : fixed_binding) {
        if (mp.module < 0 || mp.module >= num_modules()) {
          return Status::InvalidArgument("fixed binding: unknown module");
        }
        if (mp.pin_index < 0) {
          return Status::InvalidArgument("fixed binding: negative pin index");
        }
        if (!mods.insert(mp.module).second) {
          return Status::InvalidArgument("fixed binding: duplicate module");
        }
        if (!pins.insert(mp.pin_index).second) {
          return Status::InvalidArgument("fixed binding: duplicate pin");
        }
      }
      break;
    }
    case BindingPolicy::kClockwise: {
      if (static_cast<int>(clockwise_order.size()) != num_modules()) {
        return Status::InvalidArgument(
            "clockwise policy requires the full module order");
      }
      std::set<int> mods(clockwise_order.begin(), clockwise_order.end());
      if (static_cast<int>(mods.size()) != num_modules() ||
          *mods.begin() < 0 || *mods.rbegin() >= num_modules()) {
        return Status::InvalidArgument(
            "clockwise order must be a permutation of the modules");
      }
      break;
    }
    case BindingPolicy::kUnfixed: break;
  }

  if (alpha < 0 || beta < 0 || (alpha == 0 && beta == 0)) {
    return Status::InvalidArgument("objective weights must be non-negative "
                                   "and not both zero");
  }
  if (max_sets < 0) return Status::InvalidArgument("negative max_sets");
  return Status::Ok();
}

// --- canonical form ---------------------------------------------------------

namespace {

/// Exact decimal round-trip for the objective weights in the canonical text.
std::string fmt_exact(double v) {
  char buf[32];
  return {buf, std::to_chars(buf, buf + sizeof buf, v,
                             std::chars_format::general, 17).ptr};
}

/// conflict_adjacency()[f] = sorted flow ids conflicting with f.
std::vector<std::vector<int>> conflict_adjacency(const ProblemSpec& spec) {
  std::vector<std::vector<int>> adj(
      static_cast<std::size_t>(spec.num_flows()));
  for (const auto& [a, b] : spec.conflicts) {
    adj[static_cast<std::size_t>(a)].push_back(b);
    adj[static_cast<std::size_t>(b)].push_back(a);
  }
  for (auto& v : adj) {
    std::sort(v.begin(), v.end());
    v.erase(std::unique(v.begin(), v.end()), v.end());
  }
  return adj;
}

/// Serializes the spec under a *complete* module relabeling \p mp
/// (mp[i] = canonical index, a permutation). Flows order canonically by
/// (canonical src, canonical dst) — unique because each outlet is the
/// destination of exactly one flow. Returns the text and fills \p fp with
/// the induced flow permutation.
std::string serialize_canonical(const ProblemSpec& spec,
                                const std::vector<int>& mp,
                                std::vector<int>& fp) {
  const int nf = spec.num_flows();
  std::vector<int> order(static_cast<std::size_t>(nf));
  std::iota(order.begin(), order.end(), 0);
  std::sort(order.begin(), order.end(), [&](int a, int b) {
    const FlowSpec& fa = spec.flows[static_cast<std::size_t>(a)];
    const FlowSpec& fb = spec.flows[static_cast<std::size_t>(b)];
    return std::pair{mp[static_cast<std::size_t>(fa.src_module)],
                     mp[static_cast<std::size_t>(fa.dst_module)]} <
           std::pair{mp[static_cast<std::size_t>(fb.src_module)],
                     mp[static_cast<std::size_t>(fb.dst_module)]};
  });
  fp.assign(static_cast<std::size_t>(nf), -1);
  for (int k = 0; k < nf; ++k) {
    fp[static_cast<std::size_t>(order[static_cast<std::size_t>(k)])] = k;
  }

  std::string text =
      cat("v1;p=", to_string(spec.policy),
                   ";k=", spec.effective_pins_per_side(),
                   ";a=", fmt_exact(spec.alpha), ";b=", fmt_exact(spec.beta),
                   ";s=", spec.effective_max_sets(),
                   ";n=", spec.num_modules(), ";F:");
  for (int k = 0; k < nf; ++k) {
    const FlowSpec& f =
        spec.flows[static_cast<std::size_t>(order[static_cast<std::size_t>(k)])];
    text += cat(mp[static_cast<std::size_t>(f.src_module)], ">",
                         mp[static_cast<std::size_t>(f.dst_module)], ",");
  }
  std::vector<std::pair<int, int>> conf;
  conf.reserve(spec.conflicts.size());
  for (const auto& [a, b] : spec.conflicts) {
    const int ca = fp[static_cast<std::size_t>(a)];
    const int cb = fp[static_cast<std::size_t>(b)];
    conf.emplace_back(std::min(ca, cb), std::max(ca, cb));
  }
  std::sort(conf.begin(), conf.end());
  conf.erase(std::unique(conf.begin(), conf.end()), conf.end());
  text += ";C:";
  for (const auto& [a, b] : conf) text += cat(a, "-", b, ",");
  if (spec.policy == BindingPolicy::kFixed) {
    // Pin per canonical module — the binding is part of the problem.
    std::vector<int> pin(static_cast<std::size_t>(spec.num_modules()), -1);
    for (const ModulePin& mpin : spec.fixed_binding) {
      pin[static_cast<std::size_t>(mp[static_cast<std::size_t>(mpin.module)])] =
          mpin.pin_index;
    }
    text += ";B:";
    for (const int p : pin) text += cat(p, ",");
  }
  return text;
}

/// One round of Weisfeiler-Leman color refinement over the modules.
/// Signatures are built purely from colors (never labels), so equal-colored
/// modules stay equal exactly when their structural neighborhoods agree.
/// New colors are ranks of the sorted signatures; a signature starts with
/// the old color, so cells only ever split (monotone refinement) and the
/// fixpoint test is plain vector equality.
std::vector<int> refine_colors(const ProblemSpec& spec,
                               const std::vector<std::vector<int>>& conf,
                               std::vector<int> colors) {
  const int n = spec.num_modules();
  const int nf = spec.num_flows();
  while (true) {
    // Flow signature: endpoint colors plus the sorted multiset of the
    // endpoint colors of every conflicting flow.
    std::vector<std::vector<int>> fsig(static_cast<std::size_t>(nf));
    for (int f = 0; f < nf; ++f) {
      const FlowSpec& fs = spec.flows[static_cast<std::size_t>(f)];
      std::vector<int>& sig = fsig[static_cast<std::size_t>(f)];
      sig = {colors[static_cast<std::size_t>(fs.src_module)],
             colors[static_cast<std::size_t>(fs.dst_module)], -1};
      std::vector<std::pair<int, int>> partners;
      for (const int g : conf[static_cast<std::size_t>(f)]) {
        const FlowSpec& gs = spec.flows[static_cast<std::size_t>(g)];
        partners.emplace_back(colors[static_cast<std::size_t>(gs.src_module)],
                              colors[static_cast<std::size_t>(gs.dst_module)]);
      }
      std::sort(partners.begin(), partners.end());
      for (const auto& [a, b] : partners) {
        sig.push_back(a);
        sig.push_back(b);
      }
    }
    // Module signature: old color, sorted outgoing flow signatures, then
    // the (at most one) incoming flow signature.
    std::vector<std::vector<int>> msig(static_cast<std::size_t>(n));
    for (int m = 0; m < n; ++m) {
      std::vector<std::vector<int>> out;
      std::vector<std::vector<int>> in;
      for (int f = 0; f < nf; ++f) {
        const FlowSpec& fs = spec.flows[static_cast<std::size_t>(f)];
        if (fs.src_module == m) out.push_back(fsig[static_cast<std::size_t>(f)]);
        if (fs.dst_module == m) in.push_back(fsig[static_cast<std::size_t>(f)]);
      }
      std::sort(out.begin(), out.end());
      std::sort(in.begin(), in.end());
      std::vector<int>& sig = msig[static_cast<std::size_t>(m)];
      sig.push_back(colors[static_cast<std::size_t>(m)]);
      for (const auto& s : out) {
        sig.push_back(-2);
        sig.insert(sig.end(), s.begin(), s.end());
      }
      sig.push_back(-3);
      for (const auto& s : in) {
        sig.push_back(-4);
        sig.insert(sig.end(), s.begin(), s.end());
      }
    }
    std::vector<std::vector<int>> distinct = msig;
    std::sort(distinct.begin(), distinct.end());
    distinct.erase(std::unique(distinct.begin(), distinct.end()),
                   distinct.end());
    std::vector<int> next(static_cast<std::size_t>(n));
    for (int m = 0; m < n; ++m) {
      next[static_cast<std::size_t>(m)] = static_cast<int>(
          std::lower_bound(distinct.begin(), distinct.end(),
                           msig[static_cast<std::size_t>(m)]) -
          distinct.begin());
    }
    if (next == colors) return colors;
    colors = std::move(next);
  }
}

/// Individualization-refinement search for the unfixed policy: refine, pick
/// the first non-singleton color cell, branch on each member made its own
/// (earlier) cell, and keep the lexicographically smallest serialization.
/// Outlet cells prune *twins* — outlets fed by the same inlet whose flows
/// carry identical conflict sets are interchangeable by a true automorphism,
/// so one branch suffices. The leaf cap bounds pathological symmetric
/// inputs; hitting it can only cost cache hits (a non-minimal canonical
/// form), never correctness, because keys are compared by full text.
struct CanonSearch {
  const ProblemSpec& spec;
  const std::vector<std::vector<int>>& conf;
  std::string best;
  std::vector<int> best_mp;
  std::vector<int> best_fp;
  int leaves = 0;
  static constexpr int kMaxLeaves = 5000;

  void run(std::vector<int> colors) {
    if (leaves >= kMaxLeaves) return;
    colors = refine_colors(spec, conf, colors);
    const int n = spec.num_modules();
    // First (lowest-color) cell with more than one member.
    int target_color = -1;
    std::vector<int> cell;
    for (int c = 0; c < n && target_color < 0; ++c) {
      cell.clear();
      for (int m = 0; m < n; ++m) {
        if (colors[static_cast<std::size_t>(m)] == c) cell.push_back(m);
      }
      if (cell.size() > 1) target_color = c;
    }
    if (target_color < 0) {  // discrete: colors are the canonical labeling
      ++leaves;
      std::vector<int> fp;
      std::string text = serialize_canonical(spec, colors, fp);
      if (best.empty() || text < best) {
        best = std::move(text);
        best_mp = std::move(colors);
        best_fp = std::move(fp);
      }
      return;
    }
    std::set<std::pair<int, std::vector<int>>> outlet_twins_seen;
    for (const int m : cell) {
      if (!spec.is_inlet(m)) {
        // The outlet's one incoming flow identifies it up to automorphism.
        int f = -1;
        for (int g = 0; g < spec.num_flows(); ++g) {
          if (spec.flows[static_cast<std::size_t>(g)].dst_module == m) f = g;
        }
        auto key = std::pair{spec.flows[static_cast<std::size_t>(f)].src_module,
                             conf[static_cast<std::size_t>(f)]};
        if (!outlet_twins_seen.insert(std::move(key)).second) continue;
      }
      // Individualize m ahead of its cellmates: double every color to open
      // a gap, then slot m just below its old cell.
      std::vector<int> branched(colors.size());
      for (std::size_t i = 0; i < colors.size(); ++i) branched[i] = colors[i] * 2;
      branched[static_cast<std::size_t>(m)] = target_color * 2 - 1;
      run(std::move(branched));
    }
  }
};

}  // namespace

CanonicalForm ProblemSpec::canonical_form() const {
  CanonicalForm form;
  const int n = num_modules();
  std::vector<int> mp(static_cast<std::size_t>(n), -1);
  switch (policy) {
    case BindingPolicy::kClockwise:
      // The user-given clockwise sequence *is* the canonical module order;
      // it survives any relabeling untouched.
      for (int k = 0; k < n; ++k) {
        mp[static_cast<std::size_t>(clockwise_order[static_cast<std::size_t>(k)])] =
            k;
      }
      break;
    case BindingPolicy::kFixed: {
      // All modules are pinned to distinct pins: order by pin index.
      std::vector<ModulePin> by_pin = fixed_binding;
      std::sort(by_pin.begin(), by_pin.end(),
                [](const ModulePin& a, const ModulePin& b) {
                  return a.pin_index < b.pin_index;
                });
      for (int k = 0; k < n; ++k) {
        mp[static_cast<std::size_t>(by_pin[static_cast<std::size_t>(k)].module)] =
            k;
      }
      break;
    }
    case BindingPolicy::kUnfixed: {
      const auto conf = conflict_adjacency(*this);
      CanonSearch search{*this, conf, {}, {}, {}, 0};
      std::vector<int> colors(static_cast<std::size_t>(n));
      for (int m = 0; m < n; ++m) {
        colors[static_cast<std::size_t>(m)] = is_inlet(m) ? 0 : 1;
      }
      search.run(std::move(colors));
      form.text = std::move(search.best);
      form.module_to_canonical = std::move(search.best_mp);
      form.flow_to_canonical = std::move(search.best_fp);
      return form;
    }
  }
  form.module_to_canonical = std::move(mp);
  form.text = serialize_canonical(*this, form.module_to_canonical,
                                  form.flow_to_canonical);
  return form;
}

}  // namespace mlsi::synth
