#include "synth/pressure.hpp"

#include <algorithm>
#include <map>

#include "support/strings.hpp"

namespace mlsi::synth {

std::vector<std::vector<bool>> valve_compatibility(
    const std::vector<std::vector<ValveState>>& states) {
  const std::size_t n = states.empty() ? 0 : states.front().size();
  for (const auto& row : states) {
    MLSI_ASSERT(row.size() == n, "ragged valve state matrix");
  }
  std::vector<std::vector<bool>> compat(n, std::vector<bool>(n, true));
  for (std::size_t i = 0; i < n; ++i) {
    for (std::size_t j = i + 1; j < n; ++j) {
      bool ok = true;
      for (const auto& row : states) {
        const ValveState a = row[i];
        const ValveState b = row[j];
        if ((a == ValveState::kOpen && b == ValveState::kClosed) ||
            (a == ValveState::kClosed && b == ValveState::kOpen)) {
          ok = false;
          break;
        }
      }
      compat[i][j] = compat[j][i] = ok;
    }
  }
  return compat;
}

bool groups_valid(const std::vector<std::vector<bool>>& compatible,
                  const PressureGroups& groups) {
  const std::size_t n = compatible.size();
  if (groups.group.size() != n) return false;
  std::map<int, std::vector<std::size_t>> members;
  for (std::size_t v = 0; v < n; ++v) {
    const int g = groups.group[v];
    if (g < 0 || g >= groups.num_groups) return false;
    members[g].push_back(v);
  }
  for (const auto& [g, vs] : members) {
    (void)g;
    for (std::size_t i = 0; i < vs.size(); ++i) {
      for (std::size_t j = i + 1; j < vs.size(); ++j) {
        if (!compatible[vs[i]][vs[j]]) return false;
      }
    }
  }
  return true;
}

PressureGroups pressure_groups_greedy(
    const std::vector<std::vector<bool>>& compatible) {
  const std::size_t n = compatible.size();
  PressureGroups out;
  out.group.assign(n, -1);
  std::vector<std::vector<std::size_t>> members;
  for (std::size_t v = 0; v < n; ++v) {
    bool placed = false;
    for (std::size_t g = 0; g < members.size() && !placed; ++g) {
      const bool fits =
          std::all_of(members[g].begin(), members[g].end(),
                      [&](std::size_t u) { return compatible[u][v]; });
      if (fits) {
        members[g].push_back(v);
        out.group[v] = static_cast<int>(g);
        placed = true;
      }
    }
    if (!placed) {
      out.group[v] = static_cast<int>(members.size());
      members.push_back({v});
    }
  }
  out.num_groups = static_cast<int>(members.size());
  out.proven_optimal = out.num_groups <= 1;
  MLSI_ASSERT(groups_valid(compatible, out), "greedy grouped incompatibles");
  return out;
}

PressureGroups pressure_groups_ilp(
    const std::vector<std::vector<bool>>& compatible,
    const opt::MilpParams& params) {
  const int n = static_cast<int>(compatible.size());
  if (n == 0) return PressureGroups{{}, 0, true, opt::SolveStats{}};

  // The greedy cover bounds the number of cliques the ILP needs to offer —
  // tighter than the paper's "initial size = number of valves".
  const PressureGroups greedy = pressure_groups_greedy(compatible);
  const int max_cliques = greedy.num_groups;

  opt::Model model;
  // z[v][c]: valve v belongs to clique c (3.14); symmetry-reduced so valve v
  // only uses cliques 0..min(v, max-1).
  std::vector<std::vector<opt::Var>> z(static_cast<std::size_t>(n));
  std::vector<opt::Var> clique(static_cast<std::size_t>(max_cliques));
  for (int c = 0; c < max_cliques; ++c) {
    clique[static_cast<std::size_t>(c)] = model.add_binary(cat("clique_", c));
  }
  for (int v = 0; v < n; ++v) {
    const int allowed = std::min(v + 1, max_cliques);
    opt::LinExpr one_clique;
    for (int c = 0; c < allowed; ++c) {
      const opt::Var zv = model.add_binary(cat("z_", v, "_", c));
      z[static_cast<std::size_t>(v)].push_back(zv);
      one_clique += opt::LinExpr{zv};
      // (3.15): an occupied clique is counted.
      model.add_constraint(opt::LinExpr{zv} - opt::LinExpr{clique[static_cast<std::size_t>(c)]},
                           opt::Sense::kLe, 0.0);
    }
    // (3.14): every valve in exactly one clique.
    model.add_constraint(one_clique, opt::Sense::kEq, 1.0);
  }
  // (3.16): incompatible valves never share a clique.
  for (int v1 = 0; v1 < n; ++v1) {
    for (int v2 = v1 + 1; v2 < n; ++v2) {
      if (compatible[static_cast<std::size_t>(v1)][static_cast<std::size_t>(v2)]) {
        continue;
      }
      const int cmax = std::min({v1 + 1, v2 + 1, max_cliques});
      for (int c = 0; c < cmax; ++c) {
        model.add_constraint(
            opt::LinExpr{z[static_cast<std::size_t>(v1)][static_cast<std::size_t>(c)]} +
                opt::LinExpr{z[static_cast<std::size_t>(v2)][static_cast<std::size_t>(c)]},
            opt::Sense::kLe, 1.0);
      }
    }
  }
  // (3.17): minimize occupied cliques.
  opt::LinExpr objective;
  for (const opt::Var c : clique) objective += opt::LinExpr{c};
  model.set_objective(objective, /*minimize=*/true);

  const opt::Solution sol = opt::solve_milp(model, params);
  if (!sol.has_solution()) return greedy;  // budget fallback

  PressureGroups out;
  out.milp_stats = sol.stats;
  out.group.assign(static_cast<std::size_t>(n), -1);
  // Compact clique ids to 0..k-1 in first-use order.
  std::map<int, int> remap;
  for (int v = 0; v < n; ++v) {
    for (std::size_t c = 0; c < z[static_cast<std::size_t>(v)].size(); ++c) {
      if (sol.value_bool(z[static_cast<std::size_t>(v)][c])) {
        const auto [it, inserted] =
            remap.emplace(static_cast<int>(c), static_cast<int>(remap.size()));
        (void)inserted;
        out.group[static_cast<std::size_t>(v)] = it->second;
        break;
      }
    }
  }
  out.num_groups = static_cast<int>(remap.size());
  out.proven_optimal = sol.status == opt::MilpStatus::kOptimal;
  if (!groups_valid(compatible, out)) return greedy;  // paranoia fallback
  return out;
}

}  // namespace mlsi::synth
