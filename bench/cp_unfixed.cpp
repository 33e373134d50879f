// Symmetry-breaking ablation on the unfixed-binding cases: the CP search
// with binding symmetry breaking off (cp_symmetry = false — the full
// binding space) vs the default search (the first binding restricted to
// one pin per orbit of the verified switch symmetries, or to the first
// side of the crossbar where only the identity verifies, and
// interchangeable modules bound in increasing pin order).
//
// Shape to reproduce: identical proven objective on every case (the
// pruning is exact), with the default search visiting a fraction of the
// nodes. `--smoke` gates the claim for CI: on the pinned case — the
// hardest reconstructed unfixed-policy case whose baseline still proves
// within the bench budget — the default search must prove the same
// optimum within 50% of the baseline's nodes, exploring exactly
// kPinnedNodes, else the binary exits nonzero. (mRNA's unreduced
// baseline does not prove in-budget at all; it is reported, not gated.)

#include <cmath>
#include <cstdio>
#include <cstring>

#include "bench_util.hpp"
#include "cases/cases.hpp"
#include "support/timer.hpp"
#include "synth/cp_engine.hpp"

namespace {

/// Nodes the default search explores on the pinned case. The search is
/// deterministic, so any other count means its pruning changed.
constexpr long kPinnedNodes = 107'672;

}  // namespace

int main(int argc, char** argv) {
  using namespace mlsi;
  using synth::BindingPolicy;

  bool smoke = false;
  for (int i = 1; i < argc; ++i) {
    if (std::strcmp(argv[i], "--smoke") == 0) smoke = true;
  }
  bench::init("cp_unfixed");
  std::printf("CP search with vs without binding symmetry breaking — "
              "unfixed binding%s\n\n", smoke ? " (smoke gate)" : "");

  struct Row {
    const char* name;
    synth::ProblemSpec (*make)(BindingPolicy);
    bool pinned;  ///< the --smoke gate case
  };
  const Row rows[] = {
      {"ChIP (SW1)", cases::chip_sw1, true},
      {"kinase (SW1)", cases::kinase_sw1, false},
      {"nucleic acid", cases::nucleic_acid, false},
  };

  io::TextTable table(
      {"case", "config", "objective", "proven", "nodes", "T(s)"});
  bool gate_ok = true;
  for (const Row& row : rows) {
    const synth::ProblemSpec spec = row.make(BindingPolicy::kUnfixed);
    synth::Synthesizer syn(spec);

    synth::EngineParams baseline;
    baseline.deadline = support::Deadline::after(300.0);
    baseline.cp_symmetry = false;
    Timer t_base;
    const auto full = solve_cp(syn.topology(), syn.paths(), spec, baseline);
    const double base_s = t_base.seconds();

    synth::EngineParams defaults;
    defaults.deadline = support::Deadline::after(300.0);
    Timer t_default;
    const auto reduced = solve_cp(syn.topology(), syn.paths(), spec, defaults);
    const double default_s = t_default.seconds();

    json::Object rec;
    rec["case"] = json::Value{spec.name};
    rec["pinned"] = json::Value{row.pinned};
    if (!full.ok() || !reduced.ok()) {
      const bool agree_infeasible =
          full.status().code() == StatusCode::kInfeasible &&
          reduced.status().code() == StatusCode::kInfeasible;
      if (row.pinned || !agree_infeasible) gate_ok = false;
      table.add_row({row.name, "both", "no solution", "-", "-",
                     fmt_double(base_s + default_s, 3)});
      rec["ok"] = json::Value{false};
      bench::Telemetry::instance().record(std::move(rec));
      continue;
    }
    const auto add = [&](const char* config,
                         const synth::SynthesisResult& r, double secs) {
      table.add_row({row.name, config, fmt_double(r.objective, 3),
                     r.stats.proven_optimal ? "yes" : "NO",
                     cat(r.stats.nodes), fmt_double(secs, 3)});
    };
    add("no symmetry", *full, base_s);
    add("default", *reduced, default_s);

    const bool same_optimum =
        std::abs(full->objective - reduced->objective) < 1e-9 &&
        full->stats.proven_optimal && reduced->stats.proven_optimal;
    const double node_ratio =
        full->stats.nodes > 0
            ? static_cast<double>(reduced->stats.nodes) /
                  static_cast<double>(full->stats.nodes)
            : 1.0;
    if (!same_optimum) gate_ok = false;
    if (row.pinned &&
        (node_ratio > 0.5 || reduced->stats.nodes != kPinnedNodes)) {
      gate_ok = false;
    }

    rec["ok"] = json::Value{true};
    rec["objective"] = json::Value{reduced->objective};
    rec["same_optimum"] = json::Value{same_optimum};
    rec["baseline_nodes"] =
        json::Value{static_cast<double>(full->stats.nodes)};
    rec["default_nodes"] =
        json::Value{static_cast<double>(reduced->stats.nodes)};
    rec["node_ratio"] = json::Value{node_ratio};
    rec["baseline_wall_s"] = json::Value{base_s};
    rec["default_wall_s"] = json::Value{default_s};
    bench::Telemetry::instance().record(std::move(rec));
  }
  std::printf("%s\n", table.to_string().c_str());
  std::printf("shape check: same proven optimum everywhere, and on the "
              "pinned case <= 50%% of the baseline nodes and exactly %ld "
              "default nodes: %s\n",
              kPinnedNodes, gate_ok ? "yes" : "NO");
  return gate_ok ? 0 : 1;
}
