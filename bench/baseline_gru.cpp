// Baseline study: this work's crossbar vs the GRU switch of the predecessor
// thesis (paper, Section 2.1 / Figure 2.2).
//
// The paper rejects the GRU design for four reasons; three are measured
// here on equal terms (same cases, same exact engine, unfixed binding):
//  1. insufficient routing space for contamination avoidance — fewer cases
//     admit a contamination-free routing on the GRU;
//  2. forced collisions — solvable cases need more flow sets (e.g. flows
//     from pins L and BL must serialize through node W);
//  3. sharp channel joints — the GRU's ~45-degree diagonals are flagged by
//     the junction-angle design rule, the crossbar's 90-degree joints pass.
// (Defect 4, control-channel spacing, lives on the control layer; see
// bench/control_routing.)

#include <cstdio>

#include "arch/crossbar.hpp"
#include "arch/gru.hpp"
#include "arch/design_rules.hpp"
#include "bench_util.hpp"
#include "cases/artificial.hpp"
#include "cases/cases.hpp"
#include "synth/cp_engine.hpp"

namespace {

using namespace mlsi;

struct Tally {
  int cases = 0;
  int solved = 0;
  int total_sets = 0;
  double total_length = 0.0;
};

void run_on(const arch::SwitchTopology& topo, const arch::PathSet& paths,
            const synth::ProblemSpec& spec, Tally& tally) {
  ++tally.cases;
  synth::EngineParams params;
  params.deadline = support::Deadline::after(20.0);
  const auto result = synth::solve_cp(topo, paths, spec, params);
  if (!result.ok()) return;
  ++tally.solved;
  tally.total_sets += result->num_sets;
  tally.total_length += result->flow_length_mm;
}

}  // namespace

int main() {
  std::printf("Baseline — crossbar (this work) vs GRU switch "
              "(paper Sec. 2.1, Fig. 2.2)\n\n");

  // Case pool: the paper's 8-pin application + the conflict-bearing
  // unfixed artificial cases that fit 8 pins.
  std::vector<synth::ProblemSpec> specs;
  specs.push_back(cases::nucleic_acid(synth::BindingPolicy::kUnfixed));
  for (std::uint64_t seed = 1; seed <= 24; ++seed) {
    cases::ArtificialParams p;
    p.pins_per_side = 2;
    p.num_inlets = 2 + static_cast<int>(seed % 2);
    p.num_outlets = 4 + static_cast<int>(seed % 2);
    p.num_conflict_pairs = 2 + static_cast<int>(seed % 3);
    p.policy = synth::BindingPolicy::kUnfixed;
    p.seed = 1000 + seed;
    specs.push_back(cases::make_artificial(p));
  }

  const arch::SwitchTopology crossbar = arch::make_crossbar(2);
  const arch::SwitchTopology gru = arch::make_gru(1);
  const arch::PathSet crossbar_paths = arch::enumerate_paths(crossbar);
  const arch::PathSet gru_paths = arch::enumerate_paths(gru);

  Tally crossbar_tally;
  Tally gru_tally;
  int crossbar_only = 0;
  int gru_only = 0;
  for (const auto& spec : specs) {
    const int before_c = crossbar_tally.solved;
    const int before_g = gru_tally.solved;
    run_on(crossbar, crossbar_paths, spec, crossbar_tally);
    run_on(gru, gru_paths, spec, gru_tally);
    const bool c_ok = crossbar_tally.solved > before_c;
    const bool g_ok = gru_tally.solved > before_g;
    if (c_ok && !g_ok) ++crossbar_only;
    if (g_ok && !c_ok) ++gru_only;
  }

  io::TextTable table({"architecture", "cases", "solved", "avg #sets",
                       "avg L(mm)", "sharp joints (<60 deg)"});
  const auto emit = [&](const char* name, const Tally& t,
                        const arch::SwitchTopology& topo) {
    table.add_row(
        {name, cat(t.cases), cat(t.solved),
         t.solved > 0 ? fmt_double(double(t.total_sets) / t.solved, 2) : "-",
         t.solved > 0 ? fmt_double(t.total_length / t.solved, 1) : "-",
         cat(arch::check_junction_angles(topo).size())});
  };
  emit("crossbar (this work)", crossbar_tally, crossbar);
  emit("GRU (predecessor)", gru_tally, gru);
  std::printf("%s\n", table.to_string().c_str());
  std::printf("cases solvable on the crossbar but not the GRU: %d\n",
              crossbar_only);
  std::printf("cases solvable on the GRU but not the crossbar: %d\n",
              gru_only);
  std::printf("\nshape check: crossbar solves a superset: %s\n",
              gru_only == 0 && crossbar_only >= 0 ? "yes" : "NO");
  return gru_only == 0 ? 0 : 1;
}
