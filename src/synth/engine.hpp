#pragma once

/// \file engine.hpp
/// \brief Shared interface and registry of the synthesis engines.
///
/// Both engines solve the same problem exactly:
///  * "cp" (cp_engine.hpp) — dedicated chronological branch & bound over
///    (binding, path, flow-set) assignments with incremental constraint
///    checks and, for unfixed bindings, symmetry breaking; fast on every
///    policy and the production choice. A large clockwise or unfixed solve
///    splits its root units over EngineParams::jobs workers and returns
///    the serial answer.
///  * "iqp" (iqp_engine.hpp) — faithful reconstruction of the paper's
///    IQP, constraints (3.1)-(3.13), solved with mlsi::opt (the in-repo
///    Gurobi substitute). Tractable for fixed-policy models of any size and
///    for small clockwise/unfixed models; used for cross-validation and the
///    engine ablation.
///
/// Engines share one call signature (EngineFn) and are resolved by name
/// through engine_from_string(), so the library, CLI and benches dispatch
/// uniformly. They read the switch model they are given (normally the
/// process-wide one of arch::switch_model(), symmetries included) and never
/// build their own. Engines return routing, binding, schedule, length and
/// objective; valve reduction, valve states and pressure sharing are
/// applied on top by the Synthesizer facade (synthesizer.hpp).

#include <string_view>
#include <vector>

#include "arch/paths.hpp"
#include "arch/topology.hpp"
#include "opt/milp.hpp"
#include "support/executor.hpp"
#include "synth/result.hpp"
#include "synth/spec.hpp"

namespace mlsi::synth {

struct EngineParams {
  /// Wall-clock budget for one synthesis; unlimited by default. When the
  /// deadline expires the best incumbent is returned with
  /// stats.proven_optimal = false (paper runs took up to 13,449 s; the
  /// benches default to tighter budgets). The deadline is absolute, so it
  /// propagates unchanged into nested MILP/LP solves.
  support::Deadline deadline;
  /// Cooperative cancellation, checked in every node loop (CP dive, B&B
  /// node, LP pivot). An engine observing a tripped token unwinds promptly
  /// with its best incumbent, exactly as if the deadline had expired.
  support::StopToken stop;
  /// Worker threads for the cp engine's split of a clockwise or unfixed
  /// solve over its root units (the first module's pin, or the first
  /// flow's pin pair); 0 means "use the hardware parallelism", and the
  /// calling thread counts as one of them. The split starts only once root
  /// unit 0 is large (cp_search.cpp), and its answer is the serial one at
  /// every value. Also forwarded to the MILP tree
  /// search of the IQP engine and the pressure ILP while MilpParams::jobs
  /// is left at 1.
  int jobs = 0;
  /// Forwarded to the MILP solver by the IQP engine and the pressure ILP;
  /// its deadline/stop are tightened to the engine's own before use.
  opt::MilpParams milp;

  // --- CP search (cp engine; cp_search.hpp) -------------------------------

  /// Binding symmetry breaking for the unfixed policy, two rules
  /// (cp_search.hpp): the first binding ranges over the orbit
  /// representatives of the path set's verified symmetries, falling back
  /// to the seed's quarter-turn restriction when only the identity
  /// verifies (with the default path cap, on every 12- and 16-pin
  /// crossbar), and interchangeable modules bind in increasing pin order.
  /// Off disables both (the ablation baseline of bench/cp_unfixed) — the
  /// full binding space is enumerated.
  bool cp_symmetry = true;
};

/// Common call signature of every registered engine.
using EngineFn = Result<SynthesisResult> (*)(const arch::SwitchTopology&,
                                             const arch::PathSet&,
                                             const ProblemSpec&,
                                             const EngineParams&);

/// Resolves an engine by name ("cp", "iqp"); kNotFound with
/// the known names otherwise. Mirrors binding_policy_from_string().
[[nodiscard]] Result<EngineFn> engine_from_string(std::string_view name);

/// Registered engine names, in registry order.
[[nodiscard]] std::vector<std::string_view> engine_names();

/// Adds a MILP solve's LP-engine telemetry (LP iterations and
/// factorizations, warm/cold starts, cuts generated/applied/dropped) into
/// \p into. Used by the IQP engine and the pressure-sharing ILP.
void add_milp_stats(EngineStats& into, const opt::SolveStats& from);

}  // namespace mlsi::synth
