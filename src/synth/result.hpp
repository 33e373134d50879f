#pragma once

/// \file result.hpp
/// \brief Synthesis output (the paper's "Output" in Section 2.3): routed
/// flows with their flow-set schedule, module-pin binding, the reduced
/// application-specific switch (used segments, essential valves), valve
/// state schedules and pressure-sharing groups.

#include <string>
#include <vector>

#include "arch/paths.hpp"
#include "arch/topology.hpp"
#include "synth/spec.hpp"

namespace mlsi::synth {

/// One flow after synthesis.
struct RoutedFlow {
  int flow = -1;     ///< index into ProblemSpec::flows
  int set = -1;      ///< flow-set (execution step) index, 0-based
  arch::Path path;   ///< routed path (self-contained copy)
};

/// Valve status within one flow set (paper, Section 3.5 / Figure 3.2).
enum class ValveState : char {
  kOpen = 'O',
  kClosed = 'C',
  kDontCare = 'X',
};

[[nodiscard]] char to_char(ValveState s);

struct EngineStats {
  std::string engine;     ///< "cp" or "iqp"
  double runtime_s = 0.0; ///< the paper's column T
  long nodes = 0;         ///< search nodes / B&B nodes
  bool proven_optimal = false;
  // LP-engine telemetry (nonzero only on MILP-backed paths: the iqp engine
  // and the pressure-sharing ILP).
  long lp_iterations = 0;     ///< simplex pivots across all relaxations
  long lp_factorizations = 0; ///< basis (re)factorizations
  long warm_starts = 0;       ///< child LPs re-entered from a parent basis
  long cold_starts = 0;       ///< LPs cold-started from the slack basis
  long cuts_generated = 0;    ///< Gomory rows derived at MILP roots
  long cuts_applied = 0;      ///< cut rows appended to the relaxations
  long cuts_dropped = 0;      ///< cut rows filtered by the pool
  // Always 0 (no engine restarts or learns); kept for existing readers.
  long nogood_hits = 0;
  long restarts = 0;
};

struct SynthesisResult {
  /// Routed flows, one per spec flow, in spec order.
  std::vector<RoutedFlow> routed;
  /// Module index -> pin vertex id.
  std::vector<int> binding;
  /// Number of flow sets used (paper's #s).
  int num_sets = 0;
  /// Sorted ids of flow segments kept in the application-specific switch.
  std::vector<int> used_segments;
  /// Total used flow-channel length in mm (paper's L).
  double flow_length_mm = 0.0;
  /// alpha * num_sets + beta * flow_length_mm.
  double objective = 0.0;

  /// Sorted ids of segments whose valve is essential (paper's #v).
  std::vector<int> essential_valves;
  /// valve_states[set][i] = state of essential_valves[i] in that set.
  std::vector<std::vector<ValveState>> valve_states;

  /// pressure_group[i] = control-inlet group of essential_valves[i];
  /// empty when pressure sharing was not requested.
  std::vector<int> pressure_group;
  int num_pressure_groups = 0;

  EngineStats stats;

  [[nodiscard]] int num_valves() const {
    return static_cast<int>(essential_valves.size());
  }

  /// Pin vertex the flow enters / leaves the switch at.
  [[nodiscard]] int inlet_pin(int flow) const;
  [[nodiscard]] int outlet_pin(int flow) const;
};

/// Sorted union of the segments of all routed paths.
std::vector<int> union_segments(const std::vector<RoutedFlow>& routed);

/// Total length (mm) of \p segment_ids in \p topo.
double segments_length_mm(const arch::SwitchTopology& topo,
                          const std::vector<int>& segment_ids);

}  // namespace mlsi::synth
