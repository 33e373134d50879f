#pragma once

// Workload entry points and the metric catalogues every run reports.

#include <map>
#include <string>
#include <utility>
#include <vector>

#include "common.hpp"

namespace perfbench {

using Catalogue = std::vector<std::pair<std::string, std::string>>;  // name, unit

/// Tries behind each timed set-up: a set-up takes its best try, and
/// setup_s is the median over a run's set-ups.
inline constexpr int kSetupTries = 5;

/// End-to-end metrics, printed by every untraced run.
const Catalogue& end_to_end_catalogue();
/// Per-layer metrics, printed by every traced run. A layer that is not on a
/// workload's path reports 0 there.
const Catalogue& per_layer_catalogue();

/// Values by metric name; fill() checks the names against a catalogue.
using Values = std::map<std::string, double>;
/// Copies \p values into \p out in catalogue order. Unknown names are a
/// bug; names missing from \p values are an error when \p complete is set
/// and report 0 otherwise.
bool fill(const Catalogue& catalogue, const Values& values, bool complete,
          MetricTable* out, std::string* error);

/// hard_cases and fixed_sweep: spec text -> parse -> Synthesizer ->
/// synthesize() -> sim::harden -> result JSON, one input at a time.
RunOutcome run_library(const RunOptions& options);

/// serve_zipf: an in-process serve::Server restarted from its store, then
/// closed-loop clients sending request lines through handle_line().
RunOutcome run_serve(const RunOptions& options);

/// Solves every pool entry once and writes reference/<workload>.json;
/// cross-checks a seeded sample of fixed-policy entries with the iqp engine.
int generate_references(const std::string& dir);

}  // namespace perfbench
