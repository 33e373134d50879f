#pragma once

/// \file synthesizer.hpp
/// \brief One-call synthesis pipeline: switch model -> engine ->
/// application-specific reduction -> valve schedule -> pressure sharing.
///
/// This is the library's main entry point:
///
/// \code
///   mlsi::synth::ProblemSpec spec = ...;
///   mlsi::synth::Synthesizer syn(spec);
///   auto result = syn.synthesize();
///   if (result.ok()) { ... result->flow_length_mm ... }
/// \endcode
///
/// Engines are selected by name (SynthesisOptions::engine: "cp" or "iqp",
/// resolved through engine_from_string()); BatchSynthesizer fans a sweep of
/// independent specs out over a thread pool. A Synthesizer builds no switch
/// model of its own: it points at arch::switch_model()'s, shared with every
/// other Synthesizer, batch worker and server in the process.

#include <string>
#include <vector>

#include "arch/paths.hpp"
#include "synth/engine.hpp"
#include "synth/pressure.hpp"

namespace mlsi::synth {

enum class ValveReductionRule {
  kNone,   ///< keep a valve on every used segment
  kPaper,  ///< the aggregate inlet-subset rule of Section 3.5
};

enum class PressureMode {
  kOff,     ///< one control inlet per essential valve
  kGreedy,  ///< first-fit heuristic cover
  kIlp,     ///< exact clique-cover ILP (3.14)-(3.17)
};

struct SynthesisOptions {
  /// Engine name as registered in engine_from_string(): "cp" (default,
  /// fast on all policies) or "iqp" (the paper's model). An unknown name
  /// surfaces as kNotFound from synthesize().
  std::string engine = "cp";
  EngineParams engine_params;
  ValveReductionRule reduction = ValveReductionRule::kPaper;
  PressureMode pressure = PressureMode::kIlp;
  /// Candidate-path options; with the switch size they key the shared
  /// switch model (arch::switch_model()).
  arch::PathEnumOptions path_options;
};

/// Runs the pipeline for one spec on the shared switch model.
class Synthesizer {
 public:
  /// Looks up the switch model (spec.pins_per_side, or the smallest size
  /// fitting the module count), building it on the process's first use.
  /// Throws AssertionError only on programmer error; a bad spec surfaces
  /// from synthesize().
  explicit Synthesizer(ProblemSpec spec, SynthesisOptions options = {});

  [[nodiscard]] const arch::SwitchTopology& topology() const {
    return model_->topology;
  }
  [[nodiscard]] const arch::PathSet& paths() const { return model_->paths; }
  [[nodiscard]] const ProblemSpec& spec() const { return spec_; }
  [[nodiscard]] const SynthesisOptions& options() const { return options_; }

  /// Runs engine + post-processing. stats.runtime_s covers the whole call.
  [[nodiscard]] Result<SynthesisResult> synthesize() const;

  /// Recomputes reduction, valve states and pressure groups on an existing
  /// routing (used by ablations that re-route or re-reduce). Honours the
  /// engine deadline/stop for the pressure ILP.
  void apply_post_processing(SynthesisResult& result) const;

 private:
  ProblemSpec spec_;
  SynthesisOptions options_;
  const arch::SwitchModel* model_;
};

/// Convenience free function for one-shot use.
Result<SynthesisResult> synthesize(const ProblemSpec& spec,
                                   const SynthesisOptions& options = {});

/// Synthesizes many independent specs concurrently. Each spec runs the full
/// Synthesizer pipeline on a pool worker with identical options; only a
/// clockwise solve whose first subtree is large starts a pool of its own
/// (EngineParams::jobs).
class BatchSynthesizer {
 public:
  explicit BatchSynthesizer(SynthesisOptions options = {})
      : options_(std::move(options)) {}

  [[nodiscard]] const SynthesisOptions& options() const { return options_; }

  /// Runs every spec on \p jobs workers (0 = hardware parallelism) and
  /// returns the results in spec order. Deterministic per entry: each
  /// result is exactly what a serial synthesize(spec, options) returns.
  /// A positive \p per_spec_budget_s grants each spec its own relative wall
  /// budget, starting when its worker picks it up (the shared options
  /// deadline is absolute and would make all specs race one clock); the
  /// sooner of the two limits applies.
  [[nodiscard]] std::vector<Result<SynthesisResult>> run_all(
      const std::vector<ProblemSpec>& specs, int jobs = 0,
      double per_spec_budget_s = 0.0) const;

 private:
  SynthesisOptions options_;
};

}  // namespace mlsi::synth
