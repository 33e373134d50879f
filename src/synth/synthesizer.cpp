#include "synth/synthesizer.hpp"

#include <algorithm>

#include "obs/trace.hpp"
#include "support/executor.hpp"
#include "support/timer.hpp"
#include "synth/valves.hpp"

namespace mlsi::synth {

Synthesizer::Synthesizer(ProblemSpec spec, SynthesisOptions options)
    : spec_(std::move(spec)),
      options_(std::move(options)),
      model_(&arch::switch_model(spec_.effective_pins_per_side(),
                                 options_.path_options)) {}

Result<SynthesisResult> Synthesizer::synthesize() const {
  obs::TraceSpan span("synth.synthesize");
  Timer timer;
  const auto engine = engine_from_string(options_.engine);
  if (!engine.ok()) return engine.status();
  Result<SynthesisResult> routed =
      (*engine)(topology(), paths(), spec_, options_.engine_params);
  if (!routed.ok()) return routed;
  apply_post_processing(*routed);
  routed->stats.runtime_s = timer.seconds();
  return routed;
}

void Synthesizer::apply_post_processing(SynthesisResult& result) const {
  obs::TraceSpan span("synth.post_processing");
  result.used_segments = union_segments(result.routed);
  result.flow_length_mm = segments_length_mm(topology(), result.used_segments);
  result.objective =
      spec_.alpha * result.num_sets + spec_.beta * result.flow_length_mm;

  // Essential-valve reduction.
  {
    obs::TraceSpan valve_span("synth.valve_reduction");
    switch (options_.reduction) {
      case ValveReductionRule::kNone: {
        result.essential_valves.clear();
        for (const int s : result.used_segments) {
          if (topology().segment(s).has_valve) {
            result.essential_valves.push_back(s);
          }
        }
        break;
      }
      case ValveReductionRule::kPaper:
        result.essential_valves = essential_valves_paper(
            topology(), spec_, result.routed, result.used_segments);
        break;
    }
  }

  // Valve schedule over the kept valves.
  {
    obs::TraceSpan schedule_span("synth.valve_schedule");
    const ValveSchedule sched = derive_valve_states(
        topology(), result.routed, result.num_sets, result.essential_valves);
    result.essential_valves = sched.valve_segments;
    result.valve_states = sched.states;
  }

  // Pressure sharing.
  obs::TraceSpan pressure_span("synth.pressure");
  switch (options_.pressure) {
    case PressureMode::kOff: {
      result.pressure_group.resize(result.essential_valves.size());
      for (std::size_t i = 0; i < result.pressure_group.size(); ++i) {
        result.pressure_group[i] = static_cast<int>(i);
      }
      result.num_pressure_groups = static_cast<int>(result.pressure_group.size());
      break;
    }
    case PressureMode::kGreedy:
    case PressureMode::kIlp: {
      const auto compat = valve_compatibility(result.valve_states);
      // The engine's deadline/stop cover the whole synthesis, pressure
      // sharing included (the ILP falls back to greedy when cut short).
      opt::MilpParams milp = options_.engine_params.milp;
      milp.deadline = support::Deadline::sooner(
          milp.deadline, options_.engine_params.deadline);
      milp.stop = options_.engine_params.stop;
      if (milp.jobs == 1) milp.jobs = options_.engine_params.jobs;
      const PressureGroups groups =
          options_.pressure == PressureMode::kGreedy
              ? pressure_groups_greedy(compat)
              : pressure_groups_ilp(compat, milp);
      result.pressure_group = groups.group;
      result.num_pressure_groups = groups.num_groups;
      // Surface the ILP's LP-engine telemetry next to the search stats.
      add_milp_stats(result.stats, groups.milp_stats);
      break;
    }
  }
}

Result<SynthesisResult> synthesize(const ProblemSpec& spec,
                                   const SynthesisOptions& options) {
  const Status valid = spec.validate();
  if (!valid.ok()) return valid;
  return Synthesizer(spec, options).synthesize();
}

std::vector<Result<SynthesisResult>> BatchSynthesizer::run_all(
    const std::vector<ProblemSpec>& specs, int jobs,
    double per_spec_budget_s) const {
  std::vector<Result<SynthesisResult>> results(
      specs.size(), Result<SynthesisResult>{Status::Internal("not run")});
  support::ThreadPool pool(std::min<int>(
      support::ThreadPool::resolve_jobs(jobs),
      std::max<int>(1, static_cast<int>(specs.size()))));
  for (std::size_t i = 0; i < specs.size(); ++i) {
    // Each worker writes only its own slot; the pool teardown joins before
    // `results` is read.
    pool.submit([&, i] {
      SynthesisOptions options = options_;
      if (per_spec_budget_s > 0.0) {
        // The relative budget starts now, when the worker picks the spec up.
        options.engine_params.deadline = support::Deadline::sooner(
            options.engine_params.deadline,
            support::Deadline::after(per_spec_budget_s));
      }
      results[i] = synthesize(specs[i], options);
    });
  }
  pool.wait_idle();
  return results;
}

}  // namespace mlsi::synth
