// mlsi_synth — command-line switch synthesis.
//
// Usage:
//   mlsi_synth <case.json> [options]
//
// Options:
//   --policy fixed|clockwise|unfixed   override the case's binding policy
//   --engine cp|iqp                    synthesis engine (default cp)
//   --jobs N                           worker threads for a large clockwise
//                                      or unfixed cp solve, which splits
//                                      its root units and returns the
//                                      serial answer (default 0 = all
//                                      hardware threads)
//   --time-limit <seconds>             wall budget (default 120)
//   --pressure off|greedy|ilp          pressure sharing (default ilp)
//   --cp-symmetry on|off               binding symmetry breaking (unfixed)
//                                      from verified switch automorphisms
//                                      (default on; off enumerates the full
//                                      binding space)
//   --no-reduction                     keep a valve on every used segment
//   --svg <path>                       write the synthesized switch drawing
//   --control <path>                   route the control layer, write overlay
//   --json <path>                      write the machine-readable result
//                                      (schema documented in README.md;
//                                      carries a "version" field)
//   --export-lp <path>                 write the paper's IQP model in CPLEX
//                                      LP format (for Gurobi/SCIP/HiGHS)
//   --trace-out <path>                 record a Chrome trace-event JSON of
//                                      the run (open in Perfetto /
//                                      chrome://tracing); the solver's
//                                      search events (incumbents, B&B
//                                      nodes, prunes, branches) are its
//                                      instants, with their fields in
//                                      "args"
//   --metrics-out <path>               write the metrics registry snapshot
//                                      (counters/histograms/series) as JSON
//   --quiet                            suppress the human-readable report
//
// Exit codes: 0 success (validated), 2 infeasible, 3 budget exhausted,
// 1 any other error.

#include <cstdio>
#include <string>

#include "control/router.hpp"
#include "io/case_io.hpp"
#include "obs/obs.hpp"
#include "io/report.hpp"
#include "io/svg.hpp"
#include "opt/lp_format.hpp"
#include "sim/simulator.hpp"
#include "support/argparse.hpp"
#include "support/strings.hpp"
#include "synth/iqp_engine.hpp"
#include "synth/synthesizer.hpp"

namespace {

using namespace mlsi;

int usage(const char* argv0) {
  std::fprintf(
      stderr,
      "usage: %s <case.json> [--policy fixed|clockwise|unfixed]\n"
      "       [--engine cp|iqp] [--jobs N] [--time-limit S]\n"
      "       [--pressure off|greedy|ilp] [--no-reduction]\n"
      "       [--cp-symmetry on|off] [--svg F]\n"
      "       [--control F] [--json F] [--export-lp F] [--trace-out F]\n"
      "       [--metrics-out F] [--quiet]\n",
      argv0);
  return 1;
}

/// Everything the tool does besides synthesis proper.
struct ToolOptions {
  std::string case_path;
  std::string policy_override;
  std::string svg_path;
  std::string control_path;
  std::string json_path;
  std::string lp_path;
  std::string trace_path;
  std::string metrics_path;
  bool quiet = false;
};

/// Fills synthesis + tool options from argv in one place. The time limit
/// becomes an absolute Deadline here — the budget covers engine and
/// post-processing, starting now.
Status parse_options(support::ArgParser& args, synth::SynthesisOptions& synth,
                     ToolOptions& tool) {
  if (const auto v = args.option("--engine")) {
    const auto engine = synth::engine_from_string(*v);
    if (!engine.ok()) return engine.status();
    synth.engine = *v;
  }
  synth.engine_params.jobs =
      static_cast<int>(args.number("--jobs", 0));
  synth.engine_params.deadline =
      support::Deadline::after(args.number("--time-limit", 120.0));
  if (const auto v = args.option("--pressure")) {
    if (*v == "off") {
      synth.pressure = synth::PressureMode::kOff;
    } else if (*v == "greedy") {
      synth.pressure = synth::PressureMode::kGreedy;
    } else if (*v == "ilp") {
      synth.pressure = synth::PressureMode::kIlp;
    } else {
      return Status::InvalidArgument(cat("unknown pressure mode '", *v, "'"));
    }
  }
  if (args.flag("--no-reduction")) {
    synth.reduction = synth::ValveReductionRule::kNone;
  }
  if (const auto v = args.option("--cp-symmetry")) {
    if (*v != "on" && *v != "off") {
      return Status::InvalidArgument(
          cat("--cp-symmetry expects on|off, got '", *v, "'"));
    }
    synth.engine_params.cp_symmetry = *v == "on";
  }
  tool.policy_override = args.option("--policy").value_or("");
  tool.svg_path = args.option("--svg").value_or("");
  tool.control_path = args.option("--control").value_or("");
  tool.json_path = args.option("--json").value_or("");
  tool.lp_path = args.option("--export-lp").value_or("");
  tool.trace_path = args.option("--trace-out").value_or("");
  tool.metrics_path = args.option("--metrics-out").value_or("");
  tool.quiet = args.flag("--quiet");
  const Status parsed = args.finish(1);
  if (!parsed.ok()) return parsed;
  tool.case_path = args.positionals().front();
  return Status::Ok();
}

/// Turns on the requested observability outputs for the whole run and
/// flushes them on every exit path (including the early error returns).
struct ObsSession {
  std::string trace_path;
  std::string metrics_path;

  explicit ObsSession(const ToolOptions& tool)
      : trace_path(tool.trace_path), metrics_path(tool.metrics_path) {
    if (!trace_path.empty()) obs::Tracer::instance().enable();
    if (!metrics_path.empty()) obs::Metrics::instance().enable();
  }

  ~ObsSession() {
    if (!trace_path.empty()) {
      obs::Tracer::instance().disable();
      const Status s = obs::Tracer::instance().write(trace_path);
      if (!s.ok()) std::fprintf(stderr, "trace: %s\n", s.to_string().c_str());
    }
    if (!metrics_path.empty()) {
      obs::Metrics::instance().disable();
      const Status s = obs::Metrics::instance().write(metrics_path);
      if (!s.ok()) {
        std::fprintf(stderr, "metrics: %s\n", s.to_string().c_str());
      }
    }
  }
};

}  // namespace

int main(int argc, char** argv) {
  support::ArgParser args(argc, argv);
  synth::SynthesisOptions options;
  ToolOptions tool;
  const Status parsed = parse_options(args, options, tool);
  if (!parsed.ok()) {
    std::fprintf(stderr, "error: %s\n", parsed.to_string().c_str());
    return usage(argv[0]);
  }
  ObsSession obs_session(tool);

  auto spec = io::load_spec(tool.case_path);
  if (!spec.ok()) {
    std::fprintf(stderr, "error: %s\n", spec.status().to_string().c_str());
    return 1;
  }
  if (!tool.policy_override.empty()) {
    const auto policy =
        synth::binding_policy_from_string(tool.policy_override);
    if (!policy.ok()) {
      std::fprintf(stderr, "error: %s\n", policy.status().to_string().c_str());
      return 1;
    }
    spec->policy = *policy;
    const Status revalidated = spec->validate();
    if (!revalidated.ok()) {
      std::fprintf(stderr,
                   "error: case is not usable under --policy %s: %s\n",
                   tool.policy_override.c_str(),
                   revalidated.to_string().c_str());
      return 1;
    }
  }

  synth::Synthesizer synthesizer(*spec, options);
  if (!tool.lp_path.empty()) {
    const auto model = synth::build_iqp_model(synthesizer.topology(),
                                              synthesizer.paths(), *spec);
    if (!model.ok()) {
      std::fprintf(stderr, "export-lp: %s\n",
                   model.status().to_string().c_str());
    } else {
      const Status s = opt::save_lp_format(tool.lp_path, *model);
      if (!s.ok()) {
        std::fprintf(stderr, "export-lp: %s\n", s.to_string().c_str());
      } else if (!tool.quiet) {
        std::printf("wrote IQP model (%d vars, %d constraints) to %s\n",
                    model->num_vars(), model->num_constraints(),
                    tool.lp_path.c_str());
      }
    }
  }
  auto result = synthesizer.synthesize();
  if (!result.ok()) {
    std::fprintf(stderr, "%s\n", result.status().to_string().c_str());
    switch (result.status().code()) {
      case StatusCode::kInfeasible: return 2;
      case StatusCode::kTimeout: return 3;
      default: return 1;
    }
  }
  const auto outcome = sim::harden(synthesizer.topology(), *spec, *result);

  if (!tool.quiet) {
    io::TextTable table({"feature", "value"});
    table.add_row({"case", spec->name});
    table.add_row({"switch", synthesizer.topology().name()});
    table.add_row({"binding policy", std::string{to_string(spec->policy)}});
    table.add_row({"engine", result->stats.engine});
    table.add_row({"runtime (s)", fmt_double(result->stats.runtime_s, 3)});
    table.add_row({"proven optimal",
                   result->stats.proven_optimal ? "yes" : "no (budget)"});
    table.add_row({"flow sets", cat(result->num_sets)});
    table.add_row({"channel length (mm)",
                   fmt_double(result->flow_length_mm, 1)});
    table.add_row({"essential valves", cat(result->num_valves())});
    table.add_row({"control inlets", cat(result->num_pressure_groups)});
    table.add_row({"valve reduction",
                   std::string{to_string(outcome.level)}});
    table.add_row({"flow simulation", outcome.report.summary()});
    std::printf("%s", table.to_string().c_str());
  }

  if (!tool.svg_path.empty()) {
    const Status s = io::write_svg(
        tool.svg_path,
        io::render_result(synthesizer.topology(), *spec, *result));
    if (!s.ok()) std::fprintf(stderr, "svg: %s\n", s.to_string().c_str());
  }
  if (!tool.json_path.empty()) {
    const Status s = json::write_file(
        tool.json_path,
        io::result_to_json(synthesizer.topology(), *spec, *result));
    if (!s.ok()) std::fprintf(stderr, "json: %s\n", s.to_string().c_str());
  }
  if (!tool.control_path.empty()) {
    const auto plan = control::route_control(synthesizer.topology(), *result);
    if (!plan.ok()) {
      std::fprintf(stderr, "control routing: %s\n",
                   plan.status().to_string().c_str());
    } else {
      if (!tool.quiet) {
        std::printf("control layer: %zu nets, %.1f mm channel, %d flow "
                    "crossings\n",
                    plan->nets.size(), plan->total_length_mm,
                    plan->total_crossings);
      }
      const Status s = io::write_svg(
          tool.control_path,
          control::render_control_svg(synthesizer.topology(), *result,
                                      *plan));
      if (!s.ok()) {
        std::fprintf(stderr, "control svg: %s\n", s.to_string().c_str());
      }
    }
  }
  return outcome.report.ok() ? 0 : 1;
}
