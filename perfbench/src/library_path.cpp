// hard_cases and fixed_sweep: the synthesis library path, one input at a
// time. The measured path is what a library user runs:
//
//   json::parse + io::spec_from_json -> synth::Synthesizer -> synthesize()
//   -> sim::harden -> io::result_to_json + dump
//
// A traced run replays it split into the public calls synthesize() makes
// (engine, valves, pressure), each wrapped in a span, and first proves the
// split produces byte-identical designs.

#include <algorithm>
#include <limits>
#include <optional>

#include "inputs.hpp"
#include "io/case_io.hpp"
#include "obs/metrics.hpp"
#include "sim/simulator.hpp"
#include "support/log.hpp"
#include "support/strings.hpp"
#include "synth/synthesizer.hpp"
#include "synth/valves.hpp"
#include "workloads.hpp"

namespace perfbench {

using mlsi::cat;
namespace json = mlsi::json;
namespace synth = mlsi::synth;

namespace {

/// What one input produced.
struct Answer {
  bool ok = false;  ///< a design or a proven-infeasible verdict
  bool infeasible = false;
  std::string error;
  std::string design;  ///< result_to_json(...).dump(); empty when infeasible
};

/// Exact counts of one traced pass.
struct PassCounts {
  long models_built = 0;
  long cp_nodes = 0;
  long cp_restarts = 0;
  long cp_nogood_hits = 0;
  long valves_kept = 0;
  long bb_nodes = 0;
  long lp_iterations = 0;
  long control_inlets = 0;
  long escalations = 0;
  std::map<std::string, long> nodes_by_input;

  bool operator==(const PassCounts&) const = default;
};

Answer finish_unsolved(const mlsi::Status& status) {
  Answer a;
  if (status.code() == mlsi::StatusCode::kInfeasible) {
    a.ok = a.infeasible = true;
  } else {
    a.error = status.to_string();
  }
  return a;
}

Answer answer_plain(const std::string& text,
                    const synth::SynthesisOptions& options) {
  auto doc = json::parse(text);
  if (!doc.ok()) return finish_unsolved(doc.status());
  auto spec = mlsi::io::spec_from_json(*doc);
  if (!spec.ok()) return finish_unsolved(spec.status());
  const synth::Synthesizer syn(std::move(*spec), options);
  auto result = syn.synthesize();
  if (!result.ok()) return finish_unsolved(result.status());
  mlsi::sim::harden(syn.topology(), syn.spec(), *result, options.pressure);
  Answer a;
  a.ok = true;
  a.design = mlsi::io::result_to_json(syn.topology(), syn.spec(), *result).dump();
  return a;
}

/// The same pipeline split into the public calls Synthesizer::synthesize()
/// and apply_post_processing() make, one span per layer. \p syn is built
/// here and torn down by the caller.
Answer split_layers(const std::string& name, const std::string& text,
                    const synth::SynthesisOptions& options, SpanLog& log,
                    long input, PassCounts& counts, double& first_incumbent_ms,
                    std::optional<synth::Synthesizer>& syn) {
  std::optional<synth::ProblemSpec> spec;
  {
    const Scope s(&log, "io.parse", input);
    auto doc = json::parse(text);
    if (!doc.ok()) return finish_unsolved(doc.status());
    auto parsed = mlsi::io::spec_from_json(*doc);
    if (!parsed.ok()) return finish_unsolved(parsed.status());
    spec = std::move(*parsed);
  }
  {
    const Scope s(&log, "arch.model", input);
    syn.emplace(std::move(*spec), options);
  }
  ++counts.models_built;
  const mlsi::arch::SwitchTopology& topo = syn->topology();
  const synth::ProblemSpec& sp = syn->spec();

  // Metrics are on for the engine call only, to read the incumbent series.
  auto& metrics = mlsi::obs::metrics();
  metrics.reset();
  metrics.enable();
  const mlsi::Timer runtime;
  std::int64_t start_us = 0;
  mlsi::Result<synth::SynthesisResult> routed{mlsi::Status::Internal("not run")};
  {
    const Scope s(&log, "synth.engine", input);
    const auto engine = synth::engine_from_string(options.engine);
    start_us = mlsi::support::monotonic_us();
    if (engine.ok()) routed = (*engine)(topo, syn->paths(), sp, options.engine_params);
  }
  metrics.disable();
  if (const auto points = metrics.series("search.incumbent").points();
      !points.empty()) {
    first_incumbent_ms +=
        (points.front().first * 1e6 - static_cast<double>(start_us)) / 1e3;
  }
  if (!routed.ok()) return finish_unsolved(routed.status());
  synth::SynthesisResult& r = *routed;
  counts.cp_nodes += r.stats.nodes;
  counts.cp_restarts += r.stats.restarts;
  counts.cp_nogood_hits += r.stats.nogood_hits;
  counts.nodes_by_input[name] = r.stats.nodes;

  {
    const Scope s(&log, "synth.valves", input);
    r.used_segments = synth::union_segments(r.routed);
    r.flow_length_mm = synth::segments_length_mm(topo, r.used_segments);
    r.objective = sp.alpha * r.num_sets + sp.beta * r.flow_length_mm;
    const synth::ValveSchedule sched = synth::derive_valve_states(
        topo, r.routed, r.num_sets,
        synth::essential_valves_paper(topo, sp, r.routed, r.used_segments));
    r.essential_valves = sched.valve_segments;
    r.valve_states = sched.states;
  }
  counts.valves_kept += static_cast<long>(r.essential_valves.size());

  {
    const Scope s(&log, "opt.pressure", input);
    const auto compat = synth::valve_compatibility(r.valve_states);
    mlsi::opt::MilpParams milp = options.engine_params.milp;
    milp.deadline = mlsi::support::Deadline::sooner(
        milp.deadline, options.engine_params.deadline);
    milp.stop = options.engine_params.stop;
    if (milp.jobs == 1) milp.jobs = options.engine_params.jobs;
    const synth::PressureGroups groups = synth::pressure_groups_ilp(compat, milp);
    r.pressure_group = groups.group;
    r.num_pressure_groups = groups.num_groups;
    r.stats.lp_iterations += groups.milp_stats.lp_iterations;
    r.stats.lp_factorizations += groups.milp_stats.lp_factorizations;
    r.stats.warm_starts += groups.milp_stats.warm_starts;
    r.stats.cold_starts += groups.milp_stats.cold_starts;
    r.stats.cuts_generated += groups.milp_stats.cuts_generated;
    r.stats.cuts_applied += groups.milp_stats.cuts_applied;
    r.stats.cuts_dropped += groups.milp_stats.cuts_dropped;
    counts.bb_nodes += groups.milp_stats.nodes;
    counts.lp_iterations += groups.milp_stats.lp_iterations;
    counts.control_inlets += groups.num_groups;
  }
  r.stats.runtime_s = runtime.seconds();

  {
    const Scope s(&log, "sim.harden", input);
    const auto outcome = mlsi::sim::harden(topo, sp, r, options.pressure);
    if (outcome.level != mlsi::sim::HardeningLevel::kPaperRule) {
      ++counts.escalations;
    }
  }
  Answer a;
  a.ok = true;
  {
    const Scope s(&log, "io.emit", input);
    a.design = mlsi::io::result_to_json(topo, sp, r).dump();
  }
  return a;
}

Answer answer_split(const std::string& name, const std::string& text,
                    const synth::SynthesisOptions& options, SpanLog& log,
                    long input, PassCounts& counts,
                    double& first_incumbent_ms) {
  const Scope root(&log, "input", input);
  std::optional<synth::Synthesizer> syn;
  Answer a = split_layers(name, text, options, log, input, counts,
                          first_incumbent_ms, syn);
  {
    // Freeing the switch model and its paths is arch work too.
    const Scope s(&log, "arch.model", input);
    syn.reset();
  }
  return a;
}

/// A design document minus its wall-clock field, for identity checks.
std::string without_runtime(const std::string& design) {
  auto doc = json::parse(design);
  if (!doc.ok() || !doc->is_object()) return design;
  doc->as_object().erase("runtime_s");
  return doc->dump();
}

}  // namespace

RunOutcome run_library(const RunOptions& opt) {
  RunOutcome out;
  const bool hard = opt.workload == "hard_cases";
  const std::vector<PoolEntry> pool = hard ? hard_case_pool() : fixed_sweep_pool();
  const int n = static_cast<int>(pool.size());

  std::string error;
  const auto reference = load_reference(opt.reference_dir, opt.workload, &error);
  std::vector<Verdict> expected;
  for (const PoolEntry& e : pool) {
    const auto it = reference.find(e.name);
    if (it == reference.end()) {
      out.fail(error.empty() ? cat("no reference verdict for ", e.name) : error);
      return out;
    }
    expected.push_back(it->second);
  }
  std::vector<std::string> texts;
  std::vector<synth::ProblemSpec> specs;  // as parsed, for the checks
  for (const PoolEntry& e : pool) {
    texts.push_back(case_text(e.spec));
    specs.push_back(*mlsi::io::spec_from_json(*json::parse(texts.back())));
  }
  const synth::SynthesisOptions options;
  DesignChecker checker;

  // Checks one answer, outside every timed region.
  const auto check = [&](int i, const Answer& a) {
    const std::string& name = pool[static_cast<std::size_t>(i)].name;
    const Verdict& want = expected[static_cast<std::size_t>(i)];
    if (!a.ok) {
      out.fail(cat(name, ": ", a.error));
    } else if (a.infeasible) {
      if (std::string e = compare_verdict(want, Verdict{true, 0.0}); !e.empty()) {
        out.fail(cat(name, ": ", e));
      }
    } else if (std::string e = checker.check(specs[static_cast<std::size_t>(i)],
                                             *json::parse(a.design), want);
               !e.empty()) {
      out.fail(cat(name, ": ", e));
    }
  };

  Values v;
  mlsi::Timer run;
  if (!opt.trace) {
    // Set-up: spec parse + Synthesizer construction (switch model and path
    // enumeration) for the first pool entries, before every case of
    // hard_cases (a run has only a few passes) and before every pass of
    // fixed_sweep. Each set-up is timed as the best of kSetupTries, for the
    // same reason an input's time is its best pass (below); setup_s is the
    // median over the run's set-ups.
    const int setup_inputs = hard ? n : 32;
    const int setup_every = hard ? 1 : n;
    std::vector<double> setup_s;
    const auto set_up = [&] {
      double best_s = std::numeric_limits<double>::infinity();
      for (int attempt = 0; attempt < kSetupTries; ++attempt) {
        std::vector<std::optional<synth::Synthesizer>> built(
            static_cast<std::size_t>(setup_inputs));
        const std::int64_t t0 = now_ns();
        for (int i = 0; i < setup_inputs; ++i) {
          auto spec = mlsi::io::spec_from_json(
              *json::parse(texts[static_cast<std::size_t>(i)]));
          built[static_cast<std::size_t>(i)].emplace(std::move(*spec), options);
        }
        best_s = std::min(best_s, static_cast<double>(now_ns() - t0) / 1e9);
      }
      setup_s.push_back(best_s);
    };

    // Bookkeeping of fixed size, so peak_rss_mb does not grow with the
    // number of answers.
    LatencyHistogram latency;
    std::vector<double> best_ms(static_cast<std::size_t>(n),
                                std::numeric_limits<double>::infinity());
    std::vector<double> sum_ms(static_cast<std::size_t>(n), 0.0);
    std::vector<double> pass_s;
    std::map<std::string, std::string> nodes_seen;
    out.notes.push_back(cat("resident before the passes: ",
                            proc_status_mb("VmRSS"), " MB"));
    for (int pass = 0; pass == 0 || run.seconds() < opt.seconds; ++pass) {
      double busy_s = 0.0;
      const std::vector<int> order = pass_order(n, opt.seed, pass);
      for (int k = 0; k < n; ++k) {
        if (k % setup_every == 0) set_up();
        const int i = order[static_cast<std::size_t>(k)];
        const std::int64_t t0 = now_ns();
        const Answer a = answer_plain(texts[static_cast<std::size_t>(i)], options);
        const double s = static_cast<double>(now_ns() - t0) / 1e9;
        busy_s += s;
        latency.add(s * 1e3);
        best_ms[static_cast<std::size_t>(i)] =
            std::min(best_ms[static_cast<std::size_t>(i)], s * 1e3);
        sum_ms[static_cast<std::size_t>(i)] += s * 1e3;
        ++out.attempted;
        check(i, a);
        if (hard && a.ok && !a.infeasible) {
          const auto doc = json::parse(a.design);
          nodes_seen[pool[static_cast<std::size_t>(i)].name] = cat(
              "objective ", doc->get_number("objective", 0), ", cp nodes ",
              static_cast<long>(doc->get_number("nodes", 0)));
        }
      }
      pass_s.push_back(busy_s);
    }
    // Each input's time is its best pass. The path is deterministic, so the
    // differences between passes are interference from the host, which on a
    // shared machine moves the median of a pass by 20% between runs while
    // the best pass stays within 2% (timeit's rule). wall_s, throughput_per_s
    // and case_geomean_ms come from these times. The latency percentiles
    // take every answer, so a stall the program adds still shows, except on
    // hard_cases: a pass there answers six inputs, and its percentiles are
    // over the six case times (p99 is the slowest case).
    double best_sum_s = 0.0;
    for (std::size_t i = 0; i < best_ms.size(); ++i) {
      best_sum_s += best_ms[i] / 1e3;
      if (hard) {
        out.notes.push_back(cat(pool[i].name, ": ", nodes_seen[pool[i].name],
                                ", best ", best_ms[i], " ms, mean ",
                                sum_ms[i] / static_cast<double>(pass_s.size()),
                                " ms"));
      }
    }
    v["setup_s"] = median(setup_s);
    v["wall_s"] = best_sum_s;
    v["case_geomean_ms"] = geomean(best_ms);
    v["throughput_per_s"] = n / best_sum_s;
    v["latency_p50_ms"] = hard ? quantile(best_ms, 0.50) : latency.quantile(0.50);
    v["latency_p99_ms"] = hard ? quantile(best_ms, 0.99) : latency.quantile(0.99);
    v["peak_rss_mb"] = proc_status_mb("VmHWM");
    out.notes.push_back(cat(pass_s.size(), " passes of ", n,
                            " inputs; median pass ", median(pass_s), " s"));
  } else {
    // Untraced passes for the first half of the time: the designs the split
    // passes must reproduce byte for byte, and the wall time the tracing
    // overhead is relative to.
    std::vector<std::string> plain(static_cast<std::size_t>(n));
    std::vector<double> plain_ms;
    for (int pass = 0; pass == 0 || run.seconds() < opt.seconds / 2; ++pass) {
      double busy_ms = 0.0;
      for (const int i : pass_order(n, opt.seed, pass)) {
        const std::int64_t t0 = now_ns();
        const Answer a = answer_plain(texts[static_cast<std::size_t>(i)], options);
        busy_ms += static_cast<double>(now_ns() - t0) / 1e6;
        ++out.attempted;
        check(i, a);
        if (pass == 0) plain[static_cast<std::size_t>(i)] = without_runtime(a.design);
      }
      plain_ms.push_back(busy_ms);
    }

    SpanLog log;
    std::vector<Values> layer_ms;
    std::vector<double> pass_ms;
    std::vector<double> first_incumbent;
    std::optional<PassCounts> counts0;
    for (int pass = 0; pass == 0 || run.seconds() < opt.seconds; ++pass) {
      PassCounts counts;
      double incumbent_ms = 0.0;
      double busy_ms = 0.0;
      const std::vector<int> order = pass_order(n, opt.seed, pass);
      for (int k = 0; k < n; ++k) {
        const int i = order[static_cast<std::size_t>(k)];
        const long input = static_cast<long>(pass) * n + k;
        const std::int64_t t0 = now_ns();
        const Answer a = answer_split(pool[static_cast<std::size_t>(i)].name,
                                      texts[static_cast<std::size_t>(i)],
                                      options, log, input, counts, incumbent_ms);
        busy_ms += static_cast<double>(now_ns() - t0) / 1e6;
        ++out.attempted;
        check(i, a);
        if (without_runtime(a.design) != plain[static_cast<std::size_t>(i)]) {
          out.fail(cat(pool[static_cast<std::size_t>(i)].name,
                       ": split pipeline design differs from synthesize()"));
        }
      }
      if (!counts0) {
        counts0 = counts;
      } else if (!(counts == *counts0)) {
        out.fail(cat("exact counts of pass ", pass, " differ from pass 0"));
      }
      layer_ms.push_back(log.self_ms(static_cast<long>(pass) * n,
                                     static_cast<long>(pass + 1) * n));
      pass_ms.push_back(busy_ms);
      first_incumbent.push_back(incumbent_ms);
    }
    const auto layer = [&](const std::string& span) {
      std::vector<double> xs;
      for (const Values& l : layer_ms) {
        const auto it = l.find(span);
        xs.push_back(it == l.end() ? 0.0 : it->second);
      }
      return median(xs);
    };
    const PassCounts& c = *counts0;
    v["arch.model_ms"] = layer("arch.model");
    v["arch.models_built"] = static_cast<double>(c.models_built);
    v["io.parse_ms"] = layer("io.parse");
    v["io.emit_ms"] = layer("io.emit");
    v["synth.engine_ms"] = layer("synth.engine");
    v["synth.cp_nodes"] = static_cast<double>(c.cp_nodes);
    for (const auto& [name, nodes] : c.nodes_by_input) {
      if (hard) v["synth.cp_nodes." + name] = static_cast<double>(nodes);
    }
    v["synth.cp_nodes_per_s"] =
        static_cast<double>(c.cp_nodes) / (layer("synth.engine") / 1e3);
    v["synth.first_incumbent_ms"] = median(first_incumbent);
    v["synth.cp_restarts"] = static_cast<double>(c.cp_restarts);
    v["synth.cp_nogood_hits"] = static_cast<double>(c.cp_nogood_hits);
    v["synth.valves_ms"] = layer("synth.valves");
    v["synth.valves_kept"] = static_cast<double>(c.valves_kept);
    v["opt.pressure_ms"] = layer("opt.pressure");
    v["opt.bb_nodes"] = static_cast<double>(c.bb_nodes);
    v["opt.lp_iterations"] = static_cast<double>(c.lp_iterations);
    v["opt.control_inlets"] = static_cast<double>(c.control_inlets);
    v["sim.harden_ms"] = layer("sim.harden");
    v["sim.escalations"] = static_cast<double>(c.escalations);
    v["trace.pass_ms"] = median(pass_ms);
    // Best passes, as for wall_s.
    v["trace.overhead"] = quantile(pass_ms, 0.0) / quantile(plain_ms, 0.0);
    out.notes.push_back(cat("traced passes: ", pass_ms.size(), ", benchmark glue ",
                            layer("input"), " ms per pass"));
    write_trace(cat(opt.out_dir, "/trace-", opt.workload, "-seed", opt.seed,
                    ".json"),
                {&log}, 200000);
  }

  std::string fill_error;
  const bool ok =
      fill(opt.trace ? per_layer_catalogue() : end_to_end_catalogue(), v,
           !opt.trace, &out.metrics, &fill_error);
  if (!ok) out.fail(fill_error);
  return out;
}

}  // namespace perfbench
