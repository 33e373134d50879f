// perfbench — the repository benchmark.
//
//   perfbench run --workload hard_cases|fixed_sweep|serve_zipf --seed N
//                 --seconds S --trace 0|1 --reference-dir DIR --out-dir DIR
//                 [--source TEXT]
//   perfbench gen-reference --reference-dir DIR
//   perfbench digest --workload NAME --seed N
//   perfbench selftest
//
// `run` prints a provenance stamp, the metrics by name with their units,
// and as its last line one JSON object {"correct", "attempted", "failed",
// "metrics"}. It exits 1 when any output was wrong, 2 on a usage or set-up
// error (without a result line). perfbench/run.py builds and calls it.
// `selftest` shows that the design check rejects a binding the spec's
// policy forbids.

#include <algorithm>
#include <cstdio>
#include <optional>
#include <thread>

#include "inputs.hpp"
#include "io/case_io.hpp"
#include "sim/simulator.hpp"
#include "support/argparse.hpp"
#include "support/rng.hpp"
#include "support/strings.hpp"
#include "synth/synthesizer.hpp"
#include "workloads.hpp"

namespace perfbench {

using mlsi::cat;
namespace json = mlsi::json;

const Catalogue& end_to_end_catalogue() {
  static const Catalogue c = {
      {"wall_s", "s"},           {"case_geomean_ms", "ms"},
      {"throughput_per_s", "1/s"}, {"latency_p50_ms", "ms"},
      {"latency_p99_ms", "ms"},  {"setup_s", "s"},
      {"peak_rss_mb", "MB"},
  };
  return c;
}

const Catalogue& per_layer_catalogue() {
  static const Catalogue c = [] {
    Catalogue out = {
        {"arch.model_ms", "ms"},        {"arch.models_built", "count"},
        {"io.parse_ms", "ms"},          {"io.emit_ms", "ms"},
        {"synth.engine_ms", "ms"},      {"synth.cp_nodes", "count"},
    };
    for (const PoolEntry& e : hard_case_pool()) {
      out.emplace_back("synth.cp_nodes." + e.name, "count");
    }
    const Catalogue rest = {
        {"synth.cp_nodes_per_s", "1/s"}, {"synth.first_incumbent_ms", "ms"},
        {"synth.cp_restarts", "count"},  {"synth.cp_nogood_hits", "count"},
        {"synth.valves_ms", "ms"},       {"synth.valves_kept", "count"},
        {"opt.pressure_ms", "ms"},       {"opt.bb_nodes", "count"},
        {"opt.lp_iterations", "count"},  {"opt.control_inlets", "count"},
        {"sim.harden_ms", "ms"},         {"sim.escalations", "count"},
        {"serve.canonicalize_ms", "ms"}, {"serve.cache_probe_ms", "ms"},
        {"serve.permute_ms", "ms"},      {"serve.queue_wait_ms", "ms"},
        {"serve.solve_ms", "ms"},        {"serve.hit_rate", "fraction"},
        {"serve.negative_hit_rate", "fraction"},
        {"serve.solves", "count"},       {"serve.coalesced", "count"},
        {"serve.evictions", "count"},    {"serve.replayed", "count"},
        {"trace.pass_ms", "ms"},         {"trace.overhead", "ratio"},
    };
    out.insert(out.end(), rest.begin(), rest.end());
    return out;
  }();
  return c;
}

bool fill(const Catalogue& catalogue, const Values& values, bool complete,
          MetricTable* out, std::string* error) {
  for (const auto& [name, value] : values) {
    (void)value;
    bool known = false;
    for (const auto& entry : catalogue) known = known || entry.first == name;
    if (!known) {
      *error = cat("metric '", name, "' is not in the catalogue");
      return false;
    }
  }
  for (const auto& [name, unit] : catalogue) {
    const auto it = values.find(name);
    if (it == values.end() && complete) {
      *error = cat("metric '", name, "' was not measured");
      return false;
    }
    out->add(name, it == values.end() ? 0.0 : it->second, unit);
  }
  return true;
}

namespace {

bool release_build() {
#ifdef NDEBUG
  return std::string_view(PERFBENCH_BUILD_TYPE) == "Release";
#else
  return false;
#endif
}

int run(const RunOptions& opt, const std::string& source) {
  RunOutcome outcome =
      opt.workload == "serve_zipf" ? run_serve(opt) : run_library(opt);
  if (outcome.attempted == 0) {
    for (const std::string& f : outcome.failures) {
      std::fprintf(stderr, "perfbench: %s\n", f.c_str());
    }
    return 2;
  }

  json::Object stamp;
  stamp["workload"] = json::Value{opt.workload};
  stamp["seed"] = json::Value{static_cast<double>(opt.seed)};
  stamp["seconds"] = json::Value{opt.seconds};
  stamp["trace"] = json::Value{opt.trace};
  stamp["build_type"] = json::Value{PERFBENCH_BUILD_TYPE};
  stamp["compiler"] = json::Value{PERFBENCH_COMPILER};
  stamp["nproc"] = json::Value{static_cast<int>(std::thread::hardware_concurrency())};
  stamp["source"] = json::Value{source};
  std::printf("stamp %s\n", json::Value{std::move(stamp)}.dump().c_str());

  std::printf("%s metrics (%s):\n", opt.trace ? "per-layer" : "end-to-end",
              opt.workload.c_str());
  outcome.metrics.print_rows();
  std::printf("  %-40s %16.6f %s\n", "failed_frac",
              static_cast<double>(outcome.failed) /
                  static_cast<double>(outcome.attempted),
              "fraction");
  for (const std::string& note : outcome.notes) {
    std::printf("note: %s\n", note.c_str());
  }
  for (const std::string& f : outcome.failures) {
    std::printf("FAILED: %s\n", f.c_str());
  }

  json::Object result;
  result["correct"] = json::Value{outcome.failed == 0};
  result["attempted"] = json::Value{static_cast<double>(outcome.attempted)};
  result["failed"] = json::Value{static_cast<double>(outcome.failed)};
  result["metrics"] = outcome.metrics.to_json();
  std::printf("%s\n", json::Value{std::move(result)}.dump().c_str());
  std::fflush(stdout);
  return outcome.failed == 0 ? 0 : 1;
}

}  // namespace

int generate_references(const std::string& dir) {
  namespace synth = mlsi::synth;
  const synth::SynthesisOptions options;
  int errors = 0;
  const std::pair<std::string, std::vector<PoolEntry>> workloads[] = {
      {"hard_cases", hard_case_pool()},
      {"fixed_sweep", fixed_sweep_pool()},
      {"serve_zipf", serve_pool()},
  };
  for (const auto& [workload, pool] : workloads) {
    json::Array entries;
    long infeasible = 0;
    long unvalidated = 0;
    std::vector<Verdict> verdicts;
    for (const PoolEntry& e : pool) {
      const synth::Synthesizer syn(e.spec, options);
      const auto result = syn.synthesize();
      json::Object entry;
      entry["name"] = json::Value{e.name};
      if (result.ok() && result->stats.proven_optimal) {
        verdicts.push_back({false, result->objective});
        entry["verdict"] = json::Value{"optimal"};
        entry["objective"] = json::Value{result->objective};
        if (workload == "hard_cases") {
          entry["cp_nodes"] = json::Value{static_cast<double>(result->stats.nodes)};
        }
        // The serve path returns designs without sim::harden.
        if (!mlsi::sim::validate(
                 mlsi::sim::make_program(syn.topology(), syn.spec(), *result))
                 .ok()) {
          ++unvalidated;
        }
      } else if (!result.ok() &&
                 result.status().code() == mlsi::StatusCode::kInfeasible) {
        verdicts.push_back({true, 0.0});
        entry["verdict"] = json::Value{"infeasible"};
        ++infeasible;
      } else {
        std::fprintf(stderr, "%s: %s not proven\n", workload.c_str(), e.name.c_str());
        return 1;
      }
      entries.push_back(json::Value{std::move(entry)});
    }

    // Independent cross-check: the iqp engine on a seeded sample of the
    // fixed-policy entries (it cannot prove larger unfixed models).
    json::Object cross;
    long sampled = 0, agreed = 0, unresolved = 0;
    mlsi::Rng rng(20260101);
    synth::SynthesisOptions iqp = options;
    iqp.engine = "iqp";
    for (std::size_t i = 0; i < pool.size(); ++i) {
      if (pool[i].spec.policy != synth::BindingPolicy::kFixed || !rng.next_bool(0.1)) {
        continue;
      }
      ++sampled;
      iqp.engine_params.deadline = mlsi::support::Deadline::after(30.0);
      const auto got = synth::synthesize(pool[i].spec, iqp);
      const Verdict& expect = verdicts[i];
      if (got.ok() && !got->stats.proven_optimal) {
        ++unresolved;
        continue;
      }
      if (!got.ok() && got.status().code() != mlsi::StatusCode::kInfeasible) {
        ++unresolved;
        continue;
      }
      const Verdict v{!got.ok(), got.ok() ? got->objective : 0.0};
      if (compare_verdict(expect, v).empty()) {
        ++agreed;
      } else {
        std::fprintf(stderr, "%s: %s: iqp disagrees: %s\n", workload.c_str(),
                     pool[i].name.c_str(), compare_verdict(expect, v).c_str());
        ++errors;
      }
    }
    cross["sampled"] = json::Value{static_cast<double>(sampled)};
    cross["agreed"] = json::Value{static_cast<double>(agreed)};
    cross["unresolved"] = json::Value{static_cast<double>(unresolved)};

    json::Object doc;
    doc["workload"] = json::Value{workload};
    doc["entries"] = json::Value{std::move(entries)};
    doc["iqp_cross_check"] = json::Value{std::move(cross)};
    const std::string path = cat(dir, "/", workload, ".json");
    if (const mlsi::Status s = json::write_file(path, json::Value{std::move(doc)});
        !s.ok()) {
      std::fprintf(stderr, "%s\n", s.to_string().c_str());
      return 1;
    }
    std::printf("%s: %zu entries, %ld infeasible, %ld unhardened designs "
                "failing sim::validate; iqp agreed on %ld of %ld sampled "
                "(%ld unresolved)\n",
                path.c_str(), pool.size(), infeasible, unvalidated, agreed,
                sampled, unresolved);
  }
  return errors == 0 ? 0 : 1;
}

int self_test() {
  namespace synth = mlsi::synth;
  const synth::SynthesisOptions options;
  const std::vector<PoolEntry> pool = serve_pool();
  DesignChecker checker;
  int wrong = 0;
  const auto expect = [&](const std::string& what, const std::string& error,
                          bool accepted) {
    const bool as_expected = error.empty() == accepted;
    std::printf("%s %s: %s\n", as_expected ? "ok    " : "WRONG ", what.c_str(),
                error.empty() ? "accepted" : error.c_str());
    wrong += as_expected ? 0 : 1;
  };
  for (const synth::BindingPolicy policy :
       {synth::BindingPolicy::kFixed, synth::BindingPolicy::kClockwise}) {
    const PoolEntry* entry = nullptr;
    std::optional<synth::Synthesizer> syn;
    mlsi::Result<synth::SynthesisResult> result{mlsi::Status::Internal("none")};
    for (const PoolEntry& e : pool) {
      // At least three modules, so reversing the clockwise order is not a
      // rotation of it.
      if (e.spec.policy != policy || e.spec.num_modules() < 3) continue;
      syn.emplace(e.spec, options);
      result = syn->synthesize();
      if (result.ok()) {
        entry = &e;
        break;
      }
    }
    if (entry == nullptr) {
      expect(cat("a feasible ", synth::to_string(policy), " pool spec"),
             "none found", true);
      continue;
    }
    mlsi::sim::harden(syn->topology(), syn->spec(), *result, options.pressure);
    const json::Value design =
        mlsi::io::result_to_json(syn->topology(), syn->spec(), *result);
    const Verdict verdict{false, result->objective};
    expect(cat(entry->name, " as solved"), checker.check(syn->spec(), design, verdict),
           true);
    // The same design against the spec with its binding rule broken: every
    // other check still passes, so only the policy check can catch it.
    synth::ProblemSpec broken = syn->spec();
    if (policy == synth::BindingPolicy::kFixed) {
      std::swap(broken.fixed_binding[0].pin_index,
                broken.fixed_binding[1].pin_index);
    } else {
      std::reverse(broken.clockwise_order.begin(), broken.clockwise_order.end());
    }
    expect(cat(entry->name, policy == synth::BindingPolicy::kFixed
                                ? " with two fixed pins swapped"
                                : " with its clockwise order reversed"),
           checker.check(broken, design, verdict), false);
  }
  return wrong == 0 ? 0 : 1;
}

}  // namespace perfbench

int main(int argc, char** argv) {
  using namespace perfbench;
  mlsi::support::ArgParser args(argc, argv);
  RunOptions opt;
  opt.workload = args.option("--workload").value_or("");
  const double seed = args.number("--seed", -1);
  opt.seed = static_cast<std::uint64_t>(std::max(0.0, seed));
  opt.seconds = args.number("--seconds", 0);
  const double trace = args.number("--trace", -1);
  opt.trace = trace == 1;
  const auto reference_dir = args.option("--reference-dir");
  const auto out_dir = args.option("--out-dir");
  opt.reference_dir = reference_dir.value_or("");
  opt.out_dir = out_dir.value_or("");
  const std::string source = args.option("--source").value_or("unknown");
  const mlsi::Status parsed = args.finish(1);
  const std::string command = parsed.ok() ? args.positionals()[0] : "";
  const bool known_workload = opt.workload == "hard_cases" ||
                              opt.workload == "fixed_sweep" ||
                              opt.workload == "serve_zipf";
  // Every setting is required, so the caller (run.py) holds the only
  // defaults.
  bool usage_ok = parsed.ok();
  if (command == "run") {
    usage_ok = usage_ok && known_workload && seed >= 0 && opt.seconds > 0 &&
               (trace == 0 || trace == 1) && reference_dir && out_dir;
  } else if (command == "digest") {
    usage_ok = usage_ok && known_workload && seed >= 0;
  } else if (command == "gen-reference") {
    usage_ok = usage_ok && reference_dir;
  } else {
    usage_ok = usage_ok && command == "selftest";
  }
  if (!usage_ok) {
    std::fprintf(stderr,
                 "usage: perfbench run --workload hard_cases|fixed_sweep|serve_zipf "
                 "--seed N --seconds S --trace 0|1 --reference-dir DIR "
                 "--out-dir DIR [--source TEXT]\n"
                 "       perfbench gen-reference --reference-dir DIR\n"
                 "       perfbench digest --workload NAME --seed N\n"
                 "       perfbench selftest\n");
    return 2;
  }
  if (command == "digest") {
    std::printf("%016llx\n", static_cast<unsigned long long>(
                                 stream_digest(opt.workload, opt.seed)));
    return 0;
  }
  if (command == "selftest") return self_test();
  if (!release_build()) {
    std::fprintf(stderr, "perfbench: refusing to measure a %s build; "
                         "configure with -DCMAKE_BUILD_TYPE=Release\n",
                 PERFBENCH_BUILD_TYPE);
    return 2;
  }
  if (command == "gen-reference") return generate_references(opt.reference_dir);
  return run(opt, source);
}
