#include "synth/engine.hpp"

#include "support/strings.hpp"
#include "synth/cp_engine.hpp"
#include "synth/iqp_engine.hpp"
#include "synth/portfolio.hpp"

namespace mlsi::synth {
namespace {

struct EngineEntry {
  std::string_view name;
  EngineFn fn;
};

constexpr EngineEntry kEngines[] = {
    {"cp", &solve_cp},
    {"iqp", &solve_iqp},
    {"portfolio", &solve_portfolio},
};

}  // namespace

Result<EngineFn> engine_from_string(std::string_view name) {
  for (const EngineEntry& e : kEngines) {
    if (e.name == name) return e.fn;
  }
  std::string known;
  for (const EngineEntry& e : kEngines) {
    if (!known.empty()) known += ", ";
    known += e.name;
  }
  return Status::NotFound(
      cat("unknown engine '", name, "' (known engines: ", known, ")"));
}

std::vector<std::string_view> engine_names() {
  std::vector<std::string_view> names;
  for (const EngineEntry& e : kEngines) names.push_back(e.name);
  return names;
}

void add_milp_stats(EngineStats& into, const opt::SolveStats& from) {
  into.lp_iterations += from.lp_iterations;
  into.lp_factorizations += from.lp_factorizations;
  into.warm_starts += from.warm_starts;
  into.cold_starts += from.cold_starts;
  into.cuts_generated += from.cuts_generated;
  into.cuts_applied += from.cuts_applied;
  into.cuts_dropped += from.cuts_dropped;
}

}  // namespace mlsi::synth
