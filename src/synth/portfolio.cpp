#include "synth/portfolio.hpp"

#include <algorithm>
#include <chrono>
#include <condition_variable>
#include <limits>
#include <mutex>

#include "obs/obs.hpp"
#include "support/executor.hpp"
#include "support/log.hpp"
#include "support/strings.hpp"
#include "support/timer.hpp"
#include "synth/cp_engine.hpp"
#include "synth/iqp_engine.hpp"

namespace mlsi::synth {
namespace {

constexpr double kInf = std::numeric_limits<double>::infinity();

/// One concurrent solve attempt.
struct Racer {
  std::string label;
  EngineFn engine = nullptr;
  EngineParams params;
  /// Clockwise partitions are only decisive collectively; a lone exact
  /// racer (cp or iqp on the whole problem) decides the race by itself.
  bool partition = false;
};

/// A racer outcome that settles the race on its own: a proven optimum or a
/// proof of infeasibility. Budget-truncated incumbents and size-guard
/// rejections are not decisive.
bool decisive(const Result<SynthesisResult>& outcome) {
  if (outcome.ok()) return outcome->stats.proven_optimal;
  return outcome.status().code() == StatusCode::kInfeasible;
}

}  // namespace

Result<SynthesisResult> solve_portfolio(const arch::SwitchTopology& topo,
                                        const arch::PathSet& paths,
                                        const ProblemSpec& spec,
                                        const EngineParams& params) {
  const Status valid = spec.validate();
  if (!valid.ok()) return valid;

  obs::TraceSpan span("portfolio.solve");
  Timer timer;
  const int jobs = support::ThreadPool::resolve_jobs(params.jobs);
  support::StopSource cancel;
  const auto shared_incumbent =
      std::make_shared<std::atomic<double>>(kInf);

  // Racer plan. Every racer inherits the caller's deadline; cancellation is
  // rewired to the race-local source (the caller's token is polled below
  // and forwarded).
  EngineParams base = params;
  base.stop = cancel.token();
  base.jobs = 1;
  base.shared_incumbent = nullptr;
  base.clockwise_stride = 1;
  base.clockwise_offset = 0;

  std::vector<Racer> racers;
  if (spec.policy == BindingPolicy::kClockwise) {
    // Partition the outer cyclic-shift enumeration across the workers; the
    // shared incumbent lets any worker's solution prune every other's dive.
    const int parts = std::clamp(jobs, 1, topo.num_pins());
    for (int w = 0; w < parts; ++w) {
      Racer r;
      r.label = cat("cp[", w, "/", parts, "]");
      r.engine = &solve_cp;
      r.params = base;
      r.params.shared_incumbent = shared_incumbent;
      r.params.clockwise_stride = parts;
      r.params.clockwise_offset = w;
      r.partition = true;
      racers.push_back(std::move(r));
    }
  } else {
    racers.push_back({"cp", &solve_cp, base, false});
    racers.push_back({"iqp", &solve_iqp, base, false});
  }

  std::mutex mutex;
  std::condition_variable done_cv;
  int remaining = static_cast<int>(racers.size());
  std::vector<Result<SynthesisResult>> outcomes(
      racers.size(), Result<SynthesisResult>{Status::Internal("not run")});

  {
    support::ThreadPool pool(
        std::min<int>(jobs, static_cast<int>(racers.size())));
    // Start barrier: every worker must pick up a racer before any racer
    // runs. Without it, a fast racer can drain the whole queue on one
    // worker (the submit/wake race), which makes the "race" sequential —
    // the shared-incumbent pruning and cancellation never engage, and on
    // few-core hosts the outcome silently depends on scheduling luck.
    // Each worker blocks at most once; queued racers beyond the pool size
    // pass through after the barrier has opened.
    std::mutex start_mutex;
    std::condition_variable start_cv;
    int awaiting = pool.size();
    const auto start_barrier = [&] {
      std::unique_lock lock(start_mutex);
      if (--awaiting <= 0) {
        start_cv.notify_all();
        return;
      }
      start_cv.wait(lock, [&] { return awaiting <= 0; });
    };
    for (std::size_t i = 0; i < racers.size(); ++i) {
      pool.submit([&, i] {
        start_barrier();
        const Racer& racer = racers[i];
        // The span runs on the worker thread, so the trace shows each
        // racer's lifetime on its own track.
        obs::TraceSpan racer_span(
            obs::trace_enabled() ? cat("racer:", racer.label) : std::string{});
        if (obs::search_log_enabled()) {
          obs::search_event("racer_start",
                            {{"racer", json::Value{racer.label}}});
        }
        Result<SynthesisResult> outcome =
            racer.engine(topo, paths, spec, racer.params);
        if (obs::search_log_enabled()) {
          // A non-decisive outcome after the race-local stop tripped means
          // this racer was cut short by a sibling's proof.
          const bool cancelled =
              racer.params.stop.stop_requested() && !decisive(outcome);
          obs::search_event(
              cancelled ? "racer_cancel" : "racer_finish",
              {{"racer", json::Value{racer.label}},
               {"ok", json::Value{outcome.ok()}},
               {"proven", json::Value{outcome.ok() &&
                                      outcome->stats.proven_optimal}},
               {"obj", outcome.ok() ? json::Value{outcome->objective}
                                    : json::Value{}}});
        }
        std::unique_lock lock(mutex);
        if (params.log) {
          log_info("portfolio: ", racer.label, " finished: ",
                   outcome.ok() ? cat("obj=", outcome->objective,
                                      outcome->stats.proven_optimal
                                          ? " (proven)"
                                          : " (incumbent)")
                                : outcome.status().to_string());
        }
        // A lone exact racer deciding the race cancels every other racer;
        // clockwise partitions only decide collectively (all must finish).
        if (!racer.partition && decisive(outcome)) cancel.request_stop();
        outcomes[i] = std::move(outcome);
        if (--remaining == 0) done_cv.notify_all();
      });
    }
    // Wait for every racer, forwarding the caller's cancellation. Racers
    // watch the deadline themselves.
    std::unique_lock lock(mutex);
    while (remaining > 0) {
      done_cv.wait_for(lock, std::chrono::milliseconds(10));
      if (params.stop.stop_requested() && !cancel.stop_requested()) {
        cancel.request_stop();
      }
    }
  }  // joins the workers

  // Combine. Exactness argument for the partitioned race: each partition
  // proves "no solution in my residue class beats min(my best, the shared
  // bound I pruned with)", and the shared bound only ever holds realized
  // objectives — so once every partition completed, the best realized
  // objective is the global optimum.
  long total_nodes = 0;
  long total_lp_iterations = 0;
  long total_lp_factorizations = 0;
  long total_warm_starts = 0;
  long total_cold_starts = 0;
  long total_cuts_generated = 0;
  long total_cuts_applied = 0;
  long total_cuts_dropped = 0;
  int best = -1;
  bool all_exact = true;   // every racer that had to finish did, exactly
  bool any_truncated = false;
  bool proven_infeasible = false;  // by a whole-problem (non-partition) racer
  Status first_error = Status::Ok();
  // Same objective from several racers: prefer the proven one, then the
  // lowest racer index, so the reported result is deterministic.
  const auto improves = [&](const SynthesisResult& a,
                            const SynthesisResult& b) {
    if (a.objective < b.objective - 1e-9) return true;
    if (a.objective > b.objective + 1e-9) return false;
    return a.stats.proven_optimal && !b.stats.proven_optimal;
  };
  for (std::size_t i = 0; i < outcomes.size(); ++i) {
    const auto& outcome = outcomes[i];
    if (outcome.ok()) {
      total_nodes += outcome->stats.nodes;
      total_lp_iterations += outcome->stats.lp_iterations;
      total_lp_factorizations += outcome->stats.lp_factorizations;
      total_warm_starts += outcome->stats.warm_starts;
      total_cold_starts += outcome->stats.cold_starts;
      total_cuts_generated += outcome->stats.cuts_generated;
      total_cuts_applied += outcome->stats.cuts_applied;
      total_cuts_dropped += outcome->stats.cuts_dropped;
      if (!outcome->stats.proven_optimal) any_truncated = true;
      if (best < 0 ||
          improves(*outcome, *outcomes[static_cast<std::size_t>(best)])) {
        best = static_cast<int>(i);
      }
      continue;
    }
    const StatusCode code = outcome.status().code();
    if (code == StatusCode::kInfeasible) {
      if (!racers[i].partition) proven_infeasible = true;
    } else if (code == StatusCode::kTimeout) {
      any_truncated = true;
      if (racers[i].partition) all_exact = false;
    } else {
      // Size-guard rejections (iqp) and the like: not an answer, but only
      // fatal when nobody else answers either.
      if (first_error.ok()) first_error = outcome.status();
      if (racers[i].partition) all_exact = false;
    }
  }

  if (best >= 0) {
    SynthesisResult out = *outcomes[static_cast<std::size_t>(best)];
    const bool proven =
        racers[static_cast<std::size_t>(best)].partition
            ? all_exact && !any_truncated  // needs every partition finished
            : out.stats.proven_optimal;
    out.stats.engine = cat("portfolio(", out.stats.engine, "×",
                           racers.size(), ")");
    out.stats.proven_optimal = proven;
    out.stats.nodes = total_nodes;
    out.stats.lp_iterations = total_lp_iterations;
    out.stats.lp_factorizations = total_lp_factorizations;
    out.stats.warm_starts = total_warm_starts;
    out.stats.cold_starts = total_cold_starts;
    out.stats.cuts_generated = total_cuts_generated;
    out.stats.cuts_applied = total_cuts_applied;
    out.stats.cuts_dropped = total_cuts_dropped;
    out.stats.runtime_s = timer.seconds();
    if (obs::metrics_enabled()) {
      obs::metrics().counter("portfolio.races").add();
      // Partition racers cannot close the gap individually (cp_engine.cpp
      // defers to us); the combined proof is the authoritative 0.
      if (proven) obs::metrics().series("search.gap").record(0.0);
    }
    if (obs::search_log_enabled()) {
      obs::search_event(
          "portfolio_done",
          {{"winner", json::Value{racers[static_cast<std::size_t>(best)].label}},
           {"proven", json::Value{proven}},
           {"obj", json::Value{out.objective}},
           {"racers", json::Value{racers.size()}}});
    }
    return out;
  }
  if (proven_infeasible) {
    return Status::Infeasible(
        cat("no contamination-free solution for '", spec.name, "' with ",
            to_string(spec.policy), " binding (proven by a portfolio racer)"));
  }
  if (any_truncated) {
    return Status::Timeout(
        cat("portfolio budget expired after ", total_nodes,
            " nodes without finding a feasible solution"));
  }
  if (!first_error.ok()) return first_error;
  return Status::Infeasible(
      cat("no contamination-free solution for '", spec.name, "' with ",
          to_string(spec.policy), " binding (all ", racers.size(),
          " racers agree)"));
}

}  // namespace mlsi::synth
