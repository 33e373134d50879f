// mlsi_serve — synthesis-as-a-service daemon.
//
// Reads JSONL requests ({"id": ..., "case": {<case document>},
// "time_limit_s": N}) from stdin (default) or a Unix domain socket and
// writes one JSONL response per request. Repeated specs — including
// flow/module relabelings of an already-solved spec — are answered from a
// canonicalizing LRU cache; concurrent identical misses share one solve;
// overload rejects instead of queueing without bound.
//
// Live observability: metrics are always on (the {"cmd":"stats"} control
// request answers with Server::stats_json() + the metrics snapshot — poll
// it with tools/mlsi_top), every response carries a per-stage "timing"
// section, and a flight recorder keeps the most recent spans per thread —
// dumped on SIGSEGV/SIGABRT, on deadline-blown requests, and at exit.
// SIGTERM/SIGINT drain gracefully: admitted solves finish, then every obs
// output (metrics/trace/flight-rec) is flushed before exit.
//
// Usage:
//   mlsi_serve [options] < requests.jsonl > responses.jsonl
//
// Options (--flag value and --flag=value both work):
//   --socket <path>       serve a Unix domain socket instead of stdin
//   --engine <name>       synthesis engine (default cp)
//   --jobs <n>            solver workers (default 0 = hardware threads)
//   --cache-size <n>      LRU capacity in entries (default 1024; 0 disables
//                         caching and coalescing)
//   --shards <n>          cache shard count (default 8)
//   --persist <path>      append-only on-disk cache, replayed at startup
//   --queue-depth <n>     admission bound on queued solves (default 64)
//   --time-limit <s>      default per-request budget (default 120)
//   --metrics-out <path>  write the metrics snapshot (incl. serve.*) on exit
//   --trace-out <path>    write the Chrome trace on exit
//   --flight-rec <path>   flight-recorder dump destination (crash/deadline/
//                         exit); empty disables dumping (recording stays on)
//   --quiet               no summary on stderr
//
// Exit codes: 0 clean shutdown (including drained SIGTERM/SIGINT), 1
// startup/usage error.

#include <csignal>
#include <cstdio>
#include <cstdlib>
#include <iostream>
#include <mutex>
#include <string>

#include "obs/obs.hpp"
#include "serve/server.hpp"
#include "support/argparse.hpp"
#include "support/crash.hpp"
#include "synth/engine.hpp"

#ifndef MLSI_GIT_SHA
#define MLSI_GIT_SHA "unknown"
#endif

namespace {

using namespace mlsi;

int usage(const char* argv0) {
  std::fprintf(stderr,
               "usage: %s [--socket F] [--engine cp|iqp] [--jobs N]\n"
               "       [--cache-size N] [--shards N] [--persist F]\n"
               "       [--queue-depth N] [--time-limit S] [--metrics-out F]\n"
               "       [--trace-out F] [--flight-rec F] [--quiet]\n",
               argv0);
  return 1;
}

}  // namespace

int main(int argc, char** argv) {
  support::ArgParser args(argc, argv);
  serve::ServeOptions options;
  options.code_version = MLSI_GIT_SHA;

  const std::string socket_path = args.option("--socket").value_or("");
  if (const auto v = args.option("--engine")) {
    const auto engine = synth::engine_from_string(*v);
    if (!engine.ok()) {
      std::fprintf(stderr, "error: %s\n", engine.status().to_string().c_str());
      return usage(argv[0]);
    }
    options.synth.engine = *v;
  }
  options.jobs = static_cast<int>(args.number("--jobs", 0));
  options.cache_capacity =
      static_cast<std::size_t>(args.number("--cache-size", 1024));
  options.cache_shards = static_cast<int>(args.number("--shards", 8));
  options.persist_path = args.option("--persist").value_or("");
  options.queue_depth =
      static_cast<std::size_t>(args.number("--queue-depth", 64));
  options.default_time_limit_s = args.number("--time-limit", 120.0);
  const std::string metrics_path = args.option("--metrics-out").value_or("");
  const std::string trace_path = args.option("--trace-out").value_or("");
  const std::string flight_path = args.option("--flight-rec").value_or("");
  const bool quiet = args.flag("--quiet");
  if (const Status parsed = args.finish(0); !parsed.ok()) {
    std::fprintf(stderr, "error: %s\n", parsed.to_string().c_str());
    return usage(argv[0]);
  }

  // Metrics are unconditionally on: the stats endpoint must answer with
  // live numbers whether or not an exit snapshot was requested.
  obs::Metrics::instance().enable();
  if (!trace_path.empty()) obs::Tracer::instance().enable();
  // The flight recorder also always records (bounded memory, see
  // flight_rec.hpp); a dump destination additionally arms the crash
  // handler and the deadline-blown/exit dumps.
  obs::FlightRecorder::instance().enable();
  if (!flight_path.empty()) {
    if (!obs::FlightRecorder::instance().set_dump_path(flight_path)) {
      std::fprintf(stderr, "error: --flight-rec path too long\n");
      return 1;
    }
    support::install_crash_handler(
        [] { obs::FlightRecorder::instance().dump_signal_safe(); });
  }

  serve::Server server(options);

  std::once_flag flush_once;
  const auto flush_obs = [&] {
    std::call_once(flush_once, [&] {
      if (!metrics_path.empty()) {
        obs::Metrics::instance().disable();
        if (const Status s = obs::Metrics::instance().write(metrics_path);
            !s.ok()) {
          std::fprintf(stderr, "metrics: %s\n", s.to_string().c_str());
        }
      }
      if (!trace_path.empty()) {
        obs::Tracer::instance().disable();
        if (const Status s = obs::Tracer::instance().write(trace_path);
            !s.ok()) {
          std::fprintf(stderr, "trace: %s\n", s.to_string().c_str());
        }
      }
      if (!flight_path.empty()) {
        if (const Status s = obs::FlightRecorder::instance().dump(); !s.ok()) {
          std::fprintf(stderr, "flight-rec: %s\n", s.to_string().c_str());
        }
      }
    });
  };

  const auto print_summary = [&] {
    if (quiet) return;
    const serve::Server::Counters c = server.counters();
    std::fprintf(stderr,
                 "mlsi_serve: %ld requests — %ld hits, %ld misses, "
                 "%ld coalesced, %ld rejected (%ld deadline), %ld solves, "
                 "%ld replayed from %s\n",
                 c.requests, c.hits, c.misses, c.coalesced,
                 c.rejected_queue + c.rejected_deadline, c.rejected_deadline,
                 c.solves, c.persist_replayed,
                 options.persist_path.empty() ? "(no store)"
                                              : options.persist_path.c_str());
  };

  // SIGTERM/SIGINT: finish admitted work, then flush telemetry. In socket
  // mode drain() unblocks run_socket() and main finishes normally. In
  // stdin mode getline() cannot be woken portably, so the watcher thread
  // itself flushes and exits the process (clean code 0) after the drain.
  const bool stdin_mode = socket_path.empty();
  support::install_shutdown_handler({SIGTERM, SIGINT}, [&, stdin_mode] {
    server.drain();
    if (stdin_mode) {
      print_summary();
      flush_obs();
      std::_Exit(0);
    }
  });

  const Status served = stdin_mode ? server.run_stream(std::cin, std::cout)
                                   : server.run_socket(socket_path);
  if (!served.ok()) {
    std::fprintf(stderr, "error: %s\n", served.to_string().c_str());
    return 1;
  }

  print_summary();
  flush_obs();
  return 0;
}
