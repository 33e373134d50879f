#pragma once

/// \file server.hpp
/// \brief Long-running synthesis service: canonicalize -> cache -> solve.
///
/// Request lifecycle (Server::handle, thread-safe):
///
///  1. validate the spec; 2. canonicalize it together with the synthesis
///  options and code version into a CacheKey; 3. answer hits straight from
///  the sharded LRU (sub-millisecond, no solver involved) — a hit whose
///  payload does not fit the request (cache.hpp fits(): a hostile or
///  stale store entry) counts as a miss, and its fresh answer replaces
///  it; 4. coalesce concurrent identical misses onto one in-flight solve
///  (every waiter shares the result, re-labeled per request); 5. admit the
///  solve into a bounded queue — a full queue rejects the request instead
///  of buffering unboundedly, and a request whose deadline expired while
///  queued is rejected when a worker picks it up; 6. workers solve through
///  the normal Synthesizer pipeline and commit proven-optimal answers to the
///  cache and the optional persistent store. Every answer, hit or fresh, is
///  carried back into the request's labeling on the process's shared switch
///  model (arch::switch_model()), the one the workers solved on. Proven infeasibility is
///  committed too (a negative entry): a later identical — or relabeled —
///  request replays the proof from the cache instead of re-running the
///  solver to rediscover it. Budget-truncated timeouts are never cached.
///
/// Transport adapters: run_stream() speaks JSONL over std::istream /
/// std::ostream (the daemon's stdin mode and the replay tests);
/// run_socket() listens on a Unix domain socket, one JSONL connection per
/// client thread. Request lines look like
///   {"id": "r1", "case": {<case-file document>}, "time_limit_s": 30}
/// and responses like
///   {"id": "r1", "status": "ok", "cached": true, "coalesced": false,
///    "wall_us": 412.0, "timing": {...}, "result": {<result_to_json doc>}}
/// with "status" one of ok | infeasible | rejected | timeout | error.
///
/// Control commands share the transport: a line {"cmd": "stats", "id": ...}
/// is answered with {"id", "status": "ok", "stats": {...derived numbers...},
/// "metrics": {...Metrics::snapshot()...}} — live introspection without
/// restarting the daemon (this is what tools/mlsi_top polls).
///
/// Request-scoped tracing: every request is stamped with a process-unique
/// sequence number on entry to handle(). The per-stage breakdown
/// (canonicalize, cache probe, queue wait, solve, permute-back) is carried
/// in the response "timing" section; coalesced followers report the
/// leader's solve/queue time plus a "leader_seq" link to the solve they
/// shared. The same stages feed serve.stage.* histograms.
///
/// Observability: serve.* counters (requests, hits, misses, coalesced,
/// rejected, rejected_deadline, solves, timeouts, deadline_blown) and
/// queue-wait / stage / end-to-end latency histograms when obs::metrics
/// are enabled; the same numbers are always available via counters() for
/// tools that run with metrics off. A request that blows its deadline
/// triggers an obs::FlightRecorder dump (when one is configured) so the
/// wedged solve leaves a trail.

#include <atomic>
#include <istream>
#include <memory>
#include <mutex>
#include <ostream>
#include <string>
#include <unordered_map>
#include <vector>

#include "serve/cache.hpp"
#include "serve/canonical.hpp"
#include "support/executor.hpp"
#include "support/queue.hpp"
#include "synth/synthesizer.hpp"

namespace mlsi::serve {

struct ServeOptions {
  /// Engine, reduction, pressure and path options shared by every request
  /// (folded into the cache key). Per-request deadline overrides
  /// engine_params.deadline.
  synth::SynthesisOptions synth;
  /// Total in-memory entries; 0 disables caching AND coalescing (the
  /// pass-through baseline — admission control still applies).
  std::size_t cache_capacity = 1024;
  int cache_shards = 8;
  /// Append-only JSONL store; empty disables persistence.
  std::string persist_path;
  /// Solver workers (0 = hardware parallelism).
  int jobs = 0;
  /// Admission bound: solves queued but not yet picked up by a worker.
  std::size_t queue_depth = 64;
  /// Per-request wall budget when the request carries none.
  double default_time_limit_s = 120.0;
  /// Build identifier folded into cache keys and the persistent header.
  std::string code_version = "dev";
};

enum class ServeOutcome { kOk, kInfeasible, kRejected, kTimeout, kError };

[[nodiscard]] std::string_view to_string(ServeOutcome outcome);

struct ServeRequest {
  std::string id;
  synth::ProblemSpec spec;
  double time_limit_s = 0.0;  ///< 0 = server default
};

/// Per-stage latency breakdown of one request; serialized as the response
/// "timing" section when seq > 0 (control responses have none). Stages a
/// request never entered stay 0 — a cache hit has no queue/solve time, and
/// a coalesced follower carries the *leader's* queue_wait/solve values
/// (that is the solve it waited on) plus leader_seq as the link.
struct StageTiming {
  long seq = 0;          ///< request id, assigned on entry to handle()
  long leader_seq = -1;  ///< seq of the request whose solve answered this
                         ///< one; -1 when no solve was involved (cache hit,
                         ///< rejection); == seq for a leader
  double canonicalize_us = 0.0;
  double cache_probe_us = 0.0;
  double queue_wait_us = 0.0;
  double solve_us = 0.0;
  double permute_us = 0.0;  ///< rehydration into the request's labeling
  double total_us = 0.0;    ///< == wall_us
};

struct ServeResponse {
  std::string id;
  ServeOutcome outcome = ServeOutcome::kError;
  std::string error;       ///< human-readable detail for rejected/error
  bool cached = false;     ///< answered from the LRU (no solve)
  bool coalesced = false;  ///< shared another request's in-flight solve
  double wall_us = 0.0;    ///< end-to-end handle() latency
  StageTiming timing;      ///< per-stage breakdown (seq == 0 -> omitted)
  json::Value result;      ///< result_to_json document when outcome == kOk
  json::Value control;     ///< control-command payload, spliced into the
                           ///< response line at top level (stats)
};

/// Serializes a response to its single JSONL line (without the newline).
[[nodiscard]] json::Value response_to_json(const ServeResponse& response);

class Server {
 public:
  explicit Server(ServeOptions options);
  ~Server();

  Server(const Server&) = delete;
  Server& operator=(const Server&) = delete;

  /// Handles one request synchronously; safe to call from any number of
  /// threads concurrently (this is the bench's client entry point).
  [[nodiscard]] ServeResponse handle(const ServeRequest& request);

  /// Parses one JSONL request line and handles it.
  [[nodiscard]] ServeResponse handle_line(const std::string& line);

  /// JSONL loop: one request per input line, one response per output line
  /// (responses may interleave out of order; match by "id"). Returns after
  /// EOF once every in-flight request finished.
  Status run_stream(std::istream& in, std::ostream& out);

  /// Listens on a Unix domain socket at \p path (an existing file is
  /// replaced); every connection gets its own JSONL loop. Blocks until
  /// shutdown(). Returns kInternal if the socket cannot be created.
  Status run_socket(const std::string& path);

  /// Stops accepting work, cancels running solves cooperatively, drains
  /// the queue and joins the workers. Idempotent; the destructor calls it.
  void shutdown();

  /// Graceful counterpart to shutdown(): stops intake (listener, client
  /// connections, new admissions) but lets already-admitted solves FINISH
  /// and publish before the workers are joined — the SIGTERM path, so an
  /// interrupted daemon answers what it accepted and its telemetry covers
  /// the whole session. Idempotent, safe to race with shutdown().
  void drain();

  /// Live introspection document served by the "stats" control command:
  /// uptime, the counters() block, queue depth/capacity, in-flight solves,
  /// cache occupancy, and derived hit_rate / rps. Thread-safe.
  [[nodiscard]] json::Value stats_json() const;

  struct Counters {
    long requests = 0;
    long hits = 0;
    long misses = 0;
    long coalesced = 0;
    long rejected_queue = 0;
    long rejected_deadline = 0;
    long solves = 0;
    long timeouts = 0;  ///< solves that ran but blew their deadline
    long persist_replayed = 0;
    long negative_hits = 0;  ///< hits that replayed an infeasibility proof
  };
  [[nodiscard]] Counters counters() const;

  [[nodiscard]] const ServeOptions& options() const { return options_; }
  [[nodiscard]] const ResultCache& cache() const { return cache_; }

 private:
  /// One in-flight solve; concurrent identical requests all wait on it.
  struct Flight {
    std::mutex mutex;
    std::condition_variable cv;
    bool done = false;
    ServeOutcome outcome = ServeOutcome::kError;
    std::string error;
    std::shared_ptr<const CachedResult> value;
    // Solve inputs (the first requester's labeling — any waiter's would do).
    synth::ProblemSpec spec;
    CanonicalRequest canon;
    support::Deadline deadline;
    Timer queued_at;
    // Timing facts shared with every waiter (leader and coalesced
    // followers alike); written by the worker before publish(), read only
    // after done == true, so the flight mutex orders them.
    long leader_seq = 0;        ///< seq of the request that enqueued this
    double queue_wait_us = 0.0; ///< admission -> worker pickup
    double solve_us = 0.0;      ///< synthesize() wall time
  };

  void worker_loop();
  void publish(const std::shared_ptr<Flight>& flight, ServeOutcome outcome,
               std::shared_ptr<const CachedResult> value, std::string error);
  ServeResponse respond(const ServeRequest& request,
                        const CanonicalRequest& canon,
                        const arch::SwitchModel& model,
                        const CachedResult& value, Timer t0, bool cached,
                        bool coalesced, StageTiming timing);
  ServeResponse handle_control(const std::string& cmd, std::string id);
  /// Shared body of shutdown()/drain(); hard decides whether running and
  /// queued solves are cancelled (shutdown) or finished (drain).
  void close_down(bool hard);
  void on_deadline_blown();

  ServeOptions options_;
  ResultCache cache_;
  PersistentStore store_;
  support::StopSource stop_;
  support::BoundedQueue<std::shared_ptr<Flight>> queue_;
  std::unique_ptr<support::ThreadPool> pool_;

  std::mutex flights_mutex_;
  std::unordered_map<std::string, std::shared_ptr<Flight>> flights_;

  std::atomic<int> listen_fd_{-1};
  std::atomic<bool> stopping_{false};
  std::mutex lifecycle_mutex_;  ///< serializes close_down() callers

  /// Open client connections (run_socket); close_down() shuts them down so
  /// blocked reads return and connection threads exit.
  std::mutex clients_mutex_;
  std::vector<int> client_fds_;

  std::atomic<long> next_seq_{0};
  std::atomic<int> in_flight_solves_{0};
  Timer started_;

  struct AtomicCounters {
    std::atomic<long> requests{0};
    std::atomic<long> hits{0};
    std::atomic<long> misses{0};
    std::atomic<long> coalesced{0};
    std::atomic<long> rejected_queue{0};
    std::atomic<long> rejected_deadline{0};
    std::atomic<long> solves{0};
    std::atomic<long> timeouts{0};
    std::atomic<long> persist_replayed{0};
    std::atomic<long> negative_hits{0};
  };
  AtomicCounters counters_;
};

}  // namespace mlsi::serve
