#include "serve/server.hpp"

#include <sys/socket.h>
#include <sys/un.h>
#include <unistd.h>

#include <algorithm>
#include <cerrno>
#include <cstring>
#include <thread>
#include <utility>

#include "arch/paths.hpp"
#include "io/case_io.hpp"
#include "obs/flight_rec.hpp"
#include "obs/metrics.hpp"
#include "obs/trace.hpp"
#include "support/strings.hpp"

namespace mlsi::serve {

using json::Object;
using json::Value;

namespace {

void count(const char* name, long delta = 1) {
  if (obs::metrics_enabled()) obs::metrics().counter(name).add(delta);
}

void observe_latency_us(const char* name, double us) {
  if (!obs::metrics_enabled()) return;
  obs::metrics()
      .histogram(name, {50, 100, 250, 500, 1000, 2500, 5000, 10000, 25000,
                        50000, 100000, 250000, 1000000, 5000000})
      .observe(us);
}

void set_gauge(const char* name, double v) {
  if (obs::metrics_enabled()) obs::metrics().gauge(name).set(v);
}

double elapsed_us(const Timer& t) { return t.seconds() * 1e6; }

}  // namespace

std::string_view to_string(ServeOutcome outcome) {
  switch (outcome) {
    case ServeOutcome::kOk: return "ok";
    case ServeOutcome::kInfeasible: return "infeasible";
    case ServeOutcome::kRejected: return "rejected";
    case ServeOutcome::kTimeout: return "timeout";
    case ServeOutcome::kError: return "error";
  }
  return "?";
}

Value response_to_json(const ServeResponse& response) {
  Object o;
  o["id"] = Value{response.id};
  o["status"] = Value{std::string(to_string(response.outcome))};
  if (!response.error.empty()) o["error"] = Value{response.error};
  // Control responses (stats) splice their payload at top level and skip
  // the request-shaped fields entirely.
  if (response.control.is_object()) {
    for (const auto& [key, value] : response.control.as_object()) {
      o[key] = value;
    }
    return Value{std::move(o)};
  }
  o["cached"] = Value{response.cached};
  o["coalesced"] = Value{response.coalesced};
  o["wall_us"] = Value{response.wall_us};
  if (response.timing.seq > 0) {
    const StageTiming& t = response.timing;
    Object timing;
    timing["seq"] = Value{static_cast<double>(t.seq)};
    if (t.leader_seq >= 0) {
      timing["leader_seq"] = Value{static_cast<double>(t.leader_seq)};
    }
    timing["canonicalize_us"] = Value{t.canonicalize_us};
    timing["cache_probe_us"] = Value{t.cache_probe_us};
    timing["queue_wait_us"] = Value{t.queue_wait_us};
    timing["solve_us"] = Value{t.solve_us};
    timing["permute_us"] = Value{t.permute_us};
    timing["total_us"] = Value{t.total_us};
    o["timing"] = Value{std::move(timing)};
  }
  if (response.outcome == ServeOutcome::kOk) o["result"] = response.result;
  return Value{std::move(o)};
}

Server::Server(ServeOptions options)
    : options_(std::move(options)),
      cache_(options_.cache_capacity, options_.cache_shards),
      queue_(options_.queue_depth) {
  if (!options_.persist_path.empty()) {
    auto replayed = store_.open(
        options_.persist_path, options_.code_version,
        [this](CacheKey key, CachedResult value) {
          cache_.insert(key, std::move(value));
        });
    if (replayed.ok()) {
      counters_.persist_replayed.store(*replayed, std::memory_order_relaxed);
      count("serve.persist_replayed", *replayed);
    }
  }
  const int jobs = support::ThreadPool::resolve_jobs(options_.jobs);
  pool_ = std::make_unique<support::ThreadPool>(jobs);
  for (int i = 0; i < jobs; ++i) {
    pool_->submit([this] { worker_loop(); });
  }
}

Server::~Server() { shutdown(); }

void Server::shutdown() { close_down(/*hard=*/true); }

void Server::drain() { close_down(/*hard=*/false); }

void Server::close_down(bool hard) {
  std::lock_guard<std::mutex> lifecycle(lifecycle_mutex_);
  stopping_.store(true, std::memory_order_relaxed);
  if (const int fd = listen_fd_.exchange(-1); fd >= 0) {
    ::shutdown(fd, SHUT_RDWR);  // unblocks accept()
    ::close(fd);
  }
  // hard: cancel running solves cooperatively and make workers reject
  // whatever is still queued. Graceful drain skips both — queue_.close()
  // refuses NEW pushes but items already queued stay poppable
  // (BoundedQueue contract), so every admitted request still gets solved
  // and published before the join below returns.
  if (hard) stop_.request_stop();
  queue_.close();
  pool_.reset();  // joins workers
  {
    // Wake connection threads blocked in read(); they close their own fd.
    // Graceful drain keeps the write half open so a response already being
    // written still reaches its client.
    std::lock_guard<std::mutex> lock(clients_mutex_);
    for (const int fd : client_fds_) {
      ::shutdown(fd, hard ? SHUT_RDWR : SHUT_RD);
    }
  }
  store_.close();
}

Server::Counters Server::counters() const {
  Counters c;
  c.requests = counters_.requests.load(std::memory_order_relaxed);
  c.hits = counters_.hits.load(std::memory_order_relaxed);
  c.misses = counters_.misses.load(std::memory_order_relaxed);
  c.coalesced = counters_.coalesced.load(std::memory_order_relaxed);
  c.rejected_queue = counters_.rejected_queue.load(std::memory_order_relaxed);
  c.rejected_deadline =
      counters_.rejected_deadline.load(std::memory_order_relaxed);
  c.solves = counters_.solves.load(std::memory_order_relaxed);
  c.timeouts = counters_.timeouts.load(std::memory_order_relaxed);
  c.persist_replayed =
      counters_.persist_replayed.load(std::memory_order_relaxed);
  c.negative_hits = counters_.negative_hits.load(std::memory_order_relaxed);
  return c;
}

json::Value Server::stats_json() const {
  Object o;
  const double uptime_s = started_.seconds();
  o["uptime_s"] = Value{uptime_s};
  const Counters c = counters();
  o["requests"] = Value{static_cast<double>(c.requests)};
  o["hits"] = Value{static_cast<double>(c.hits)};
  o["misses"] = Value{static_cast<double>(c.misses)};
  o["coalesced"] = Value{static_cast<double>(c.coalesced)};
  o["rejected_queue"] = Value{static_cast<double>(c.rejected_queue)};
  o["rejected_deadline"] = Value{static_cast<double>(c.rejected_deadline)};
  o["solves"] = Value{static_cast<double>(c.solves)};
  o["timeouts"] = Value{static_cast<double>(c.timeouts)};
  o["persist_replayed"] = Value{static_cast<double>(c.persist_replayed)};
  o["negative_hits"] = Value{static_cast<double>(c.negative_hits)};
  o["queue_depth"] = Value{static_cast<double>(queue_.size())};
  o["queue_capacity"] = Value{static_cast<double>(queue_.capacity())};
  o["in_flight_solves"] =
      Value{static_cast<double>(in_flight_solves_.load(std::memory_order_relaxed))};
  const ResultCache::Stats cs = cache_.stats();
  o["cache_entries"] = Value{static_cast<double>(cs.entries)};
  o["cache_capacity"] = Value{static_cast<double>(cache_.capacity())};
  o["cache_evictions"] = Value{static_cast<double>(cs.evictions)};
  o["hit_rate"] = Value{c.requests > 0 ? static_cast<double>(c.hits) /
                                             static_cast<double>(c.requests)
                                       : 0.0};
  o["rps"] = Value{uptime_s > 0
                       ? static_cast<double>(c.requests) / uptime_s
                       : 0.0};
  o["code_version"] = Value{options_.code_version};
  return Value{std::move(o)};
}

ServeResponse Server::handle_control(const std::string& cmd, std::string id) {
  ServeResponse resp;
  resp.id = std::move(id);
  if (cmd == "stats") {
    count("serve.stats_requests");
    Object payload;
    payload["stats"] = stats_json();
    if (obs::metrics_enabled()) {
      payload["metrics"] = obs::Metrics::instance().snapshot();
    }
    resp.outcome = ServeOutcome::kOk;
    resp.control = Value{std::move(payload)};
  } else {
    resp.outcome = ServeOutcome::kError;
    resp.error = cat("unknown control command '", cmd, "'");
  }
  return resp;
}

ServeResponse Server::respond(const ServeRequest& request,
                              const CanonicalRequest& canon,
                              const arch::SwitchModel& model,
                              const CachedResult& value, Timer t0, bool cached,
                              bool coalesced, StageTiming timing) {
  ServeResponse resp;
  resp.id = request.id;
  resp.outcome = ServeOutcome::kOk;
  resp.cached = cached;
  resp.coalesced = coalesced;
  const Timer t_permute;
  const synth::SynthesisResult result = to_result(value, canon, model.paths);
  resp.result = io::result_to_json(model.topology, request.spec, result);
  // Per-response documents must not embed the process-global metrics
  // snapshot (it is unbounded and differs between fresh and cached paths —
  // the differential guarantee is on the synthesis payload).
  if (resp.result.is_object()) resp.result.as_object().erase("metrics");
  timing.permute_us = elapsed_us(t_permute);
  observe_latency_us("serve.stage.permute_us", timing.permute_us);
  resp.wall_us = t0.seconds() * 1e6;
  timing.total_us = resp.wall_us;
  resp.timing = timing;
  observe_latency_us("serve.e2e_us", resp.wall_us);
  return resp;
}

ServeResponse Server::handle(const ServeRequest& request) {
  Timer t0;
  // The request id: process-unique, assigned the moment the request enters
  // the pipeline, carried through canonicalization, cache probe,
  // coalescing, solve and permute-back via StageTiming.
  const long seq = next_seq_.fetch_add(1, std::memory_order_relaxed) + 1;
  StageTiming timing;
  timing.seq = seq;
  counters_.requests.fetch_add(1, std::memory_order_relaxed);
  count("serve.requests");
  obs::TraceSpan span("serve.handle",
                      [seq] { return cat("serve.req#", seq); });

  ServeResponse resp;
  resp.id = request.id;
  const auto finish = [&](ServeOutcome outcome, std::string error) {
    resp.outcome = outcome;
    resp.error = std::move(error);
    resp.wall_us = t0.seconds() * 1e6;
    timing.total_us = resp.wall_us;
    resp.timing = timing;
    observe_latency_us("serve.e2e_us", resp.wall_us);
    return resp;
  };

  if (Status valid = request.spec.validate(); !valid.ok()) {
    return finish(ServeOutcome::kError, valid.to_string());
  }
  // Replays a cached infeasibility proof. The canonical key strips names,
  // so the message is regenerated from the REQUESTING spec (a relabeled
  // duplicate must not see another request's case name).
  const auto replay_negative = [&] {
    counters_.hits.fetch_add(1, std::memory_order_relaxed);
    counters_.negative_hits.fetch_add(1, std::memory_order_relaxed);
    count("serve.hits");
    count("serve.cache.negative_hits");
    resp.cached = true;
    return finish(
        ServeOutcome::kInfeasible,
        cat("no contamination-free solution for '", request.spec.name,
            "' with ", synth::to_string(request.spec.policy),
            " binding (cached infeasibility proof)"));
  };
  Timer t_stage;
  const CanonicalRequest canon =
      canonicalize(request.spec, options_.synth, options_.code_version);
  timing.canonicalize_us = elapsed_us(t_stage);
  observe_latency_us("serve.stage.canonicalize_us", timing.canonicalize_us);

  // A hit is served only when it fits the request (see fits()). One that
  // does not, a hostile or stale store entry, is a miss: the request is
  // solved and the fresh answer replaces the entry.
  const arch::SwitchModel& model = arch::switch_model(
      request.spec.effective_pins_per_side(), options_.synth.path_options);
  const auto probe = [&] {
    auto entry = cache_.lookup(canon.key);
    if (entry && !fits(*entry, canon, model)) entry.reset();
    return entry;
  };
  t_stage = Timer{};
  auto hit = probe();
  timing.cache_probe_us = elapsed_us(t_stage);
  observe_latency_us("serve.stage.cache_probe_us", timing.cache_probe_us);
  if (hit) {
    if (hit->infeasible) return replay_negative();
    counters_.hits.fetch_add(1, std::memory_order_relaxed);
    count("serve.hits");
    return respond(request, canon, model, *hit, t0, /*cached=*/true,
                   /*coalesced=*/false, timing);
  }

  // Coalescing rides on the cache: the no-cache baseline (capacity 0) must
  // not share solves either, or it would not be a baseline.
  const bool coalesce = cache_.capacity() > 0;
  std::shared_ptr<Flight> flight;
  bool leader = false;
  {
    std::lock_guard<std::mutex> lock(flights_mutex_);
    if (coalesce) {
      // A flight may have completed (and committed) between the lookup
      // above and taking this lock; re-check so we never re-solve.
      if (auto racy_hit = probe()) {
        if (racy_hit->infeasible) return replay_negative();
        counters_.hits.fetch_add(1, std::memory_order_relaxed);
        count("serve.hits");
        return respond(request, canon, model, *racy_hit, t0, true, false,
                       timing);
      }
      if (const auto it = flights_.find(canon.key.text);
          it != flights_.end()) {
        flight = it->second;
      }
    }
    if (flight == nullptr) {
      flight = std::make_shared<Flight>();
      flight->spec = request.spec;
      flight->canon = canon;
      flight->leader_seq = seq;
      const double limit = request.time_limit_s > 0
                               ? request.time_limit_s
                               : options_.default_time_limit_s;
      flight->deadline = support::Deadline::after(limit);
      if (!queue_.try_push(flight)) {
        counters_.rejected_queue.fetch_add(1, std::memory_order_relaxed);
        count("serve.rejected");
        return finish(ServeOutcome::kRejected,
                      "admission queue full (server overloaded)");
      }
      set_gauge("serve.queue_depth", static_cast<double>(queue_.size()));
      leader = true;
      if (coalesce) flights_[canon.key.text] = flight;
    }
  }
  if (leader) {
    counters_.misses.fetch_add(1, std::memory_order_relaxed);
    count("serve.misses");
  } else {
    counters_.coalesced.fetch_add(1, std::memory_order_relaxed);
    count("serve.coalesced");
    // The follower's link to the solve span it rides on.
    if (obs::trace_enabled()) {
      obs::trace_instant("serve.coalesced",
                         {{"seq", json::Value{seq}},
                          {"leader_seq", json::Value{flight->leader_seq}}});
    }
  }

  {
    std::unique_lock<std::mutex> lock(flight->mutex);
    flight->cv.wait(lock, [&] { return flight->done; });
  }
  // Shared solve facts: the leader and every coalesced follower report the
  // SAME queue-wait/solve times (that is the solve that answered them) and
  // the leader's seq as the link.
  timing.leader_seq = flight->leader_seq;
  timing.queue_wait_us = flight->queue_wait_us;
  timing.solve_us = flight->solve_us;
  if (flight->outcome == ServeOutcome::kOk) {
    // Every waiter rehydrates through its OWN canonical permutations, so a
    // relabeled duplicate gets the answer in its labeling.
    return respond(request, canon, model, *flight->value, t0,
                   /*cached=*/false, /*coalesced=*/!leader, timing);
  }
  resp.coalesced = !leader;
  return finish(flight->outcome, flight->error);
}

void Server::worker_loop() {
  while (auto item = queue_.pop()) {
    const std::shared_ptr<Flight> flight = std::move(*item);
    set_gauge("serve.queue_depth", static_cast<double>(queue_.size()));
    flight->queue_wait_us = flight->queued_at.seconds() * 1e6;
    observe_latency_us("serve.queue_wait_us", flight->queue_wait_us);
    observe_latency_us("serve.stage.queue_wait_us", flight->queue_wait_us);
    if (stop_.stop_requested()) {
      publish(flight, ServeOutcome::kRejected, nullptr, "server shutting down");
      continue;
    }
    if (flight->deadline.expired()) {
      counters_.rejected_deadline.fetch_add(1, std::memory_order_relaxed);
      count("serve.rejected_deadline");
      on_deadline_blown();
      publish(flight, ServeOutcome::kRejected, nullptr,
              "deadline expired while queued");
      continue;
    }
    counters_.solves.fetch_add(1, std::memory_order_relaxed);
    count("serve.solves");
    set_gauge("serve.inflight_solves",
              in_flight_solves_.fetch_add(1, std::memory_order_relaxed) + 1);

    synth::SynthesisOptions opts = options_.synth;
    opts.engine_params.deadline =
        support::Deadline::sooner(opts.engine_params.deadline,
                                  flight->deadline);
    opts.engine_params.stop = stop_.token();
    const Timer t_solve;
    auto solved = [&] {
      obs::TraceSpan span("serve.solve", [&] {
        return cat("serve.solve#", flight->leader_seq);
      });
      return synth::synthesize(flight->spec, opts);
    }();
    flight->solve_us = elapsed_us(t_solve);
    observe_latency_us("serve.stage.solve_us", flight->solve_us);
    set_gauge("serve.inflight_solves",
              in_flight_solves_.fetch_sub(1, std::memory_order_relaxed) - 1);
    if (solved.ok()) {
      auto cached = std::make_shared<const CachedResult>(
          to_cached(*solved, flight->canon));
      // Only proven-optimal answers are cacheable: a deadline-limited
      // incumbent depends on the budget, which is deliberately not part of
      // the cache key.
      if (solved->stats.proven_optimal && cache_.capacity() > 0) {
        cache_.insert(flight->canon.key, CachedResult(*cached));
        if (store_.is_open()) {
          if (store_.append(flight->canon.key, *cached).ok()) {
            count("serve.persist_appended");
          }
        }
      }
      publish(flight, ServeOutcome::kOk, std::move(cached), "");
    } else {
      ServeOutcome outcome = ServeOutcome::kError;
      if (solved.status().code() == StatusCode::kInfeasible) {
        outcome = ServeOutcome::kInfeasible;
        // kInfeasible is a PROOF (budget truncation reports kTimeout), so
        // it is as cacheable as a proven optimum: commit a negative entry
        // so duplicates — relabeled ones included — replay the verdict
        // instead of re-proving it. The proof's wall time is its
        // recompute cost for cost-aware eviction.
        if (cache_.capacity() > 0) {
          CachedResult negative;
          negative.infeasible = true;
          negative.stats.engine = "negative";
          negative.stats.proven_optimal = true;
          negative.stats.runtime_s = flight->solve_us / 1e6;
          cache_.insert(flight->canon.key, CachedResult(negative));
          if (store_.is_open()) {
            if (store_.append(flight->canon.key, negative).ok()) {
              count("serve.persist_appended");
            }
          }
        }
      } else if (solved.status().code() == StatusCode::kTimeout) {
        outcome = ServeOutcome::kTimeout;
        counters_.timeouts.fetch_add(1, std::memory_order_relaxed);
        count("serve.timeouts");
      }
      if (outcome == ServeOutcome::kTimeout) on_deadline_blown();
      publish(flight, outcome, nullptr, solved.status().message());
    }
  }
}

void Server::on_deadline_blown() {
  // A blown deadline is exactly the "wedged solve" evidence the flight
  // recorder exists for: dump the recent rings while the trail is fresh.
  // Called before publish(), so the dump is on disk by the time the
  // client sees its rejection. Repeated dumps overwrite — the latest
  // evidence wins.
  obs::FlightRecorder& rec = obs::FlightRecorder::instance();
  if (!obs::flight_recorder_enabled() || rec.dump_path()[0] == '\0') return;
  if (rec.dump().ok()) count("fr.dumps");
}

void Server::publish(const std::shared_ptr<Flight>& flight,
                     ServeOutcome outcome,
                     std::shared_ptr<const CachedResult> value,
                     std::string error) {
  {
    // Deregister first: requests arriving after the commit must go through
    // the cache (or a new flight), never attach to a finished one.
    std::lock_guard<std::mutex> lock(flights_mutex_);
    if (const auto it = flights_.find(flight->canon.key.text);
        it != flights_.end() && it->second == flight) {
      flights_.erase(it);
    }
  }
  {
    std::lock_guard<std::mutex> lock(flight->mutex);
    flight->outcome = outcome;
    flight->value = std::move(value);
    flight->error = std::move(error);
    flight->done = true;
  }
  flight->cv.notify_all();
}

ServeResponse Server::handle_line(const std::string& line) {
  ServeResponse resp;
  auto doc = json::parse(line);
  if (!doc.ok()) {
    resp.error = cat("bad request line: ", doc.status().message());
    return resp;
  }
  ServeRequest req;
  if (const Value* id = doc->find("id"); id != nullptr) {
    req.id = id->is_string() ? id->as_string() : id->dump();
  }
  resp.id = req.id;
  if (const Value* cmd = doc->find("cmd"); cmd != nullptr) {
    return handle_control(cmd->is_string() ? cmd->as_string() : cmd->dump(),
                          std::move(req.id));
  }
  const Value* spec_doc = doc->find("case");
  if (spec_doc == nullptr) {
    resp.error = "request is missing 'case'";
    return resp;
  }
  auto spec = io::spec_from_json(*spec_doc);
  if (!spec.ok()) {
    resp.error = spec.status().to_string();
    return resp;
  }
  req.spec = std::move(*spec);
  req.time_limit_s = doc->get_number("time_limit_s", 0.0);
  return handle(req);
}

Status Server::run_stream(std::istream& in, std::ostream& out) {
  std::mutex out_mutex;
  {
    // More frontends than solver workers so the admission queue (not the
    // frontend pool) is what backpressure hits.
    support::ThreadPool frontends(
        support::ThreadPool::resolve_jobs(options_.jobs) * 2);
    std::string line;
    while (!stopping_.load(std::memory_order_relaxed) &&
           std::getline(in, line)) {
      if (line.empty()) continue;
      frontends.submit([this, &out, &out_mutex, line] {
        const ServeResponse resp = handle_line(line);
        const std::string text = response_to_json(resp).dump();
        std::lock_guard<std::mutex> lock(out_mutex);
        out << text << '\n';
        out.flush();
      });
    }
    frontends.wait_idle();
  }
  return Status::Ok();
}

Status Server::run_socket(const std::string& path) {
  const int fd = ::socket(AF_UNIX, SOCK_STREAM, 0);
  if (fd < 0) return Status::Internal("socket() failed");
  sockaddr_un addr{};
  addr.sun_family = AF_UNIX;
  if (path.size() >= sizeof(addr.sun_path)) {
    ::close(fd);
    return Status::InvalidArgument(
        cat("socket path too long: ", path));
  }
  std::strncpy(addr.sun_path, path.c_str(), sizeof(addr.sun_path) - 1);
  ::unlink(path.c_str());
  if (::bind(fd, reinterpret_cast<const sockaddr*>(&addr), sizeof addr) != 0 ||
      ::listen(fd, 64) != 0) {
    ::close(fd);
    return Status::Internal(cat("cannot listen on ", path));
  }
  listen_fd_.store(fd, std::memory_order_relaxed);

  std::vector<std::thread> connections;
  while (!stopping_.load(std::memory_order_relaxed)) {
    const int client = ::accept(fd, nullptr, nullptr);
    if (client < 0) {
      if (errno == EINTR && !stopping_.load(std::memory_order_relaxed)) {
        continue;  // shutdown-signal handler interrupted us, not a close
      }
      break;  // listen fd closed by shutdown()/drain()
    }
    {
      std::lock_guard<std::mutex> lock(clients_mutex_);
      client_fds_.push_back(client);
    }
    connections.emplace_back([this, client] {
      std::string pending;
      char chunk[4096];
      ssize_t n;
      while ((n = ::read(client, chunk, sizeof chunk)) > 0) {
        pending.append(chunk, static_cast<std::size_t>(n));
        std::size_t pos;
        while ((pos = pending.find('\n')) != std::string::npos) {
          const std::string line = pending.substr(0, pos);
          pending.erase(0, pos + 1);
          if (line.empty()) continue;
          const ServeResponse resp = handle_line(line);
          const std::string text = response_to_json(resp).dump() + "\n";
          std::size_t off = 0;
          while (off < text.size()) {
            const ssize_t w =
                ::write(client, text.data() + off, text.size() - off);
            if (w <= 0) break;
            off += static_cast<std::size_t>(w);
          }
        }
      }
      {
        std::lock_guard<std::mutex> lock(clients_mutex_);
        client_fds_.erase(
            std::remove(client_fds_.begin(), client_fds_.end(), client),
            client_fds_.end());
      }
      ::close(client);
    });
  }
  for (std::thread& t : connections) t.join();
  if (const int lfd = listen_fd_.exchange(-1); lfd >= 0) ::close(lfd);
  return Status::Ok();
}

}  // namespace mlsi::serve
