// serve_zipf: the serving path, spec request in -> serialized response out,
// through an in-process serve::Server with default options and persistence
// on. The run:
//
//   1. warm-up: one client sends the stream's prefix to a fresh server,
//      which writes its persistent store (one client and no evictions, so
//      the store is the same on every run with this seed);
//   2. set-up: the server, now holding half the pool, restarts from that
//      store (worker start + store replay into the cache), before every
//      segment of the window and once after it; the median restart is
//      setup_s;
//   3. measured window: 4 closed-loop clients send the remaining lines
//      through Server::handle_line and serialize every response. The window
//      is cut into three segments, each on a freshly restarted server.
//
// Every distinct design a pool spec receives is kept and, after the window,
// checked against the reference verdict and rebuilt for sim::validate.

#include <unistd.h>

#include <algorithm>
#include <atomic>
#include <bit>
#include <cstdio>
#include <fstream>
#include <functional>
#include <limits>
#include <thread>
#include <unordered_map>

#include "inputs.hpp"
#include "io/case_io.hpp"
#include "serve/server.hpp"
#include "support/strings.hpp"
#include "workloads.hpp"

namespace perfbench {

using mlsi::cat;
namespace json = mlsi::json;
namespace serve = mlsi::serve;

namespace {

constexpr int kClients = 4;
constexpr int kSegments = 3;

std::uint64_t mix(std::uint64_t h, std::uint64_t x) {
  return (h ^ x) * 0x100000001B3ull + 0x9E3779B97F4A7C15ull;
}

std::uint64_t hash_value(const json::Value& v, std::uint64_t h) {
  switch (v.type()) {
    case json::Type::kNull: return mix(h, 1);
    case json::Type::kBool: return mix(h, v.as_bool() ? 2 : 3);
    case json::Type::kNumber:
      return mix(h, std::bit_cast<std::uint64_t>(v.as_number()));
    case json::Type::kString:
      return mix(h, std::hash<std::string>{}(v.as_string()));
    case json::Type::kArray:
      h = mix(h, v.as_array().size());
      for (const json::Value& x : v.as_array()) h = hash_value(x, h);
      return h;
    case json::Type::kObject:
      h = mix(h, v.as_object().size());
      for (const auto& [k, x] : v.as_object()) {
        h = hash_value(x, mix(h, std::hash<std::string>{}(k)));
      }
      return h;
  }
  return h;
}

/// Hash of what a response says about the design, in the pool spec's own
/// labeling (\p names: the request's module names by pool-spec index).
/// Every relabeled request answered from the same canonical solution hashes
/// alike, and solve statistics, which differ between an original solve and
/// a re-solve after eviction, are left out.
std::uint64_t design_hash(const serve::ServeResponse& r,
                          const std::vector<std::string>& names) {
  std::uint64_t h = mix(0, static_cast<std::uint64_t>(r.outcome));
  if (r.outcome != serve::ServeOutcome::kOk) return h;
  const auto base = [&](const std::string& name) -> std::uint64_t {
    for (std::size_t m = 0; m < names.size(); ++m) {
      if (names[m] == name) return m;
    }
    return std::hash<std::string>{}(name) | (1ull << 63);
  };
  // Binding and flows are listed in the request's labeling: combine their
  // entries in an order-independent way.
  std::uint64_t binding = 0;
  if (const json::Value* b = r.result.find("binding"); b && b->is_object()) {
    for (const auto& [module, pin] : b->as_object()) {
      binding += hash_value(pin, mix(1, base(module)));
    }
  }
  std::uint64_t flows = 0;
  if (const json::Value* f = r.result.find("flows"); f && f->is_array()) {
    for (const json::Value& fo : f->as_array()) {
      std::uint64_t fh = mix(mix(2, base(fo.get_string("from", ""))),
                             base(fo.get_string("to", "")));
      fh = mix(fh, static_cast<std::uint64_t>(fo.get_int("set", -1)));
      if (const json::Value* path = fo.find("path")) fh = hash_value(*path, fh);
      flows += fh;
    }
  }
  h = mix(mix(h, binding), flows);
  for (const char* key :
       {"control_inlets", "flow_length_mm", "num_sets", "objective", "valves"}) {
    if (const json::Value* x = r.result.find(key)) {
      h = hash_value(*x, mix(h, std::hash<std::string_view>{}(key)));
    }
  }
  return h;
}

/// The answers one client received, kept for the checks after the windows:
/// one entry per distinct design a pool spec received, so what is kept does
/// not grow with the number of requests.
struct Answers {
  struct Received {
    int line;
    std::string text;  ///< first response carrying this design
    long count = 0;    ///< responses carrying it
  };
  /// (pool spec, design in its labeling) -> index into received.
  std::unordered_map<std::uint64_t, std::size_t> seen;
  std::vector<Received> received;
  std::vector<std::string> errors;  ///< rejected / timeout / error responses

  void record(const RequestStream& stream, int line,
              const serve::ServeResponse& resp, std::string text) {
    if (resp.outcome != serve::ServeOutcome::kOk &&
        resp.outcome != serve::ServeOutcome::kInfeasible) {
      errors.push_back(cat("line ", line, ": ", serve::to_string(resp.outcome),
                           " ", resp.error));
      return;
    }
    const auto l = static_cast<std::size_t>(line);
    const std::uint64_t key =
        mix(design_hash(resp, stream.module_names[l]),
            static_cast<std::uint64_t>(stream.pool_index[l]));
    const auto [it, fresh] = seen.emplace(key, received.size());
    if (fresh) received.push_back({line, std::move(text), 0});
    ++received[it->second].count;
  }
};

/// One client's record of a window.
struct Client {
  Answers answers;
  LatencyHistogram latency;
  SpanLog log;
  // StageTiming samples (µs) of traced windows.
  std::vector<double> canonicalize_us, cache_probe_us, permute_us;
  std::vector<double> queue_wait_us, solve_us;
};

struct Window {
  double wall_s = 0.0;
  long requests = 0;
  std::vector<double> pass_s;  ///< complete passes over the measured lines
};

/// Sends lines [warmup, end) of the stream, cycled, from kClients
/// closed-loop clients for \p seconds. Traced windows split handle_line()
/// into parse / handle / emit spans and keep the StageTiming samples.
Window drive(serve::Server& server, const RequestStream& stream,
             double seconds, bool traced, std::vector<Client>& clients) {
  const long measured = static_cast<long>(stream.lines.size()) - stream.warmup;
  constexpr long kMaxPasses = 1 << 14;
  std::vector<std::atomic<std::int64_t>> pass_end(kMaxPasses);
  std::atomic<long> next{0};
  const std::int64_t start = now_ns();
  const std::int64_t deadline = start + static_cast<std::int64_t>(seconds * 1e9);

  const auto client_loop = [&](Client& c) {
    while (now_ns() < deadline) {
      const long k = next.fetch_add(1, std::memory_order_relaxed);
      const int j = stream.warmup + static_cast<int>(k % measured);
      const std::string& line = stream.lines[static_cast<std::size_t>(j)];
      const std::int64_t t0 = now_ns();
      serve::ServeResponse resp;
      std::string text;
      if (!traced) {
        resp = server.handle_line(line);
        text = serve::response_to_json(resp).dump();
      } else {
        const Scope root(&c.log, "request", k);
        serve::ServeRequest req;
        {
          const Scope s(&c.log, "io.parse", k);
          const auto doc = json::parse(line);
          auto spec = mlsi::io::spec_from_json(*doc->find("case"));
          req.id = doc->get_string("id", "");
          req.spec = std::move(*spec);
        }
        {
          const Scope s(&c.log, "serve.handle", k);
          resp = server.handle(req);
        }
        {
          const Scope s(&c.log, "io.emit", k);
          text = serve::response_to_json(resp).dump();
        }
      }
      const std::int64_t t1 = now_ns();
      c.latency.add(static_cast<double>(t1 - t0) / 1e6);
      if (const long p = k / measured; p < kMaxPasses) {
        std::int64_t prev = pass_end[static_cast<std::size_t>(p)].load();
        while (prev < t1 &&
               !pass_end[static_cast<std::size_t>(p)].compare_exchange_weak(prev, t1)) {
        }
      }
      if (traced) {
        const serve::StageTiming& t = resp.timing;
        if (resp.cached) {
          c.canonicalize_us.push_back(t.canonicalize_us);
          c.cache_probe_us.push_back(t.cache_probe_us);
          if (resp.outcome == serve::ServeOutcome::kOk) {
            c.permute_us.push_back(t.permute_us);
          }
        } else if (!resp.coalesced && t.leader_seq == t.seq) {
          c.queue_wait_us.push_back(t.queue_wait_us);
          c.solve_us.push_back(t.solve_us);
        }
      }
      c.answers.record(stream, j, resp, std::move(text));
    }
  };
  {
    std::vector<std::thread> threads;
    for (Client& c : clients) threads.emplace_back(client_loop, std::ref(c));
    for (std::thread& t : threads) t.join();
  }
  Window w;
  w.wall_s = static_cast<double>(now_ns() - start) / 1e9;
  w.requests = next.load();
  std::int64_t prev = start;
  for (long p = 0; (p + 1) * measured <= w.requests && p < kMaxPasses; ++p) {
    const std::int64_t end = pass_end[static_cast<std::size_t>(p)].load();
    w.pass_s.push_back(static_cast<double>(end - prev) / 1e9);
    prev = end;
  }
  return w;
}

bool copy_file(const std::string& from, const std::string& to) {
  std::ifstream in(from, std::ios::binary);
  std::ofstream out(to, std::ios::binary | std::ios::trunc);
  if (!in || !out) return false;
  out << in.rdbuf();
  return static_cast<bool>(out);
}

std::vector<double> merged(const std::vector<Client>& clients,
                           std::vector<double> Client::*field) {
  std::vector<double> all;
  for (const Client& c : clients) {
    all.insert(all.end(), (c.*field).begin(), (c.*field).end());
  }
  return all;
}

}  // namespace

RunOutcome run_serve(const RunOptions& opt) {
  RunOutcome out;
  const std::vector<PoolEntry> pool = serve_pool();
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
  const RequestStream stream = serve_stream(pool, opt.seed);
  const long measured = static_cast<long>(stream.lines.size()) - stream.warmup;

  const std::string base = cat(opt.out_dir, "/serve-store-", ::getpid());
  const std::string warm_store = base + "-warm.jsonl";
  const std::string store = base + ".jsonl";
  std::remove(warm_store.c_str());
  std::remove(store.c_str());

  // The warm-up server keeps the default capacity, so it never evicts and
  // its store holds exactly the distinct specs of the prefix (eviction picks
  // by measured solve time, which would make the store vary run to run).
  serve::ServeOptions options;
  options.persist_path = warm_store;

  // Every received design, checked after the windows.
  std::vector<Answers> checked;
  out.notes.push_back(cat("resident before the warm-up: ",
                          proc_status_mb("VmRSS"), " MB"));

  // 1. Warm-up prefix from one client.
  {
    serve::Server server(options);
    Answers a;
    for (int j = 0; j < stream.warmup; ++j) {
      const serve::ServeResponse resp =
          server.handle_line(stream.lines[static_cast<std::size_t>(j)]);
      a.record(stream, j, resp, serve::response_to_json(resp).dump());
    }
    out.attempted += stream.warmup;
    checked.push_back(std::move(a));
  }
  options.persist_path = store;
  options.cache_capacity = pool.size() / 2;

  // 2. Restarts from the warm-up store. A timed restart is the best of
  // kSetupTries constructions, each from a fresh copy of the store.
  const auto restart = [&](std::vector<double>* setup_s) {
    std::unique_ptr<serve::Server> server;
    double best_s = std::numeric_limits<double>::infinity();
    for (int attempt = 0; attempt < (setup_s != nullptr ? kSetupTries : 1);
         ++attempt) {
      server.reset();
      if (!copy_file(warm_store, store)) return server;
      const std::int64_t t0 = now_ns();
      server = std::make_unique<serve::Server>(options);
      best_s = std::min(best_s, static_cast<double>(now_ns() - t0) / 1e9);
    }
    if (setup_s != nullptr) setup_s->push_back(best_s);
    return server;
  };

  Values v;
  const auto run_window = [&](serve::Server& server, double seconds,
                              bool traced) {
    std::vector<Client> clients(kClients);
    const Window w = drive(server, stream, seconds, traced, clients);
    out.attempted += w.requests;
    return std::make_pair(w, std::move(clients));
  };

  if (!opt.trace) {
    // The window is cut into segments, each on a server restarted from the
    // warm-up store, so the set-up repetitions are spread over the run.
    std::vector<double> setup_s;
    LatencyHistogram latency;
    std::vector<double> pass_s;
    double wall_s = 0.0;
    long requests = 0;
    long replayed = 0;
    serve::Server::Counters c;
    long evictions = 0;
    for (int segment = 0; segment <= kSegments; ++segment) {
      std::unique_ptr<serve::Server> server = restart(&setup_s);
      if (server == nullptr) {
        out.fail("cannot copy the warm-up store");
        return out;
      }
      if (segment == kSegments) break;  // a last set-up after the window
      replayed = server->counters().persist_replayed;
      auto [w, clients] = run_window(*server, opt.seconds / kSegments, false);
      const serve::Server::Counters sc = server->counters();
      c.hits += sc.hits;
      c.negative_hits += sc.negative_hits;
      c.solves += sc.solves;
      c.coalesced += sc.coalesced;
      evictions += server->cache().stats().evictions;
      server.reset();
      for (Client& cl : clients) {
        latency.merge(cl.latency);
        checked.push_back(std::move(cl.answers));
      }
      pass_s.insert(pass_s.end(), w.pass_s.begin(), w.pass_s.end());
      wall_s += w.wall_s;
      requests += w.requests;
    }
    v["setup_s"] = median(setup_s);
    v["wall_s"] = pass_s.empty() ? wall_s * static_cast<double>(measured) /
                                       static_cast<double>(requests)
                                 : median(pass_s);
    v["case_geomean_ms"] = latency.geomean();
    v["throughput_per_s"] = static_cast<double>(requests) / wall_s;
    v["latency_p50_ms"] = latency.quantile(0.50);
    v["latency_p99_ms"] = latency.quantile(0.99);
    v["peak_rss_mb"] = proc_status_mb("VmHWM");
    out.notes.push_back(cat(
        "windows: ", requests, " requests in ", wall_s, " s, ", pass_s.size(),
        " passes of ", measured, "; hits ", c.hits, " (negative ",
        c.negative_hits, "), solves ", c.solves, ", coalesced ", c.coalesced,
        ", evictions ", evictions, ", replayed ", replayed));
  } else {
    // Untraced half, then a traced half on a server restarted the same way;
    // the throughput ratio is the tracing overhead.
    std::unique_ptr<serve::Server> plain_server = restart(nullptr);
    if (plain_server == nullptr) {
      out.fail("cannot copy the warm-up store");
      return out;
    }
    auto [plain, plain_clients] = run_window(*plain_server, opt.seconds / 2, false);
    plain_server.reset();
    for (Client& cl : plain_clients) checked.push_back(std::move(cl.answers));

    std::unique_ptr<serve::Server> server = restart(nullptr);
    if (server == nullptr) {
      out.fail("cannot copy the warm-up store");
      return out;
    }
    const long replayed = server->counters().persist_replayed;
    const long evictions0 = server->cache().stats().evictions;
    auto [w, clients] = run_window(*server, opt.seconds / 2, true);
    const serve::Server::Counters c = server->counters();
    const long evictions = server->cache().stats().evictions - evictions0;
    server.reset();

    const auto pass_total = [&](const char* span) {
      std::vector<double> per_pass;
      for (std::size_t p = 0; p < w.pass_s.size(); ++p) {
        double total = 0.0;
        for (const Client& cl : clients) {
          const auto self = cl.log.self_ms(static_cast<long>(p) * measured,
                                           static_cast<long>(p + 1) * measured);
          if (const auto it = self.find(span); it != self.end()) total += it->second;
        }
        per_pass.push_back(total);
      }
      return median(per_pass);
    };
    const auto ms_quantile = [&](std::vector<double> Client::*field, double q) {
      return quantile(merged(clients, field), q) / 1e3;
    };
    const double requests = static_cast<double>(c.requests);
    const double per_pass = static_cast<double>(measured) / requests;
    v["io.parse_ms"] = pass_total("io.parse");
    v["io.emit_ms"] = pass_total("io.emit");
    v["serve.canonicalize_ms"] = ms_quantile(&Client::canonicalize_us, 0.5);
    v["serve.cache_probe_ms"] = ms_quantile(&Client::cache_probe_us, 0.5);
    v["serve.permute_ms"] = ms_quantile(&Client::permute_us, 0.5);
    v["serve.queue_wait_ms"] = ms_quantile(&Client::queue_wait_us, 0.99);
    v["serve.solve_ms"] = ms_quantile(&Client::solve_us, 0.99);
    v["serve.hit_rate"] = static_cast<double>(c.hits) / requests;
    v["serve.negative_hit_rate"] = static_cast<double>(c.negative_hits) / requests;
    v["serve.solves"] = static_cast<double>(c.solves) * per_pass;
    v["serve.coalesced"] = static_cast<double>(c.coalesced) * per_pass;
    v["serve.evictions"] = static_cast<double>(evictions) * per_pass;
    v["serve.replayed"] = static_cast<double>(replayed);
    v["trace.pass_ms"] = (w.pass_s.empty() ? 0.0 : median(w.pass_s)) * 1e3;
    v["trace.overhead"] = (static_cast<double>(plain.requests) / plain.wall_s) /
                          (static_cast<double>(w.requests) / w.wall_s);
    out.notes.push_back(cat("traced window: ", w.requests, " requests, ",
                            w.pass_s.size(), " passes; untraced half: ",
                            plain.requests, " requests"));
    std::vector<const SpanLog*> logs;
    for (const Client& cl : clients) logs.push_back(&cl.log);
    write_trace(cat(opt.out_dir, "/trace-", opt.workload, "-seed", opt.seed,
                    ".json"),
                logs, 50000);
    for (Client& cl : clients) checked.push_back(std::move(cl.answers));
  }
  std::remove(warm_store.c_str());
  std::remove(store.c_str());

  // Checks, outside every timed region: each distinct design a pool spec
  // received, in the labeling of the first request that received it,
  // against its reference verdict and the flood simulation. Validity does
  // not depend on labeling, so this covers every relabeled copy.
  std::unordered_map<std::uint64_t, Answers::Received> distinct;
  for (Answers& a : checked) {
    for (const std::string& e : a.errors) out.fail(e);
    for (const auto& [key, index] : a.seen) {
      Answers::Received& r = a.received[index];
      const auto [it, fresh] = distinct.try_emplace(key, std::move(r));
      if (!fresh) it->second.count += r.count;
    }
  }
  DesignChecker checker;
  for (const auto& [key, r] : distinct) {
    const auto l = static_cast<std::size_t>(r.line);
    const Verdict& want =
        expected[static_cast<std::size_t>(stream.pool_index[l])];
    const auto doc = json::parse(r.text);
    const std::string status = doc.ok() ? doc->get_string("status", "") : "";
    std::string e;
    if (status == "infeasible") {
      e = compare_verdict(want, Verdict{true, 0.0});
    } else if (status == "ok" && doc->find("result") != nullptr) {
      const auto spec =
          mlsi::io::spec_from_json(*json::parse(stream.lines[l])->find("case"));
      e = checker.check(*spec, *doc->find("result"), want);
    } else {
      e = cat("unexpected response ", r.text.substr(0, 200));
    }
    if (!e.empty()) out.fail(cat("line ", r.line, ": ", e), r.count);
  }
  out.notes.push_back(cat("checked ", distinct.size(), " distinct designs"));

  std::string fill_error;
  if (!fill(opt.trace ? per_layer_catalogue() : end_to_end_catalogue(), v,
            !opt.trace, &out.metrics, &fill_error)) {
    out.fail(fill_error);
  }
  return out;
}

}  // namespace perfbench
