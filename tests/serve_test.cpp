// The serving stack: sharded LRU semantics, JSONL persistence, request
// coalescing, admission control, and the differential guarantee that a
// cached answer is byte-identical to a fresh solve — including across spec
// relabelings. The concurrency tests here are part of the TSan leg in
// scripts/check.sh.

#include <gtest/gtest.h>

#include <algorithm>
#include <atomic>
#include <chrono>
#include <cstdio>
#include <fstream>
#include <map>
#include <sstream>
#include <string>
#include <thread>
#include <vector>

#include <unistd.h>

#include "cases/artificial.hpp"
#include "cases/cases.hpp"
#include "obs/flight_rec.hpp"
#include "io/case_io.hpp"
#include "serve/cache.hpp"
#include "serve/canonical.hpp"
#include "serve/client.hpp"
#include "serve/server.hpp"
#include "sim/simulator.hpp"
#include "support/json.hpp"
#include "support/rng.hpp"
#include "synth/synthesizer.hpp"

namespace mlsi::serve {
namespace {

CacheKey key_of(const std::string& text) {
  return CacheKey{fnv1a64(text), text};
}

CachedResult value_of(double objective) {
  CachedResult value;
  value.objective = objective;
  value.num_sets = 1;
  value.binding = {0, 1};
  value.flows = {{0, 0}};
  value.stats.engine = "test";
  value.stats.proven_optimal = true;
  return value;
}

TEST(ResultCacheTest, LruEvictsLeastRecentlyUsed) {
  ResultCache cache(2, 1);
  cache.insert(key_of("a"), value_of(1.0));
  cache.insert(key_of("b"), value_of(2.0));
  ASSERT_NE(cache.lookup(key_of("a")), nullptr);  // promotes "a"
  cache.insert(key_of("c"), value_of(3.0));       // evicts "b"

  EXPECT_EQ(cache.lookup(key_of("b")), nullptr);
  const auto a = cache.lookup(key_of("a"));
  const auto c = cache.lookup(key_of("c"));
  ASSERT_NE(a, nullptr);
  ASSERT_NE(c, nullptr);
  EXPECT_DOUBLE_EQ(a->objective, 1.0);
  EXPECT_DOUBLE_EQ(c->objective, 3.0);

  const ResultCache::Stats stats = cache.stats();
  EXPECT_EQ(stats.entries, 2u);
  EXPECT_EQ(stats.evictions, 1);
}

TEST(ResultCacheTest, CostAwareEvictionKeepsExpensiveEntries) {
  // Past capacity the evicted entry is the cheapest-to-recompute of the
  // LRU tail, not blindly the least recently used: an expensive proof
  // survives a burst of cheap ones.
  ResultCache cache(2, 1);
  CachedResult expensive = value_of(1.0);
  expensive.stats.runtime_s = 120.0;
  CachedResult cheap = value_of(2.0);
  cheap.stats.runtime_s = 0.001;
  cache.insert(key_of("expensive"), std::move(expensive));
  cache.insert(key_of("cheap"), std::move(cheap));
  cache.insert(key_of("next"), value_of(3.0));

  EXPECT_EQ(cache.lookup(key_of("cheap")), nullptr);
  EXPECT_NE(cache.lookup(key_of("expensive")), nullptr);
  EXPECT_NE(cache.lookup(key_of("next")), nullptr);
  EXPECT_EQ(cache.stats().evictions, 1);
}

TEST(ResultCacheTest, ReinsertRefreshesInsteadOfDuplicating) {
  ResultCache cache(2, 1);
  cache.insert(key_of("a"), value_of(1.0));
  cache.insert(key_of("a"), value_of(9.0));
  EXPECT_EQ(cache.stats().entries, 1u);
  const auto a = cache.lookup(key_of("a"));
  ASSERT_NE(a, nullptr);
  EXPECT_DOUBLE_EQ(a->objective, 9.0);
}

TEST(ResultCacheTest, CapacityZeroDisablesTheCache) {
  ResultCache cache(0, 8);
  cache.insert(key_of("a"), value_of(1.0));
  EXPECT_EQ(cache.lookup(key_of("a")), nullptr);
  EXPECT_EQ(cache.stats().entries, 0u);
}

TEST(ResultCacheTest, HashCollisionIsAMissNotAWrongAnswer) {
  ResultCache cache(8, 1);
  const CacheKey real{42, "the real key"};
  const CacheKey impostor{42, "same hash, different problem"};
  cache.insert(real, value_of(1.0));
  EXPECT_EQ(cache.lookup(impostor), nullptr);
  ASSERT_NE(cache.lookup(real), nullptr);
}

TEST(ResultCacheTest, EvictionDoesNotInvalidateHandedOutEntries) {
  ResultCache cache(1, 1);
  cache.insert(key_of("a"), value_of(1.0));
  const auto held = cache.lookup(key_of("a"));
  ASSERT_NE(held, nullptr);
  cache.insert(key_of("b"), value_of(2.0));  // evicts "a"
  EXPECT_EQ(cache.lookup(key_of("a")), nullptr);
  EXPECT_DOUBLE_EQ(held->objective, 1.0);  // still readable
}

// TSan target: concurrent lookups and inserts across shards.
TEST(ResultCacheTest, ConcurrentMixedAccessIsSafe) {
  ResultCache cache(64, 8);
  std::atomic<long> found{0};
  std::vector<std::thread> threads;
  for (int t = 0; t < 8; ++t) {
    threads.emplace_back([&cache, &found, t] {
      Rng rng(static_cast<std::uint64_t>(t));
      for (int i = 0; i < 200; ++i) {
        const std::string text =
            "key" + std::to_string(rng.next_below(96));
        if (rng.next_bool(1.0 / 3.0)) {
          cache.insert(key_of(text), value_of(static_cast<double>(i)));
        } else if (cache.lookup(key_of(text)) != nullptr) {
          found.fetch_add(1, std::memory_order_relaxed);
        }
      }
    });
  }
  for (std::thread& t : threads) t.join();
  EXPECT_LE(cache.stats().entries, 64u);
  EXPECT_GT(found.load(), 0);
}

class PersistentStoreTest : public ::testing::Test {
 protected:
  std::string path_ = ::testing::TempDir() + "serve_store_test.jsonl";

  void SetUp() override { std::remove(path_.c_str()); }
  void TearDown() override { std::remove(path_.c_str()); }
};

TEST_F(PersistentStoreTest, RoundTripsEntriesAcrossReopen) {
  {
    PersistentStore store;
    const auto replayed =
        store.open(path_, "build-A", [](CacheKey, CachedResult) {});
    ASSERT_TRUE(replayed.ok());
    EXPECT_EQ(*replayed, 0);
    ASSERT_TRUE(store.append(key_of("k1"), value_of(1.5)).ok());
    ASSERT_TRUE(store.append(key_of("k2"), value_of(2.5)).ok());
    store.close();
  }
  {
    PersistentStore store;
    std::vector<std::pair<std::string, double>> seen;
    const auto replayed =
        store.open(path_, "build-A", [&seen](CacheKey key, CachedResult value) {
          seen.emplace_back(key.text, value.objective);
        });
    ASSERT_TRUE(replayed.ok());
    EXPECT_EQ(*replayed, 2);
    ASSERT_EQ(seen.size(), 2u);
    EXPECT_EQ(seen[0].first, "k1");
    EXPECT_DOUBLE_EQ(seen[0].second, 1.5);
    EXPECT_EQ(seen[1].first, "k2");
    EXPECT_DOUBLE_EQ(seen[1].second, 2.5);
    store.close();
  }
}

TEST_F(PersistentStoreTest, CodeVersionMismatchDiscardsTheStore) {
  {
    PersistentStore store;
    ASSERT_TRUE(store.open(path_, "build-A", [](CacheKey, CachedResult) {}).ok());
    ASSERT_TRUE(store.append(key_of("k1"), value_of(1.0)).ok());
    store.close();
  }
  {
    PersistentStore store;
    long sunk = 0;
    const auto replayed = store.open(
        path_, "build-B", [&sunk](CacheKey, CachedResult) { ++sunk; });
    ASSERT_TRUE(replayed.ok());
    EXPECT_EQ(*replayed, 0);  // stale build: nothing replayed...
    EXPECT_EQ(sunk, 0);
    ASSERT_TRUE(store.append(key_of("k9"), value_of(9.0)).ok());
    store.close();
  }
  {
    PersistentStore store;
    long sunk = 0;  // ...and the file was rewritten for the new build.
    const auto replayed = store.open(
        path_, "build-B", [&sunk](CacheKey, CachedResult) { ++sunk; });
    ASSERT_TRUE(replayed.ok());
    EXPECT_EQ(*replayed, 1);
    EXPECT_EQ(sunk, 1);
    store.close();
  }
}

TEST_F(PersistentStoreTest, TornTailIsDroppedOnReplay) {
  {
    PersistentStore store;
    ASSERT_TRUE(store.open(path_, "build-A", [](CacheKey, CachedResult) {}).ok());
    ASSERT_TRUE(store.append(key_of("k1"), value_of(1.0)).ok());
    store.close();
  }
  {
    // Simulate a crash mid-append: an unterminated, unparsable final line.
    std::FILE* f = std::fopen(path_.c_str(), "ab");
    ASSERT_NE(f, nullptr);
    std::fputs("{\"key\":\"k2\",\"result\":{\"obj", f);
    std::fclose(f);
  }
  PersistentStore store;
  long sunk = 0;
  const auto replayed =
      store.open(path_, "build-A", [&sunk](CacheKey, CachedResult) { ++sunk; });
  ASSERT_TRUE(replayed.ok());
  EXPECT_EQ(*replayed, 1);
  EXPECT_EQ(sunk, 1);
  store.close();
}

TEST_F(PersistentStoreTest, HostileEntriesAreSkippedOnReplay) {
  // A malformed entry is skipped like a torn one; it must not throw out of
  // the Server constructor. Only the good entry replays.
  {
    PersistentStore store;
    ASSERT_TRUE(store.open(path_, "build-A", [](CacheKey, CachedResult) {}).ok());
    ASSERT_TRUE(store.append(key_of("good"), value_of(1.0)).ok());
    store.close();
  }
  const std::pair<const char*, json::Value> bad[] = {
      {"flows", json::Value{json::Array{json::Value{json::Array{
                    json::Value{"x"}, json::Value{1}}}}}},
      {"binding", json::Value{json::Array{json::Value{0.5}}}},
      {"valve_states", json::Value{7}},
      {"stats", json::Value{json::Object{{"nodes", json::Value{1e300}}}}},
  };
  {
    std::FILE* f = std::fopen(path_.c_str(), "ab");
    ASSERT_NE(f, nullptr);
    for (const auto& [member, value] : bad) {
      json::Value result = cached_to_json(value_of(2.0));
      result.as_object()[member] = value;
      json::Object line;
      line["key"] = json::Value{std::string{"bad-"} + member};
      line["result"] = std::move(result);
      std::fputs((json::Value{std::move(line)}.dump() + "\n").c_str(), f);
    }
    std::fclose(f);
  }
  PersistentStore store;
  std::vector<std::string> keys;
  Result<long> replayed{Status::Internal("not opened")};
  EXPECT_NO_THROW(replayed = store.open(
                      path_, "build-A", [&keys](CacheKey key, CachedResult) {
                        keys.push_back(key.text);
                      }));
  ASSERT_TRUE(replayed.ok()) << replayed.status().to_string();
  EXPECT_EQ(*replayed, 1);
  EXPECT_EQ(keys, std::vector<std::string>{"good"});
  store.close();
}

TEST_F(PersistentStoreTest, NonIntegralHeaderDiscardsTheStore) {
  {
    std::FILE* f = std::fopen(path_.c_str(), "wb");
    ASSERT_NE(f, nullptr);
    std::fputs("{\"format\":1.5,\"canonical_version\":1e300,"
               "\"code_version\":\"build-A\"}\n",
               f);
    std::fclose(f);
  }
  PersistentStore store;
  Result<long> replayed{Status::Internal("not opened")};
  EXPECT_NO_THROW(replayed = store.open(path_, "build-A",
                                        [](CacheKey, CachedResult) {}));
  ASSERT_TRUE(replayed.ok()) << replayed.status().to_string();
  EXPECT_EQ(*replayed, 0);
  store.close();
}

/// A small always-feasible spec (the demo case's shape).
synth::ProblemSpec demo_spec() {
  synth::ProblemSpec spec;
  spec.name = "serve-demo";
  spec.pins_per_side = 2;
  spec.modules = {"in0", "in1", "out0", "out1"};
  spec.flows = {{0, 2}, {1, 3}};
  spec.conflicts = {{0, 1}};
  spec.policy = synth::BindingPolicy::kUnfixed;
  return spec;
}

/// The demo spec under a fixed module/flow relabeling (reversed orders).
synth::ProblemSpec demo_spec_relabeled() {
  synth::ProblemSpec spec;
  spec.name = "serve-demo-relabeled";
  spec.pins_per_side = 2;
  // Old module m is now index 3 - m; old flow f is now index 1 - f.
  spec.modules = {"d", "c", "b", "a"};
  spec.flows = {{2, 0}, {3, 1}};
  spec.conflicts = {{1, 0}};
  spec.policy = synth::BindingPolicy::kUnfixed;
  return spec;
}

/// Provably infeasible: the fixed binding pins the two conflicting flows
/// onto crossing diagonals of the planar crossbar, so their paths must
/// share a vertex — exactly what the contamination rule forbids. (With the
/// unfixed policy there is no small infeasible instance: the binding
/// freedom always finds disjoint routes.)
synth::ProblemSpec infeasible_spec() {
  synth::ProblemSpec spec;
  spec.name = "serve-no-solution";
  spec.pins_per_side = 2;
  spec.modules = {"inA", "inB", "outA", "outB"};
  spec.flows = {{0, 2}, {1, 3}};
  spec.conflicts = {{0, 1}};
  spec.policy = synth::BindingPolicy::kFixed;
  spec.fixed_binding = {{0, 0}, {2, 4}, {1, 2}, {3, 6}};
  return spec;
}

ServeOptions quiet_options() {
  ServeOptions options;
  options.jobs = 2;
  options.queue_depth = 16;
  options.default_time_limit_s = 30.0;
  return options;
}

TEST(ServerTest, SecondIdenticalRequestIsACacheHit) {
  Server server(quiet_options());
  ServeRequest req;
  req.id = "r1";
  req.spec = demo_spec();

  const ServeResponse fresh = server.handle(req);
  ASSERT_EQ(fresh.outcome, ServeOutcome::kOk) << fresh.error;
  EXPECT_FALSE(fresh.cached);

  req.id = "r2";
  const ServeResponse hit = server.handle(req);
  ASSERT_EQ(hit.outcome, ServeOutcome::kOk) << hit.error;
  EXPECT_TRUE(hit.cached);

  const Server::Counters c = server.counters();
  EXPECT_EQ(c.requests, 2);
  EXPECT_EQ(c.hits, 1);
  EXPECT_EQ(c.misses, 1);
  EXPECT_EQ(c.solves, 1);
}

// The differential guarantee: a cached answer is byte-identical to the
// fresh one (the cache stores the original solve's stats, so even
// runtime_s matches), and both match a direct Synthesizer run.
TEST(ServerTest, CachedResponseIsByteIdenticalToFresh) {
  Server server(quiet_options());
  ServeRequest req;
  req.id = "r1";
  req.spec = demo_spec();

  const ServeResponse fresh = server.handle(req);
  const ServeResponse hit = server.handle(req);
  ASSERT_EQ(fresh.outcome, ServeOutcome::kOk) << fresh.error;
  ASSERT_EQ(hit.outcome, ServeOutcome::kOk) << hit.error;
  ASSERT_TRUE(hit.cached);
  EXPECT_EQ(fresh.result.dump(), hit.result.dump());

  // Against an independent solve only runtime_s (that solve's own wall
  // time) may differ; everything else must match byte for byte.
  synth::Synthesizer direct(demo_spec(), server.options().synth);
  const auto solved = direct.synthesize();
  ASSERT_TRUE(solved.ok());
  json::Value direct_doc =
      io::result_to_json(direct.topology(), direct.spec(), *solved);
  json::Value served_doc = fresh.result;
  direct_doc.as_object().erase("runtime_s");
  served_doc.as_object().erase("runtime_s");
  EXPECT_EQ(served_doc.dump(), direct_doc.dump());
}

TEST(ServerTest, RelabeledSpecHitsTheSameEntry) {
  Server server(quiet_options());
  ServeRequest req;
  req.id = "r1";
  req.spec = demo_spec();
  ASSERT_EQ(server.handle(req).outcome, ServeOutcome::kOk);

  req.id = "r2";
  req.spec = demo_spec_relabeled();
  const ServeResponse hit = server.handle(req);
  ASSERT_EQ(hit.outcome, ServeOutcome::kOk) << hit.error;
  EXPECT_TRUE(hit.cached);
  EXPECT_EQ(server.counters().solves, 1);
}

TEST(ServerTest, InfeasibleVerdictIsCachedAndReplayed) {
  Server server(quiet_options());
  ServeRequest req;
  req.id = "r1";
  req.spec = infeasible_spec();

  const ServeResponse fresh = server.handle(req);
  ASSERT_EQ(fresh.outcome, ServeOutcome::kInfeasible) << fresh.error;
  EXPECT_FALSE(fresh.cached);

  // The duplicate replays the cached proof: no second solve.
  req.id = "r2";
  req.spec.name = "serve-no-solution-again";
  const ServeResponse replay = server.handle(req);
  ASSERT_EQ(replay.outcome, ServeOutcome::kInfeasible);
  EXPECT_TRUE(replay.cached);
  // The message names the REQUESTING spec, not the one that populated the
  // cache (canonical keys strip names).
  EXPECT_NE(replay.error.find("serve-no-solution-again"), std::string::npos)
      << replay.error;

  const Server::Counters c = server.counters();
  EXPECT_EQ(c.solves, 1);
  EXPECT_EQ(c.hits, 1);
  EXPECT_EQ(c.negative_hits, 1);
}

TEST(ServerTest, NegativeEntriesPersistAcrossRestart) {
  const std::string path =
      ::testing::TempDir() + "serve_negative_store.jsonl";
  std::remove(path.c_str());
  ServeOptions options = quiet_options();
  options.persist_path = path;
  {
    Server server(options);
    ServeRequest req;
    req.id = "r1";
    req.spec = infeasible_spec();
    ASSERT_EQ(server.handle(req).outcome, ServeOutcome::kInfeasible);
  }
  {
    Server server(options);
    ServeRequest req;
    req.id = "r2";
    req.spec = infeasible_spec();
    const ServeResponse replay = server.handle(req);
    EXPECT_EQ(replay.outcome, ServeOutcome::kInfeasible);
    EXPECT_TRUE(replay.cached);
    EXPECT_EQ(server.counters().solves, 0);
    EXPECT_EQ(server.counters().negative_hits, 1);
  }
  std::remove(path.c_str());
}

// The rehydration path in full: solve A, cache it canonically, look it up
// through relabeled B's canonicalization, carry the value into B's
// labeling, and let the flood simulator verify the answer really is a
// contamination-free switch *for B*.
TEST(ServerTest, RehydratedRelabeledResultPassesSimulation) {
  const synth::ProblemSpec spec_a = demo_spec();
  const synth::ProblemSpec spec_b = demo_spec_relabeled();
  const synth::SynthesisOptions options;

  const CanonicalRequest canon_a = canonicalize(spec_a, options, "v");
  const CanonicalRequest canon_b = canonicalize(spec_b, options, "v");
  ASSERT_EQ(canon_a.key.text, canon_b.key.text);

  synth::Synthesizer synth_a(spec_a, options);
  const auto solved = synth_a.synthesize();
  ASSERT_TRUE(solved.ok());

  ResultCache cache(16, 1);
  cache.insert(canon_a.key, to_cached(*solved, canon_a));
  const auto entry = cache.lookup(canon_b.key);
  ASSERT_NE(entry, nullptr);

  synth::Synthesizer synth_b(spec_b, options);
  const synth::SynthesisResult rehydrated =
      to_result(*entry, canon_b, synth_b.paths());
  EXPECT_DOUBLE_EQ(rehydrated.objective, solved->objective);

  const sim::ValidationReport report = sim::validate(
      sim::make_program(synth_b.topology(), spec_b, rehydrated));
  EXPECT_TRUE(report.ok()) << report.summary();
}

// TSan target: N concurrent identical misses must coalesce onto one solve.
TEST(ServerTest, ConcurrentIdenticalRequestsCoalesce) {
  Server server(quiet_options());
  constexpr int kClients = 8;
  std::vector<ServeResponse> responses(kClients);
  std::vector<std::thread> threads;
  for (int c = 0; c < kClients; ++c) {
    threads.emplace_back([&server, &responses, c] {
      ServeRequest req;
      req.id = "r" + std::to_string(c);
      req.spec = demo_spec();
      responses[static_cast<std::size_t>(c)] = server.handle(req);
    });
  }
  for (std::thread& t : threads) t.join();

  const std::string first = responses[0].result.dump();
  for (const ServeResponse& resp : responses) {
    ASSERT_EQ(resp.outcome, ServeOutcome::kOk) << resp.error;
    EXPECT_EQ(resp.result.dump(), first);  // everyone got the same answer
  }
  const Server::Counters c = server.counters();
  EXPECT_EQ(c.requests, kClients);
  EXPECT_EQ(c.solves, 1);
  EXPECT_EQ(c.misses, 1);
  EXPECT_EQ(c.hits + c.coalesced, kClients - 1);
}

// Request-scoped tracing across coalescing: every response carries a
// per-stage timing section, and a coalesced follower links to — and
// reports the solve time of — its leader's flight.
TEST(ServerTest, CoalescedFollowerReportsLeaderTiming) {
  Server server(quiet_options());
  constexpr int kClients = 8;
  std::vector<ServeResponse> responses(kClients);
  std::vector<std::thread> threads;
  for (int c = 0; c < kClients; ++c) {
    threads.emplace_back([&server, &responses, c] {
      ServeRequest req;
      req.id = "r" + std::to_string(c);
      req.spec = demo_spec();
      responses[static_cast<std::size_t>(c)] = server.handle(req);
    });
  }
  for (std::thread& t : threads) t.join();

  const ServeResponse* leader = nullptr;
  std::vector<long> seqs;
  for (const ServeResponse& resp : responses) {
    ASSERT_EQ(resp.outcome, ServeOutcome::kOk) << resp.error;
    EXPECT_GT(resp.timing.seq, 0);
    EXPECT_GE(resp.timing.total_us, 0.0);
    seqs.push_back(resp.timing.seq);
    if (!resp.cached && !resp.coalesced) {
      ASSERT_EQ(leader, nullptr) << "one solve, one leader";
      leader = &resp;
    }
  }
  std::sort(seqs.begin(), seqs.end());
  EXPECT_EQ(std::adjacent_find(seqs.begin(), seqs.end()), seqs.end())
      << "request sequence numbers must be unique";

  ASSERT_NE(leader, nullptr);
  EXPECT_EQ(leader->timing.leader_seq, leader->timing.seq);
  EXPECT_GT(leader->timing.solve_us, 0.0);
  for (const ServeResponse& resp : responses) {
    if (!resp.coalesced) continue;
    // Followers piggyback on the leader's flight: same solve, same
    // queue-wait facts, linked by the leader's sequence number.
    EXPECT_EQ(resp.timing.leader_seq, leader->timing.seq);
    EXPECT_DOUBLE_EQ(resp.timing.solve_us, leader->timing.solve_us);
  }
}

TEST(ServerTest, StatsControlCommandAnswersWithLiveCounters) {
  Server server(quiet_options());
  ServeRequest req;
  req.id = "r1";
  req.spec = demo_spec();
  ASSERT_EQ(server.handle(req).outcome, ServeOutcome::kOk);
  req.id = "r2";
  ASSERT_EQ(server.handle(req).outcome, ServeOutcome::kOk);

  const ServeResponse resp =
      server.handle_line("{\"id\":\"s1\",\"cmd\":\"stats\"}");
  ASSERT_EQ(resp.outcome, ServeOutcome::kOk) << resp.error;
  const json::Value doc = response_to_json(resp);
  EXPECT_EQ(doc.get_string("id", ""), "s1");
  const json::Value* stats = doc.find("stats");
  ASSERT_NE(stats, nullptr);
  EXPECT_EQ(stats->get_number("requests", 0), 2.0);
  EXPECT_EQ(stats->get_number("hits", 0), 1.0);
  EXPECT_EQ(stats->get_number("solves", 0), 1.0);
  EXPECT_DOUBLE_EQ(stats->get_number("hit_rate", 0), 0.5);
  EXPECT_GE(stats->get_number("uptime_s", -1), 0.0);
  EXPECT_EQ(stats->get_number("queue_depth", -1), 0.0);
  EXPECT_EQ(stats->get_number("in_flight_solves", -1), 0.0);
  // A stats probe is a control command, not a request: the serving
  // counters must not move.
  EXPECT_EQ(server.counters().requests, 2);

  const ServeResponse bad =
      server.handle_line("{\"id\":\"s2\",\"cmd\":\"selfdestruct\"}");
  EXPECT_EQ(bad.outcome, ServeOutcome::kError);
  EXPECT_FALSE(bad.error.empty());
}

TEST(ServerTest, FullQueueRejectsInsteadOfBuffering) {
  ServeOptions options;
  options.jobs = 1;
  options.queue_depth = 1;
  options.cache_capacity = 0;  // no coalescing: every request wants a solve
  Server server(options);

  constexpr int kClients = 8;
  std::atomic<int> rejected{0};
  std::vector<std::thread> threads;
  for (int c = 0; c < kClients; ++c) {
    threads.emplace_back([&server, &rejected, c] {
      cases::ArtificialParams p;
      p.pins_per_side = 3;
      p.num_inlets = 3;
      p.num_outlets = 5;
      p.seed = 500 + static_cast<std::uint64_t>(c);  // distinct specs
      ServeRequest req;
      req.id = "r" + std::to_string(c);
      req.spec = cases::make_artificial(p);
      const ServeResponse resp = server.handle(req);
      if (resp.outcome == ServeOutcome::kRejected) {
        rejected.fetch_add(1, std::memory_order_relaxed);
      }
    });
  }
  for (std::thread& t : threads) t.join();

  const Server::Counters c = server.counters();
  EXPECT_GE(c.rejected_queue, 1);
  EXPECT_EQ(c.rejected_queue, rejected.load());
  EXPECT_EQ(c.requests, kClients);
}

TEST(ServerTest, ExpiredDeadlineIsRejectedAtDequeue) {
  Server server(quiet_options());
  ServeRequest req;
  req.id = "r1";
  req.spec = demo_spec();
  req.time_limit_s = 1e-9;  // expired before any worker can pick it up

  const ServeResponse resp = server.handle(req);
  EXPECT_EQ(resp.outcome, ServeOutcome::kRejected);
  EXPECT_EQ(server.counters().rejected_deadline, 1);
  EXPECT_EQ(server.counters().solves, 0);
}

// A deadline-blown request is exactly the "wedged service" evidence the
// flight recorder exists for: when the recorder is armed with a dump
// path, the rejection must leave a JSONL trail behind. The path carries the
// pid so concurrent runs of this binary do not remove each other's dump.
TEST(ServerTest, DeadlineBlownRequestDumpsFlightRecorder) {
  const std::string path = ::testing::TempDir() + "serve_deadline_flight." +
                           std::to_string(::getpid()) + ".jsonl";
  std::remove(path.c_str());
  obs::FlightRecorder& rec = obs::FlightRecorder::instance();
  rec.enable();
  ASSERT_TRUE(rec.set_dump_path(path));

  Server server(quiet_options());
  ServeRequest req;
  req.id = "r1";
  req.spec = demo_spec();
  req.time_limit_s = 1e-9;
  EXPECT_EQ(server.handle(req).outcome, ServeOutcome::kRejected);
  rec.disable();

  std::ifstream in(path);
  ASSERT_TRUE(in.good()) << "deadline-blown request left no dump at " << path;
  bool saw_handle = false;
  std::size_t records = 0;
  for (std::string line; std::getline(in, line);) {
    if (line.empty()) continue;
    ++records;
    const auto doc = json::parse(line);
    ASSERT_TRUE(doc.ok()) << line;
    if (doc->find("name")->as_string() == "serve.handle") saw_handle = true;
  }
  EXPECT_GT(records, 0u);
  EXPECT_TRUE(saw_handle) << "dump should show the request being handled";
  rec.reset();
  std::remove(path.c_str());
}

/// Polls until \p holds is true. The coalescing tests below order their
/// requests by the server's own counters, not by sleeps.
template <typename Pred>
void wait_until(Pred holds) {
  while (!holds()) std::this_thread::sleep_for(std::chrono::milliseconds(1));
}

/// One solver worker, and a solve that keeps it busy: ChIP sw.2 clockwise,
/// searched serially, takes hundreds of milliseconds.
ServeOptions one_worker_options() {
  ServeOptions options = quiet_options();
  options.jobs = 1;
  options.synth.engine_params.jobs = 1;
  return options;
}

ServeRequest request(std::string id, synth::ProblemSpec spec,
                     double time_limit_s) {
  ServeRequest req;
  req.id = std::move(id);
  req.spec = std::move(spec);
  req.time_limit_s = time_limit_s;
  return req;
}

ServeRequest long_request(std::string id, double time_limit_s) {
  return request(std::move(id),
                 cases::chip_sw2(synth::BindingPolicy::kClockwise),
                 time_limit_s);
}

// A shared solve that ends on its leader's budget does not end the
// followers that still have budget: the leader here expires while queued
// behind a long solve, and its 100-s follower is solved afresh.
TEST(ServerTest, FollowerOutlivesALeaderThatExpiredWhileQueued) {
  Server server(one_worker_options());
  ServeResponse busy;
  std::thread busy_client(
      [&] { busy = server.handle(long_request("busy", 100)); });
  wait_until([&] { return server.counters().solves == 1; });

  ServeResponse leader;
  std::thread leader_client(
      [&] { leader = server.handle(request("short", demo_spec(), 0.02)); });
  wait_until([&] { return server.counters().misses == 2; });
  const ServeResponse follower =
      server.handle(request("long", demo_spec(), 100));
  leader_client.join();
  busy_client.join();

  EXPECT_EQ(busy.outcome, ServeOutcome::kOk) << busy.error;
  EXPECT_EQ(leader.outcome, ServeOutcome::kRejected);
  EXPECT_EQ(leader.error, "deadline expired while queued");
  EXPECT_EQ(follower.outcome, ServeOutcome::kOk) << follower.error;
  EXPECT_FALSE(follower.coalesced) << "answered by its own solve";
  const Server::Counters c = server.counters();
  EXPECT_EQ(c.requests, 3) << "a request handled again counts once";
  EXPECT_EQ(c.coalesced, 1);
  EXPECT_EQ(c.rejected_deadline, 1);
  EXPECT_EQ(c.solves, 2);
}

// A follower waits for a shared solve at most its own budget: a short
// request does not live on a long leader's.
TEST(ServerTest, FollowerWaitsAtMostItsOwnBudget) {
  Server server(one_worker_options());
  ServeResponse leader;
  std::thread leader_client(
      [&] { leader = server.handle(long_request("long", 100)); });
  wait_until([&] { return server.counters().solves == 1; });
  const ServeResponse follower = server.handle(long_request("short", 0.05));
  leader_client.join();

  EXPECT_EQ(follower.outcome, ServeOutcome::kTimeout) << follower.error;
  EXPECT_TRUE(follower.coalesced);
  EXPECT_EQ(leader.outcome, ServeOutcome::kOk) << leader.error;
  const Server::Counters c = server.counters();
  EXPECT_EQ(c.timeouts, 1);
  EXPECT_EQ(c.solves, 1);
}

/// Virtual memory size of this process in kB, from /proc/self/status.
long vm_size_kb() {
  std::ifstream in("/proc/self/status");
  for (std::string line; std::getline(in, line);) {
    if (line.rfind("VmSize:", 0) == 0) return std::stol(line.substr(7));
  }
  return -1;
}

// A finished connection gives its thread back: a daemon polled by mlsi_top
// takes one connection per poll, and a thread left unjoined until
// shutdown keeps its 8 MB stack mapped (about 2.4 GB for these 300).
TEST(ServerTest, SocketConnectionsReleaseTheirThreads) {
  const std::string path = ::testing::TempDir() + "serve_conn." +
                           std::to_string(::getpid()) + ".sock";
  Server server(quiet_options());
  Status served = Status::Ok();
  std::thread listener([&] { served = server.run_socket(path); });
  const auto stats_connection = [&path] {
    Result<SocketClient> client = SocketClient::connect(path);
    while (!client.ok()) {  // until the listener is up
      std::this_thread::sleep_for(std::chrono::milliseconds(1));
      client = SocketClient::connect(path);
    }
    ASSERT_TRUE(client->send_line(R"({"id":"s","cmd":"stats"})").ok());
    const Result<std::string> reply = client->recv_line();
    ASSERT_TRUE(reply.ok()) << reply.status().to_string();
    EXPECT_NE(reply->find("\"stats\""), std::string::npos) << *reply;
  };

  stats_connection();
  const long before_kb = vm_size_kb();
  for (int i = 0; i < 300; ++i) stats_connection();
  const long grown_mb = (vm_size_kb() - before_kb) / 1024;
  server.shutdown();
  listener.join();

  EXPECT_TRUE(served.ok()) << served.to_string();
  EXPECT_LT(grown_mb, 256);
  std::remove(path.c_str());
}

TEST(ServerTest, InvalidSpecIsAnError) {
  Server server(quiet_options());
  ServeRequest req;
  req.id = "r1";  // empty spec: no modules, no flows
  const ServeResponse resp = server.handle(req);
  EXPECT_EQ(resp.outcome, ServeOutcome::kError);
  EXPECT_FALSE(resp.error.empty());
}

TEST(ServerTest, PersistedCacheSurvivesRestart) {
  const std::string path = ::testing::TempDir() + "serve_persist_test.jsonl";
  std::remove(path.c_str());
  ServeOptions options = quiet_options();
  options.persist_path = path;
  options.code_version = "test-build";

  std::string fresh_doc;
  {
    Server server(options);
    ServeRequest req;
    req.id = "r1";
    req.spec = demo_spec();
    const ServeResponse resp = server.handle(req);
    ASSERT_EQ(resp.outcome, ServeOutcome::kOk) << resp.error;
    fresh_doc = resp.result.dump();
    EXPECT_EQ(server.counters().solves, 1);
  }  // destructor drains and closes the store

  Server server(options);
  EXPECT_GE(server.counters().persist_replayed, 1);
  ServeRequest req;
  req.id = "r2";
  req.spec = demo_spec();
  const ServeResponse resp = server.handle(req);
  ASSERT_EQ(resp.outcome, ServeOutcome::kOk) << resp.error;
  EXPECT_TRUE(resp.cached);
  EXPECT_EQ(server.counters().solves, 0);  // answered without solving
  EXPECT_EQ(resp.result.dump(), fresh_doc);
  std::remove(path.c_str());
}

TEST(ServerTest, HostileStoreEntryIsSolvedAfreshAndReplaced) {
  // A store entry whose key is intact but whose payload does not fit the
  // request (a path id past the path set, a binding shorter than the
  // module list, a pin or valve id past the switch, an unknown valve
  // state) must not be rehydrated: the hit counts as a miss, the request
  // is solved, and the fresh answer replaces the entry. The first two
  // entries used to abort mlsi_serve, and fuzz_boundaries_test's store
  // fuzz hit the pin one too.
  const std::string path = ::testing::TempDir() + "serve_hostile_store." +
                           std::to_string(::getpid()) + ".jsonl";
  ServeOptions options = quiet_options();
  options.persist_path = path;
  options.code_version = "test-build";
  // Keep a valve on every used segment, so the design has valve states.
  options.synth.reduction = synth::ValveReductionRule::kNone;
  ServeRequest req;
  req.id = "r1";
  req.spec = demo_spec();
  // The design, without the solve's own runtime.
  const auto design = [](const ServeResponse& resp) {
    json::Value doc = resp.result;
    doc.as_object().erase("runtime_s");
    return doc.dump();
  };

  std::remove(path.c_str());
  std::string fresh_design;
  std::vector<std::string> lines;
  {
    Server server(options);
    const ServeResponse resp = server.handle(req);
    ASSERT_EQ(resp.outcome, ServeOutcome::kOk) << resp.error;
    ASSERT_FALSE(resp.result.find("valves")->as_array().empty());
    fresh_design = design(resp);
  }
  {
    std::ifstream in(path);
    for (std::string line; std::getline(in, line);) lines.push_back(line);
  }
  ASSERT_EQ(lines.size(), 2u);  // header + the one entry

  const std::pair<const char*, void (*)(json::Object&)> corruptions[] = {
      {"path id out of range",
       [](json::Object& r) {
         r["flows"].as_array()[0].as_array()[1] = json::Value{99999};
       }},
      {"binding cut to one element",
       [](json::Object& r) { r["binding"].as_array().resize(1); }},
      {"pin vertex out of range",
       [](json::Object& r) { r["binding"].as_array()[0] = json::Value{99999}; }},
      {"valve segment out of range",
       [](json::Object& r) {
         r["essential_valves"].as_array()[0] = json::Value{99999};
       }},
      {"unknown valve state",
       [](json::Object& r) {
         json::Value& row = r["valve_states"].as_array()[0];
         std::string states = row.as_string();
         states[0] = 'Z';
         row = json::Value{states};
       }},
  };
  for (const auto& [what, corrupt] : corruptions) {
    SCOPED_TRACE(what);
    auto entry = json::parse(lines[1]);
    ASSERT_TRUE(entry.ok());
    corrupt(entry->as_object()["result"].as_object());
    {
      std::ofstream out(path, std::ios::trunc);
      out << lines[0] << '\n' << entry->dump() << '\n';
    }
    Server server(options);
    ASSERT_EQ(server.counters().persist_replayed, 1);
    ServeResponse resp;
    ASSERT_NO_THROW(resp = server.handle(req));
    ASSERT_EQ(resp.outcome, ServeOutcome::kOk) << resp.error;
    EXPECT_FALSE(resp.cached);
    EXPECT_EQ(server.counters().solves, 1);
    EXPECT_EQ(design(resp), fresh_design);
    // The fresh answer replaced the misfit entry in place.
    const ServeResponse again = server.handle(req);
    EXPECT_TRUE(again.cached);
    EXPECT_EQ(server.counters().solves, 1);
    EXPECT_EQ(again.result.dump(), resp.result.dump());
  }
  std::remove(path.c_str());
}

TEST(ServerTest, HugeTimeLimitMeansNoLimit) {
  // 1e10 s lies past steady_clock's range; it used to overflow into an
  // expiry in the past and reject the request as expired while queued.
  Server server(quiet_options());
  const std::string line = R"({"id":"big","time_limit_s":1e10,"case":)" +
                           io::spec_to_json(demo_spec()).dump() + "}";
  const ServeResponse resp = server.handle_line(line);
  EXPECT_EQ(resp.outcome, ServeOutcome::kOk) << resp.error;
  EXPECT_EQ(server.counters().rejected_deadline, 0);
}

TEST(ServerTest, StreamAnswersEveryLineIncludingMalformedOnes) {
  Server server(quiet_options());
  const json::Value case_doc = io::spec_to_json(demo_spec());
  std::ostringstream requests;
  requests << "{\"id\":\"a\",\"case\":" << case_doc.dump() << "}\n"
           << "{\"id\":\"b\",\"case\":" << case_doc.dump() << "}\n"
           << "this is not json\n";
  std::istringstream in(requests.str());
  std::ostringstream out;
  ASSERT_TRUE(server.run_stream(in, out).ok());

  std::istringstream lines(out.str());
  std::string line;
  int ok_lines = 0;
  int error_lines = 0;
  while (std::getline(lines, line)) {
    const auto doc = json::parse(line);
    ASSERT_TRUE(doc.ok()) << line;
    const std::string status = doc->get_string("status", "");
    if (status == "ok") {
      ++ok_lines;
    } else {
      ++error_lines;
      EXPECT_EQ(status, "error");
    }
  }
  EXPECT_EQ(ok_lines, 2);
  EXPECT_EQ(error_lines, 1);
}

TEST(ServerTest, HostileRequestLineGetsAnErrorAndTheNextIsAnswered) {
  // A line whose case has a mistyped number gets an error response, and
  // the daemon goes on to answer the valid line after it.
  Server server(quiet_options());
  std::ostringstream requests;
  requests << R"({"id":"q1","case":{"modules":["a","b"],)"
           << R"("flows":[{"from":"a","to":"b"}],"pins_per_side":2.5}})"
           << "\n"
           << "{\"id\":\"q2\",\"case\":"
           << io::spec_to_json(demo_spec()).dump() << "}\n";
  std::istringstream in(requests.str());
  std::ostringstream out;
  ASSERT_NO_THROW(ASSERT_TRUE(server.run_stream(in, out).ok()));

  std::map<std::string, std::string> status_of;
  std::istringstream lines(out.str());
  std::string line;
  while (std::getline(lines, line)) {
    const auto doc = json::parse(line);
    ASSERT_TRUE(doc.ok()) << line;
    status_of[doc->get_string("id", "")] = doc->get_string("status", "");
  }
  EXPECT_EQ(status_of["q1"], "error");
  EXPECT_EQ(status_of["q2"], "ok");
  EXPECT_EQ(status_of.size(), 2u);
}

TEST(ServeResponseTest, JsonShapeMatchesTheDocumentedProtocol) {
  ServeResponse resp;
  resp.id = "r7";
  resp.outcome = ServeOutcome::kOk;
  resp.cached = true;
  resp.wall_us = 12.5;
  resp.result = json::Value{json::Object{}};
  const json::Value doc = response_to_json(resp);
  EXPECT_EQ(doc.get_string("id", ""), "r7");
  EXPECT_EQ(doc.get_string("status", ""), "ok");
  EXPECT_TRUE(doc.get_bool("cached", false));
  EXPECT_FALSE(doc.get_bool("coalesced", true));
  EXPECT_NE(doc.find("result"), nullptr);
}

}  // namespace
}  // namespace mlsi::serve
