#pragma once

/// \file cache.hpp
/// \brief Canonicalizing LRU result cache with optional JSONL persistence.
///
/// Values are SynthesisResults stored in *canonical* coordinates: binding
/// indexed by canonical module, per-flow (set, path id) indexed by
/// canonical flow. Everything else in a result (segments, valves, states,
/// pressure groups, lengths, objective) names topology entities and is
/// invariant under spec relabeling. to_cached()/to_result() carry a
/// solution between a request's labeling and the canonical one through the
/// CanonicalRequest permutations, so one cached solve answers every
/// relabeled variant of the same problem.
///
/// ResultCache is sharded: key.hash picks a shard, each shard is an
/// independent mutex + LRU list + hash map, so concurrent hits on
/// different shards never contend. Entries are handed out as
/// shared_ptr<const CachedResult> — eviction never invalidates a reader.
///
/// PersistentStore is an append-only JSONL file: one header line carrying
/// the canonical-format and code versions, then one {"key","result"} line
/// per committed entry (the hash is recomputed from the key on load). A
/// header mismatch (new code version) discards the file and starts fresh;
/// a torn final line (crash mid-append) is
/// dropped silently. Load order is file order, so replaying into the LRU
/// preserves recency up to the cache capacity.

#include <cstdint>
#include <cstdio>
#include <functional>
#include <list>
#include <memory>
#include <mutex>
#include <optional>
#include <string>
#include <unordered_map>
#include <vector>

#include "arch/paths.hpp"
#include "serve/canonical.hpp"
#include "support/json.hpp"
#include "support/status.hpp"
#include "synth/result.hpp"

namespace mlsi::serve {

/// A proven synthesis answer in canonical coordinates: either a
/// proven-optimal solution or (infeasible == true) a proof that no
/// contamination-free solution exists for the canonical problem. Negative
/// entries carry no solution payload — only stats (the cost of the original
/// proof, which cost-aware eviction uses) — and are relabeling-invariant
/// like positive ones: infeasibility of the canonical problem is
/// infeasibility of every relabeled variant.
struct CachedResult {
  /// True for a cached infeasibility proof (no solution payload below).
  bool infeasible = false;
  std::vector<int> binding;  ///< canonical module index -> pin vertex id
  /// canonical flow index -> (flow set, candidate path id). Path ids are
  /// stable: path enumeration is deterministic for a topology + options.
  std::vector<std::pair<int, int>> flows;
  int num_sets = 0;
  std::vector<int> used_segments;
  double flow_length_mm = 0.0;
  double objective = 0.0;
  std::vector<int> essential_valves;
  /// valve_states[set] = one char per essential valve ('O'/'C'/'X').
  std::vector<std::string> valve_states;
  std::vector<int> pressure_group;
  int num_pressure_groups = 0;
  synth::EngineStats stats;  ///< stats of the original solve
};

/// Converts a freshly solved result into canonical coordinates.
[[nodiscard]] CachedResult to_cached(const synth::SynthesisResult& result,
                                     const CanonicalRequest& canon);

/// Rehydrates a cached value into the labeling of \p canon's request.
/// \p paths must belong to the request's topology (path ids are looked up).
[[nodiscard]] synth::SynthesisResult to_result(const CachedResult& cached,
                                               const CanonicalRequest& canon,
                                               const arch::PathSet& paths);

/// Whether \p cached can be rehydrated for \p canon's request on \p model:
/// one pin per module and one (set, path) per flow of the request; every
/// pin vertex, path id and valve segment inside the model; every
/// valve-state row one known state ('O', 'C', 'X') per essential valve.
/// An infeasibility proof carries no payload and always fits. The server
/// treats a hit that does not fit (a hostile or stale store entry) as a
/// miss, so to_result() and the response writer never index past the
/// model.
[[nodiscard]] bool fits(const CachedResult& cached,
                        const CanonicalRequest& canon,
                        const arch::SwitchModel& model);

/// JSONL round-trip for persistence.
[[nodiscard]] json::Value cached_to_json(const CachedResult& cached);
[[nodiscard]] Result<CachedResult> cached_from_json(const json::Value& doc);

/// Sharded in-memory LRU keyed by canonical text (hash-indexed).
class ResultCache {
 public:
  /// \p capacity 0 disables the cache entirely (every lookup misses and
  /// insert is a no-op — the no-cache baseline); shards are clamped to
  /// [1, 64] and to the capacity.
  ResultCache(std::size_t capacity, int shards);

  /// Returns the entry and promotes it to most-recent, or nullptr. A hash
  /// match with different canonical text counts as a miss.
  [[nodiscard]] std::shared_ptr<const CachedResult> lookup(const CacheKey& key);

  /// Inserts (or refreshes) an entry. Past capacity the shard evicts
  /// cost-aware: among the last few entries of the LRU list (the eviction
  /// window) it drops the one whose original solve was cheapest
  /// (stats.runtime_s), so an expensive proof survives a burst of cheap
  /// ones; ties fall back to strict least-recently-used.
  void insert(const CacheKey& key, CachedResult value);

  struct Stats {
    long hits = 0;
    long misses = 0;
    long insertions = 0;
    long evictions = 0;
    std::size_t entries = 0;
  };
  [[nodiscard]] Stats stats() const;
  [[nodiscard]] std::size_t capacity() const { return capacity_; }

 private:
  struct Entry {
    CacheKey key;
    std::shared_ptr<const CachedResult> value;
  };
  struct Shard {
    mutable std::mutex mutex;
    std::list<Entry> lru;  ///< front = most recently used
    std::unordered_map<std::uint64_t, std::list<Entry>::iterator> index;
    long hits = 0;
    long misses = 0;
    long insertions = 0;
    long evictions = 0;
  };

  Shard& shard_for(std::uint64_t hash) {
    return shards_[hash % shards_.size()];
  }

  std::size_t capacity_;        ///< total, across shards
  std::size_t shard_capacity_;  ///< per shard
  std::vector<Shard> shards_;
};

/// Append-only on-disk JSONL mirror of committed cache entries.
class PersistentStore {
 public:
  ~PersistentStore();

  /// Opens (creating if needed) \p path and replays every stored entry
  /// whose header matches \p code_version into \p sink. A mismatched or
  /// corrupt header discards the file. Returns the number of replayed
  /// entries.
  Result<long> open(const std::string& path, const std::string& code_version,
                    const std::function<void(CacheKey, CachedResult)>& sink);

  /// Appends one entry and flushes. Thread-safe.
  Status append(const CacheKey& key, const CachedResult& value);

  [[nodiscard]] bool is_open() const { return file_ != nullptr; }
  void close();

 private:
  std::mutex mutex_;
  std::FILE* file_ = nullptr;
};

}  // namespace mlsi::serve
