#include "serve/cache.hpp"

#include <algorithm>
#include <utility>

#include "support/strings.hpp"

namespace mlsi::serve {

using json::Array;
using json::Object;
using json::Value;

CachedResult to_cached(const synth::SynthesisResult& result,
                       const CanonicalRequest& canon) {
  CachedResult c;
  const auto& mp = canon.module_to_canonical;
  const auto& fp = canon.flow_to_canonical;
  c.binding.assign(result.binding.size(), -1);
  for (std::size_t m = 0; m < result.binding.size(); ++m) {
    c.binding[static_cast<std::size_t>(mp[m])] = result.binding[m];
  }
  c.flows.assign(result.routed.size(), {-1, -1});
  for (const synth::RoutedFlow& rf : result.routed) {
    c.flows[static_cast<std::size_t>(fp[static_cast<std::size_t>(rf.flow)])] = {
        rf.set, rf.path.id};
  }
  c.num_sets = result.num_sets;
  c.used_segments = result.used_segments;
  c.flow_length_mm = result.flow_length_mm;
  c.objective = result.objective;
  c.essential_valves = result.essential_valves;
  c.valve_states.reserve(result.valve_states.size());
  for (const auto& per_set : result.valve_states) {
    std::string row;
    row.reserve(per_set.size());
    for (const synth::ValveState s : per_set) row += to_char(s);
    c.valve_states.push_back(std::move(row));
  }
  c.pressure_group = result.pressure_group;
  c.num_pressure_groups = result.num_pressure_groups;
  c.stats = result.stats;
  return c;
}

synth::SynthesisResult to_result(const CachedResult& cached,
                                 const CanonicalRequest& canon,
                                 const arch::PathSet& paths) {
  synth::SynthesisResult r;
  const auto& mp = canon.module_to_canonical;
  const auto& fp = canon.flow_to_canonical;
  r.binding.assign(cached.binding.size(), -1);
  for (std::size_t m = 0; m < cached.binding.size(); ++m) {
    r.binding[m] = cached.binding[static_cast<std::size_t>(mp[m])];
  }
  r.routed.resize(cached.flows.size());
  for (std::size_t f = 0; f < cached.flows.size(); ++f) {
    const auto& [set, path_id] = cached.flows[static_cast<std::size_t>(fp[f])];
    synth::RoutedFlow& rf = r.routed[f];
    rf.flow = static_cast<int>(f);
    rf.set = set;
    rf.path = paths.path(path_id);
  }
  r.num_sets = cached.num_sets;
  r.used_segments = cached.used_segments;
  r.flow_length_mm = cached.flow_length_mm;
  r.objective = cached.objective;
  r.essential_valves = cached.essential_valves;
  r.valve_states.reserve(cached.valve_states.size());
  for (const std::string& row : cached.valve_states) {
    std::vector<synth::ValveState> per_set;
    per_set.reserve(row.size());
    for (const char ch : row) {
      per_set.push_back(static_cast<synth::ValveState>(ch));
    }
    r.valve_states.push_back(std::move(per_set));
  }
  r.pressure_group = cached.pressure_group;
  r.num_pressure_groups = cached.num_pressure_groups;
  r.stats = cached.stats;
  return r;
}

bool fits(const CachedResult& cached, const CanonicalRequest& canon,
          const arch::SwitchModel& model) {
  if (cached.infeasible) return true;
  const auto in_range = [](int id, int size) { return id >= 0 && id < size; };
  if (cached.binding.size() != canon.module_to_canonical.size() ||
      cached.flows.size() != canon.flow_to_canonical.size()) {
    return false;
  }
  const int vertices = model.topology.num_vertices();
  for (const int pin : cached.binding) {
    if (pin != -1 && !in_range(pin, vertices)) return false;
  }
  for (const auto& [set, path_id] : cached.flows) {
    if (!in_range(path_id, model.paths.size())) return false;
  }
  const int segments = model.topology.num_segments();
  for (const int segment : cached.essential_valves) {
    if (!in_range(segment, segments)) return false;
  }
  for (const std::string& row : cached.valve_states) {
    if (row.size() != cached.essential_valves.size()) return false;
    for (const char ch : row) {
      const auto state = static_cast<synth::ValveState>(ch);
      if (state != synth::ValveState::kOpen &&
          state != synth::ValveState::kClosed &&
          state != synth::ValveState::kDontCare) {
        return false;
      }
    }
  }
  return true;
}

namespace {

Value int_array(const std::vector<int>& v) {
  Array a;
  a.reserve(v.size());
  for (const int x : v) a.emplace_back(x);
  return Value{std::move(a)};
}

Result<std::vector<int>> to_int_vector(const Value* v, std::string_view what) {
  if (v == nullptr || !v->is_array()) {
    return Status::InvalidArgument(cat("missing array '", what, "'"));
  }
  std::vector<int> out;
  out.reserve(v->as_array().size());
  for (const Value& x : v->as_array()) {
    const auto n = json::read_int(&x, what);
    if (!n.ok()) return n.status();
    out.push_back(*n);
  }
  return out;
}

}  // namespace

Value cached_to_json(const CachedResult& cached) {
  Object o;
  if (cached.infeasible) o["infeasible"] = Value{true};
  o["binding"] = int_array(cached.binding);
  Array flows;
  for (const auto& [set, path] : cached.flows) {
    flows.emplace_back(Array{Value{set}, Value{path}});
  }
  o["flows"] = Value{std::move(flows)};
  o["num_sets"] = Value{cached.num_sets};
  o["used_segments"] = int_array(cached.used_segments);
  o["flow_length_mm"] = Value{cached.flow_length_mm};
  o["objective"] = Value{cached.objective};
  o["essential_valves"] = int_array(cached.essential_valves);
  Array states;
  for (const std::string& row : cached.valve_states) states.emplace_back(row);
  o["valve_states"] = Value{std::move(states)};
  o["pressure_group"] = int_array(cached.pressure_group);
  o["num_pressure_groups"] = Value{cached.num_pressure_groups};
  Object stats;
  stats["engine"] = Value{cached.stats.engine};
  stats["runtime_s"] = Value{cached.stats.runtime_s};
  stats["nodes"] = Value{static_cast<double>(cached.stats.nodes)};
  stats["proven_optimal"] = Value{cached.stats.proven_optimal};
  stats["lp_iterations"] =
      Value{static_cast<double>(cached.stats.lp_iterations)};
  stats["lp_factorizations"] =
      Value{static_cast<double>(cached.stats.lp_factorizations)};
  stats["warm_starts"] = Value{static_cast<double>(cached.stats.warm_starts)};
  stats["cold_starts"] = Value{static_cast<double>(cached.stats.cold_starts)};
  stats["cuts_generated"] =
      Value{static_cast<double>(cached.stats.cuts_generated)};
  stats["cuts_applied"] = Value{static_cast<double>(cached.stats.cuts_applied)};
  stats["cuts_dropped"] = Value{static_cast<double>(cached.stats.cuts_dropped)};
  o["stats"] = Value{std::move(stats)};
  return Value{std::move(o)};
}

Result<CachedResult> cached_from_json(const Value& doc) {
  if (!doc.is_object()) {
    return Status::InvalidArgument("cached result must be an object");
  }
  CachedResult c;
  c.infeasible = doc.get_bool("infeasible", false);
  auto binding = to_int_vector(doc.find("binding"), "binding");
  if (!binding.ok()) return binding.status();
  c.binding = std::move(*binding);
  const Value* flows = doc.find("flows");
  if (flows == nullptr || !flows->is_array()) {
    return Status::InvalidArgument("missing array 'flows'");
  }
  for (const Value& f : flows->as_array()) {
    if (!f.is_array() || f.as_array().size() != 2) {
      return Status::InvalidArgument("each flow must be a [set, path] pair");
    }
    const auto set = json::read_int(&f.as_array()[0], "flows");
    if (!set.ok()) return set.status();
    const auto path = json::read_int(&f.as_array()[1], "flows");
    if (!path.ok()) return path.status();
    c.flows.emplace_back(*set, *path);
  }
  const auto num_sets = json::read_int(doc.find("num_sets"), "num_sets");
  if (!num_sets.ok()) return num_sets.status();
  c.num_sets = *num_sets;
  auto segments = to_int_vector(doc.find("used_segments"), "used_segments");
  if (!segments.ok()) return segments.status();
  c.used_segments = std::move(*segments);
  c.flow_length_mm = doc.get_number("flow_length_mm", 0.0);
  c.objective = doc.get_number("objective", 0.0);
  auto valves = to_int_vector(doc.find("essential_valves"), "essential_valves");
  if (!valves.ok()) return valves.status();
  c.essential_valves = std::move(*valves);
  if (const Value* states = doc.find("valve_states"); states != nullptr) {
    if (!states->is_array()) {
      return Status::InvalidArgument("'valve_states' must be an array");
    }
    for (const Value& row : states->as_array()) {
      if (!row.is_string()) {
        return Status::InvalidArgument("each valve state row must be a string");
      }
      c.valve_states.push_back(row.as_string());
    }
  }
  auto groups = to_int_vector(doc.find("pressure_group"), "pressure_group");
  if (!groups.ok()) return groups.status();
  c.pressure_group = std::move(*groups);
  const auto num_groups =
      json::read_int(doc.find("num_pressure_groups"), "num_pressure_groups");
  if (!num_groups.ok()) return num_groups.status();
  c.num_pressure_groups = *num_groups;
  if (const Value* stats = doc.find("stats"); stats != nullptr) {
    c.stats.engine = stats->get_string("engine", "cached");
    c.stats.runtime_s = stats->get_number("runtime_s", 0.0);
    c.stats.proven_optimal = stats->get_bool("proven_optimal", true);
    const std::pair<const char*, long*> counters[] = {
        {"nodes", &c.stats.nodes},
        {"lp_iterations", &c.stats.lp_iterations},
        {"lp_factorizations", &c.stats.lp_factorizations},
        {"warm_starts", &c.stats.warm_starts},
        {"cold_starts", &c.stats.cold_starts},
        {"cuts_generated", &c.stats.cuts_generated},
        {"cuts_applied", &c.stats.cuts_applied},
        {"cuts_dropped", &c.stats.cuts_dropped},
    };
    for (const auto& [name, field] : counters) {
      const auto n = json::read_long(stats->find(name), name);
      if (!n.ok()) return n.status();
      *field = *n;
    }
  }
  return c;
}

// --- ResultCache ------------------------------------------------------------

ResultCache::ResultCache(std::size_t capacity, int shards)
    : capacity_(capacity) {
  std::size_t n = static_cast<std::size_t>(std::clamp(shards, 1, 64));
  if (capacity_ > 0) n = std::min(n, capacity_);
  shards_ = std::vector<Shard>(std::max<std::size_t>(n, 1));
  shard_capacity_ =
      capacity_ == 0 ? 0 : (capacity_ + shards_.size() - 1) / shards_.size();
}

std::shared_ptr<const CachedResult> ResultCache::lookup(const CacheKey& key) {
  if (capacity_ == 0) return nullptr;
  Shard& shard = shard_for(key.hash);
  std::lock_guard<std::mutex> lock(shard.mutex);
  const auto it = shard.index.find(key.hash);
  if (it == shard.index.end() || !(it->second->key == key)) return nullptr;
  shard.lru.splice(shard.lru.begin(), shard.lru, it->second);
  return it->second->value;
}

void ResultCache::insert(const CacheKey& key, CachedResult value) {
  if (capacity_ == 0) return;
  Shard& shard = shard_for(key.hash);
  auto shared = std::make_shared<const CachedResult>(std::move(value));
  std::lock_guard<std::mutex> lock(shard.mutex);
  if (const auto it = shard.index.find(key.hash); it != shard.index.end()) {
    // Refresh in place (also the rare hash-collision case: latest wins).
    it->second->key = key;
    it->second->value = std::move(shared);
    shard.lru.splice(shard.lru.begin(), shard.lru, it->second);
    return;
  }
  shard.lru.push_front(Entry{key, std::move(shared)});
  shard.index[key.hash] = shard.lru.begin();
  while (shard.lru.size() > shard_capacity_) {
    // Cost-aware eviction: among the last few LRU entries, drop the one
    // whose original solve was cheapest to recompute; ties (all-zero costs
    // included) keep strict LRU order, back-most first.
    constexpr int kEvictionWindow = 8;
    auto victim = std::prev(shard.lru.end());
    auto it = victim;
    for (int scanned = 1;
         scanned < kEvictionWindow && it != shard.lru.begin(); ++scanned) {
      --it;
      // The head is the entry just inserted (or just refreshed) — it must
      // never be the victim of its own insertion.
      if (it == shard.lru.begin()) break;
      if (it->value->stats.runtime_s <
          victim->value->stats.runtime_s - 1e-12) {
        victim = it;
      }
    }
    shard.index.erase(victim->key.hash);
    shard.lru.erase(victim);
    ++shard.evictions;
  }
}

ResultCache::Stats ResultCache::stats() const {
  Stats s;
  for (const Shard& shard : shards_) {
    std::lock_guard<std::mutex> lock(shard.mutex);
    s.evictions += shard.evictions;
    s.entries += shard.lru.size();
  }
  return s;
}

// --- PersistentStore --------------------------------------------------------

namespace {
constexpr int kStoreFormat = 1;
}  // namespace

PersistentStore::~PersistentStore() { close(); }

void PersistentStore::close() {
  std::lock_guard<std::mutex> lock(mutex_);
  if (file_ != nullptr) {
    std::fclose(file_);
    file_ = nullptr;
  }
}

Result<long> PersistentStore::open(
    const std::string& path, const std::string& code_version,
    const std::function<void(CacheKey, CachedResult)>& sink) {
  std::lock_guard<std::mutex> lock(mutex_);
  if (file_ != nullptr) return Status::Internal("store already open");

  long replayed = 0;
  bool keep_existing = false;
  if (std::FILE* in = std::fopen(path.c_str(), "rb"); in != nullptr) {
    std::string line;
    char buf[1 << 16];
    bool first = true;
    while (std::fgets(buf, sizeof buf, in) != nullptr) {
      line = buf;
      while (!line.empty() && (line.back() == '\n' || line.back() == '\r')) {
        line.pop_back();
      }
      if (line.empty()) continue;
      auto doc = json::parse(line);
      if (!doc.ok()) break;  // torn tail (crash mid-append): stop replaying
      if (first) {
        first = false;
        // A missing or malformed version number reads as a mismatch.
        if (json::read_int(doc->find("format"), "format").value_or(-1) !=
                kStoreFormat ||
            json::read_int(doc->find("canonical_version"), "canonical_version")
                    .value_or(-1) != kCanonicalVersion ||
            doc->get_string("code_version", "") != code_version) {
          break;  // stale store from another build: discard wholesale
        }
        keep_existing = true;
        continue;
      }
      const Value* key = doc->find("key");
      const Value* result = doc->find("result");
      if (key == nullptr || !key->is_string() || result == nullptr) continue;
      auto cached = cached_from_json(*result);
      if (!cached.ok()) continue;
      CacheKey k;
      k.text = key->as_string();
      k.hash = fnv1a64(k.text);
      sink(std::move(k), std::move(*cached));
      ++replayed;
    }
    std::fclose(in);
  }

  file_ = std::fopen(path.c_str(), keep_existing ? "ab" : "wb");
  if (file_ == nullptr) {
    return Status::NotFound(cat("cannot open cache store ", path));
  }
  if (!keep_existing) {
    Object header;
    header["format"] = Value{kStoreFormat};
    header["canonical_version"] = Value{kCanonicalVersion};
    header["code_version"] = Value{code_version};
    const std::string line = Value{std::move(header)}.dump() + "\n";
    std::fwrite(line.data(), 1, line.size(), file_);
    std::fflush(file_);
  }
  return replayed;
}

Status PersistentStore::append(const CacheKey& key, const CachedResult& value) {
  std::lock_guard<std::mutex> lock(mutex_);
  if (file_ == nullptr) return Status::Ok();  // persistence not enabled
  Object o;
  o["key"] = Value{key.text};
  o["result"] = cached_to_json(value);
  const std::string line = Value{std::move(o)}.dump() + "\n";
  if (std::fwrite(line.data(), 1, line.size(), file_) != line.size()) {
    return Status::Internal("cache store append failed");
  }
  std::fflush(file_);
  return Status::Ok();
}

}  // namespace mlsi::serve
