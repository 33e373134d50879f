#pragma once

// Workload inputs. Every input set is a pure function of the workload seed:
// the input pools are fixed (their verdicts are checked in under
// reference/), and the seed only decides the order in which pool entries
// arrive and, for serve_zipf, which zipf ranks are drawn and how every
// request is relabeled. Nothing here looks at measured times.

#include <cstdint>
#include <string>
#include <vector>

#include "synth/spec.hpp"

namespace perfbench {

/// One pool entry: a stable name (the reference key) and its spec.
struct PoolEntry {
  std::string name;
  mlsi::synth::ProblemSpec spec;
};

/// The six reconstructed paper cases that take longest to prove.
std::vector<PoolEntry> hard_case_pool();

/// Fixed-binding 8- and 12-pin specs from cases::make_artificial.
std::vector<PoolEntry> fixed_sweep_pool();

/// Distinct 8-pin specs over all three binding policies, served by zipf
/// rank: pool entry r is the spec of rank r.
std::vector<PoolEntry> serve_pool();

/// Case-file JSON text of a spec: what the library path parses.
std::string case_text(const mlsi::synth::ProblemSpec& spec);

/// Seeded order of pass \p pass over a pool of \p n entries.
std::vector<int> pass_order(int n, std::uint64_t seed, int pass);

/// serve_zipf's request stream: request lines (each a fresh random
/// relabeling of its pool spec), the pool index behind each line, each
/// line's module names by pool-spec module index, and the length of the
/// single-client warm-up prefix.
struct RequestStream {
  std::vector<std::string> lines;
  std::vector<int> pool_index;
  std::vector<std::vector<std::string>> module_names;
  int warmup = 0;
};

inline constexpr double kZipfExponent = 1.1;

RequestStream serve_stream(const std::vector<PoolEntry>& pool,
                           std::uint64_t seed);

/// FNV-1a digest of everything a workload feeds the program for \p seed
/// (the determinism tests compare these).
std::uint64_t stream_digest(const std::string& workload, std::uint64_t seed);

}  // namespace perfbench
