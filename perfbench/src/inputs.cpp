#include "inputs.hpp"

#include <algorithm>
#include <cmath>
#include <numeric>
#include <set>

#include "cases/artificial.hpp"
#include "cases/cases.hpp"
#include "io/case_io.hpp"
#include "support/rng.hpp"
#include "support/strings.hpp"

namespace perfbench {

using mlsi::Rng;
using mlsi::synth::BindingPolicy;
using mlsi::synth::ProblemSpec;

namespace {

// Pool sizes are part of the workload definition: the checked-in
// references list exactly these entries.
constexpr int kFixedSweepPool = 512;
constexpr int kServePool = 320;
// serve_zipf: the warm-up prefix sent by one client before the restart is
// the shortest prefix naming this many distinct specs, so every seed
// replays a store of the same size; then the measured lines, cycled by the
// closed-loop clients.
constexpr int kServeWarmupDistinct = 192;
constexpr int kServeMeasured = 16384;

std::uint64_t mix(std::uint64_t seed, std::uint64_t salt) {
  std::uint64_t z = seed * 0x9E3779B97F4A7C15ull + salt + 0x632BE59BD9B4E019ull;
  z = (z ^ (z >> 30)) * 0xBF58476D1CE4E5B9ull;
  z = (z ^ (z >> 27)) * 0x94D049BB133111EBull;
  return z ^ (z >> 31);
}

std::uint64_t fnv1a(std::uint64_t h, const std::string& text) {
  for (const char c : text) {
    h ^= static_cast<unsigned char>(c);
    h *= 0x100000001B3ull;
  }
  // Separator, so concatenations of different splits differ.
  h ^= 0xFF;
  h *= 0x100000001B3ull;
  return h;
}

/// Zipf(s) over ranks [0, n) by inverse CDF.
class Zipf {
 public:
  Zipf(int n, double s) : cdf_(static_cast<std::size_t>(n)) {
    double total = 0.0;
    for (int k = 0; k < n; ++k) {
      total += 1.0 / std::pow(static_cast<double>(k + 1), s);
      cdf_[static_cast<std::size_t>(k)] = total;
    }
    for (double& c : cdf_) c /= total;
  }

  int sample(Rng& rng) const {
    const auto it = std::lower_bound(cdf_.begin(), cdf_.end(), rng.next_double());
    return std::min(static_cast<int>(it - cdf_.begin()),
                    static_cast<int>(cdf_.size()) - 1);
  }

 private:
  std::vector<double> cdf_;
};

/// A fresh random relabeling: new module names, permuted module, flow and
/// conflict orders, swapped conflict ends. The problem is unchanged, so
/// the canonical cache key and the optimum are too. \p names receives the
/// new name of every base module, by base index.
ProblemSpec relabel(const ProblemSpec& base, Rng& rng, std::string name,
                    std::vector<std::string>& names) {
  const int n = base.num_modules();
  std::vector<int> module_to(static_cast<std::size_t>(n));
  std::iota(module_to.begin(), module_to.end(), 0);
  rng.shuffle(module_to);
  std::vector<int> flow_to(static_cast<std::size_t>(base.num_flows()));
  std::iota(flow_to.begin(), flow_to.end(), 0);
  rng.shuffle(flow_to);

  ProblemSpec out = base;
  out.name = std::move(name);
  std::set<std::string> used;
  for (int m = 0; m < n; ++m) {
    std::string label;
    do {
      label = mlsi::cat("m", rng.next_below(1u << 20));
    } while (!used.insert(label).second);
    out.modules[static_cast<std::size_t>(module_to[static_cast<std::size_t>(m)])] =
        label;
    names.push_back(std::move(label));
  }
  for (std::size_t f = 0; f < base.flows.size(); ++f) {
    out.flows[static_cast<std::size_t>(flow_to[f])] = {
        module_to[static_cast<std::size_t>(base.flows[f].src_module)],
        module_to[static_cast<std::size_t>(base.flows[f].dst_module)]};
  }
  for (auto& [a, b] : out.conflicts) {
    a = flow_to[static_cast<std::size_t>(a)];
    b = flow_to[static_cast<std::size_t>(b)];
    if (rng.next_bool()) std::swap(a, b);
  }
  rng.shuffle(out.conflicts);
  for (int& m : out.clockwise_order) m = module_to[static_cast<std::size_t>(m)];
  for (auto& mp : out.fixed_binding) {
    mp.module = module_to[static_cast<std::size_t>(mp.module)];
  }
  rng.shuffle(out.fixed_binding);
  return out;
}

}  // namespace

std::vector<PoolEntry> hard_case_pool() {
  using namespace mlsi::cases;
  return {
      {"chip_sw1_unfixed", chip_sw1(BindingPolicy::kUnfixed)},
      {"mrna_isolation_unfixed", mrna_isolation(BindingPolicy::kUnfixed)},
      {"chip_sw2_clockwise", chip_sw2(BindingPolicy::kClockwise)},
      {"mrna_13_clockwise", mrna_13(BindingPolicy::kClockwise)},
      {"table42_example", table42_example()},
      {"chip_sw1_clockwise", chip_sw1(BindingPolicy::kClockwise)},
  };
}

std::vector<PoolEntry> fixed_sweep_pool() {
  std::vector<PoolEntry> pool;
  pool.reserve(kFixedSweepPool);
  for (int i = 0; i < kFixedSweepPool; ++i) {
    mlsi::cases::ArtificialParams p;
    p.pins_per_side = 2 + i % 2;
    p.num_inlets = 1 + (i / 2) % 3;
    // Every inlet feeds at least one outlet.
    p.num_outlets = std::max(p.num_inlets, 2 + (i / 6) % 4);
    p.num_conflict_pairs = p.num_inlets >= 2 ? (i / 24) % 4 : 0;
    p.policy = BindingPolicy::kFixed;
    p.seed = 70000 + static_cast<std::uint64_t>(i);
    pool.push_back({mlsi::cat("fixed", i), mlsi::cases::make_artificial(p)});
  }
  return pool;
}

std::vector<PoolEntry> serve_pool() {
  const BindingPolicy policies[] = {BindingPolicy::kUnfixed,
                                    BindingPolicy::kClockwise,
                                    BindingPolicy::kFixed};
  // Entries are distinct problems, not just distinct labelings: a generated
  // spec equal to an earlier one up to relabeling (common among the small
  // unfixed ones) is skipped, so every entry has its own cache key.
  std::vector<PoolEntry> pool;
  std::set<std::string> canonical;
  for (int i = 0; static_cast<int>(pool.size()) < kServePool; ++i) {
    mlsi::cases::ArtificialParams p;
    p.pins_per_side = 2;
    p.policy = policies[i % 3];
    p.num_inlets = 1 + (i / 3) % 3;
    p.num_outlets = std::max(p.num_inlets, 2 + (i / 9) % 4);
    p.num_conflict_pairs = p.num_inlets >= 2 ? (i / 36) % 4 : 0;
    p.seed = 90000 + static_cast<std::uint64_t>(i);
    ProblemSpec spec = mlsi::cases::make_artificial(p);
    if (canonical.insert(spec.canonical_form().text).second) {
      pool.push_back({mlsi::cat("serve", i), std::move(spec)});
    }
  }
  return pool;
}

std::string case_text(const ProblemSpec& spec) {
  return mlsi::io::spec_to_json(spec).dump();
}

std::vector<int> pass_order(int n, std::uint64_t seed, int pass) {
  std::vector<int> order(static_cast<std::size_t>(n));
  std::iota(order.begin(), order.end(), 0);
  Rng rng(mix(seed, 0x1000 + static_cast<std::uint64_t>(pass)));
  rng.shuffle(order);
  return order;
}

RequestStream serve_stream(const std::vector<PoolEntry>& pool,
                           std::uint64_t seed) {
  RequestStream stream;
  const Zipf zipf(static_cast<int>(pool.size()), kZipfExponent);
  Rng rng(mix(seed, 0x2000));
  std::set<int> distinct;
  for (int j = 0; stream.warmup == 0 || j < stream.warmup + kServeMeasured; ++j) {
    const int rank = zipf.sample(rng);
    if (stream.warmup == 0 && distinct.insert(rank).second &&
        static_cast<int>(distinct.size()) == kServeWarmupDistinct) {
      stream.warmup = j + 1;
    }
    std::vector<std::string> names;
    const ProblemSpec spec =
        relabel(pool[static_cast<std::size_t>(rank)].spec, rng,
                pool[static_cast<std::size_t>(rank)].name, names);
    stream.lines.push_back(
        mlsi::cat("{\"id\":\"q", j, "\",\"case\":", case_text(spec), "}"));
    stream.pool_index.push_back(rank);
    stream.module_names.push_back(std::move(names));
  }
  return stream;
}

std::uint64_t stream_digest(const std::string& workload, std::uint64_t seed) {
  std::uint64_t h = 0xCBF29CE484222325ull;
  const auto digest_passes = [&](const std::vector<PoolEntry>& pool) {
    for (int pass = 0; pass < 4; ++pass) {
      for (const int i : pass_order(static_cast<int>(pool.size()), seed, pass)) {
        h = fnv1a(h, case_text(pool[static_cast<std::size_t>(i)].spec));
      }
    }
  };
  if (workload == "hard_cases") {
    digest_passes(hard_case_pool());
  } else if (workload == "fixed_sweep") {
    digest_passes(fixed_sweep_pool());
  } else {
    const RequestStream stream = serve_stream(serve_pool(), seed);
    for (const std::string& line : stream.lines) h = fnv1a(h, line);
  }
  return h;
}

}  // namespace perfbench
