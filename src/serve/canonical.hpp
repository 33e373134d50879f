#pragma once

/// \file canonical.hpp
/// \brief Cache keys for synthesis-as-a-service.
///
/// A key canonicalizes everything that determines a synthesis *answer*:
/// the spec's relabeling-invariant canonical form
/// (synth::ProblemSpec::canonical_form()), the synthesis options that shape
/// the result (engine, valve reduction, pressure mode, path enumeration),
/// the canonical-format version and the code version.
/// Two requests with equal keys receive byte-identical answers (modulo
/// per-request timing), no matter how their modules and flows were labeled.
///
/// Deliberately *excluded* from the key: deadlines, job counts and stop
/// tokens (they change how long a solve takes, never what the committed
/// answer is — the cache only ever stores proven-optimal results), and the
/// spec/module names (labels).
///
/// Keys carry both the 64-bit FNV-1a hash (shard + bucket index) and the
/// full canonical text; lookups compare the text, so a hash collision can
/// cost a cache hit but never serve a wrong result.

#include <cstdint>
#include <string>
#include <string_view>
#include <vector>

#include "synth/spec.hpp"
#include "synth/synthesizer.hpp"

namespace mlsi::serve {

/// Bump on any change to the canonical text layout or to the cached-result
/// serialization; persisted caches from other versions are discarded.
inline constexpr int kCanonicalVersion = 2;

/// FNV-1a 64-bit hash.
[[nodiscard]] std::uint64_t fnv1a64(std::string_view s);

struct CacheKey {
  std::uint64_t hash = 0;
  std::string text;  ///< full canonical serialization (collision guard)

  [[nodiscard]] bool operator==(const CacheKey& o) const {
    return hash == o.hash && text == o.text;
  }
};

/// A request after canonicalization: the key plus the permutations needed
/// to carry a cached (canonically labeled) solution back into the
/// request's own labeling.
struct CanonicalRequest {
  CacheKey key;
  std::vector<int> module_to_canonical;
  std::vector<int> flow_to_canonical;
};

/// Canonicalizes \p spec (must validate()) under the serving options.
/// \p code_version is baked into the key so a persisted cache written by a
/// different build never matches.
[[nodiscard]] CanonicalRequest canonicalize(
    const synth::ProblemSpec& spec, const synth::SynthesisOptions& options,
    std::string_view code_version);

}  // namespace mlsi::serve
