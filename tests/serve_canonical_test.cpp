// Spec canonicalization: the cache key must be invariant under every
// relabeling of a spec (renamed modules, permuted module/flow vectors with
// indices rewritten, reordered conflicts, swapped conflict-pair ends) and
// must change under every semantic change (policy, pin count, an edge, the
// objective weights, a prescribed pin).

#include <gtest/gtest.h>

#include <algorithm>
#include <numeric>
#include <string>
#include <vector>

#include "cases/artificial.hpp"
#include "serve/canonical.hpp"
#include "support/rng.hpp"
#include "synth/spec.hpp"

namespace mlsi::serve {
namespace {

using synth::BindingPolicy;
using synth::ProblemSpec;

/// Applies a module permutation (new index = mperm[old]) and a flow
/// permutation (new index = fperm[old]) to every index-bearing field, and
/// optionally renames the modules — a pure relabeling, never a semantic
/// change.
ProblemSpec relabel(const ProblemSpec& spec, const std::vector<int>& mperm,
                    const std::vector<int>& fperm, bool rename) {
  ProblemSpec out = spec;
  out.modules.assign(spec.modules.size(), {});
  for (std::size_t m = 0; m < spec.modules.size(); ++m) {
    const auto nm = static_cast<std::size_t>(mperm[m]);
    out.modules[nm] = rename ? "relabeled_" + std::to_string(nm)
                             : spec.modules[m];
  }
  out.flows.assign(spec.flows.size(), {});
  for (std::size_t f = 0; f < spec.flows.size(); ++f) {
    out.flows[static_cast<std::size_t>(fperm[f])] = {
        mperm[static_cast<std::size_t>(spec.flows[f].src_module)],
        mperm[static_cast<std::size_t>(spec.flows[f].dst_module)]};
  }
  out.conflicts.clear();
  for (const auto& [a, b] : spec.conflicts) {
    out.conflicts.emplace_back(fperm[static_cast<std::size_t>(a)],
                               fperm[static_cast<std::size_t>(b)]);
  }
  for (std::size_t k = 0; k < spec.clockwise_order.size(); ++k) {
    out.clockwise_order[k] =
        mperm[static_cast<std::size_t>(spec.clockwise_order[k])];
  }
  for (std::size_t k = 0; k < spec.fixed_binding.size(); ++k) {
    out.fixed_binding[k].module =
        mperm[static_cast<std::size_t>(spec.fixed_binding[k].module)];
  }
  return out;
}

std::vector<int> random_perm(int n, Rng& rng) {
  std::vector<int> perm(static_cast<std::size_t>(n));
  std::iota(perm.begin(), perm.end(), 0);
  rng.shuffle(perm);
  return perm;
}

std::vector<ProblemSpec> fuzz_specs() {
  std::vector<ProblemSpec> specs;
  const BindingPolicy policies[] = {BindingPolicy::kUnfixed,
                                    BindingPolicy::kClockwise,
                                    BindingPolicy::kFixed};
  for (int i = 0; i < 60; ++i) {
    cases::ArtificialParams p;
    p.pins_per_side = i % 2 == 0 ? 2 : 3;
    p.num_inlets = 2 + i % 2;
    p.num_outlets = 3 + i % 3;
    p.num_conflict_pairs = i % 4;
    p.policy = policies[i % 3];
    p.seed = 7000 + static_cast<std::uint64_t>(i);
    if (p.num_inlets + p.num_outlets > 4 * p.pins_per_side) continue;
    specs.push_back(cases::make_artificial(p));
  }
  return specs;
}

TEST(CanonicalFormTest, InvariantUnderRandomRelabelings) {
  Rng rng(99);
  for (const ProblemSpec& spec : fuzz_specs()) {
    ASSERT_TRUE(spec.validate().ok()) << spec.name;
    const std::string base = spec.canonical_form().text;
    for (int round = 0; round < 5; ++round) {
      const auto mperm = random_perm(spec.num_modules(), rng);
      const auto fperm = random_perm(spec.num_flows(), rng);
      ProblemSpec variant = relabel(spec, mperm, fperm, round % 2 == 0);
      // Reorder the conflict list and swap pair ends — also label-only.
      rng.shuffle(variant.conflicts);
      for (auto& [a, b] : variant.conflicts) {
        if (rng.next_bool(0.5)) std::swap(a, b);
      }
      rng.shuffle(variant.fixed_binding);
      ASSERT_TRUE(variant.validate().ok()) << spec.name;
      EXPECT_EQ(variant.canonical_form().text, base)
          << spec.name << " round " << round;
    }
  }
}

TEST(CanonicalFormTest, MappingsArePermutations) {
  for (const ProblemSpec& spec : fuzz_specs()) {
    const synth::CanonicalForm form = spec.canonical_form();
    std::vector<int> seen_m(spec.modules.size(), 0);
    for (const int c : form.module_to_canonical) {
      ASSERT_GE(c, 0);
      ASSERT_LT(c, spec.num_modules());
      ++seen_m[static_cast<std::size_t>(c)];
    }
    EXPECT_EQ(std::count(seen_m.begin(), seen_m.end(), 1),
              spec.num_modules());
    std::vector<int> seen_f(spec.flows.size(), 0);
    for (const int c : form.flow_to_canonical) {
      ASSERT_GE(c, 0);
      ASSERT_LT(c, spec.num_flows());
      ++seen_f[static_cast<std::size_t>(c)];
    }
    EXPECT_EQ(std::count(seen_f.begin(), seen_f.end(), 1), spec.num_flows());
  }
}

/// A small handcrafted spec whose every semantic knob we can turn.
ProblemSpec base_spec() {
  ProblemSpec spec;
  spec.name = "canon-base";
  spec.pins_per_side = 2;
  spec.modules = {"in0", "in1", "out0", "out1", "out2"};
  spec.flows = {{0, 2}, {0, 3}, {1, 4}};
  spec.conflicts = {{0, 2}};
  spec.policy = BindingPolicy::kUnfixed;
  return spec;
}

TEST(CanonicalFormTest, SemanticChangesChangeTheText) {
  const ProblemSpec spec = base_spec();
  ASSERT_TRUE(spec.validate().ok());
  const std::string base = spec.canonical_form().text;

  {
    ProblemSpec changed = spec;
    changed.pins_per_side = 3;
    EXPECT_NE(changed.canonical_form().text, base) << "pin count";
  }
  {
    ProblemSpec changed = spec;
    changed.conflicts = {{0, 2}, {1, 2}};
    EXPECT_NE(changed.canonical_form().text, base) << "conflict edge";
  }
  {
    ProblemSpec changed = spec;
    changed.conflicts.clear();
    EXPECT_NE(changed.canonical_form().text, base) << "dropped conflict";
  }
  {
    ProblemSpec changed = spec;
    changed.alpha = 2.0;
    EXPECT_NE(changed.canonical_form().text, base) << "alpha";
  }
  {
    ProblemSpec changed = spec;
    changed.beta = 99.0;
    EXPECT_NE(changed.canonical_form().text, base) << "beta";
  }
  {
    ProblemSpec changed = spec;
    changed.max_sets = 1;
    EXPECT_NE(changed.canonical_form().text, base) << "max_sets";
  }
  {
    ProblemSpec changed = spec;
    changed.policy = BindingPolicy::kClockwise;
    changed.clockwise_order = {0, 2, 1, 3, 4};
    ASSERT_TRUE(changed.validate().ok());
    EXPECT_NE(changed.canonical_form().text, base) << "policy";
  }
}

TEST(CanonicalFormTest, FixedPinChangeChangesTheText) {
  ProblemSpec spec = base_spec();
  spec.policy = BindingPolicy::kFixed;
  spec.fixed_binding = {{0, 0}, {1, 1}, {2, 2}, {3, 3}, {4, 4}};
  ASSERT_TRUE(spec.validate().ok());
  const std::string base = spec.canonical_form().text;

  ProblemSpec moved = spec;
  moved.fixed_binding = {{0, 0}, {1, 1}, {2, 2}, {3, 3}, {4, 5}};
  ASSERT_TRUE(moved.validate().ok());
  EXPECT_NE(moved.canonical_form().text, base);
}

TEST(CanonicalFormTest, DifferentFlowStructureDiffers) {
  // Same module/flow/conflict counts, different inlet degree sequence
  // (2+2 vs 3+1) — non-isomorphic, so the texts must differ.
  ProblemSpec a;
  a.pins_per_side = 2;
  a.modules = {"i0", "i1", "o0", "o1", "o2", "o3"};
  a.flows = {{0, 2}, {0, 3}, {1, 4}, {1, 5}};
  a.conflicts = {{0, 2}};
  ProblemSpec b = a;
  b.flows = {{0, 2}, {0, 3}, {0, 4}, {1, 5}};
  b.conflicts = {{0, 3}};
  ASSERT_TRUE(a.validate().ok());
  ASSERT_TRUE(b.validate().ok());
  EXPECT_NE(a.canonical_form().text, b.canonical_form().text);
}

TEST(CanonicalizeRequestTest, OptionsAreFoldedIntoTheKey) {
  const ProblemSpec spec = base_spec();
  synth::SynthesisOptions options;
  const CanonicalRequest base = canonicalize(spec, options, "sha1");

  synth::SynthesisOptions other_engine = options;
  other_engine.engine = "iqp";
  EXPECT_NE(canonicalize(spec, other_engine, "sha1").key.text, base.key.text);

  synth::SynthesisOptions other_pressure = options;
  other_pressure.pressure = synth::PressureMode::kOff;
  EXPECT_NE(canonicalize(spec, other_pressure, "sha1").key.text,
            base.key.text);

  synth::SynthesisOptions other_paths = options;
  other_paths.path_options.max_paths_per_pair += 1;
  EXPECT_NE(canonicalize(spec, other_paths, "sha1").key.text, base.key.text);

  EXPECT_NE(canonicalize(spec, options, "sha2").key.text, base.key.text);
  EXPECT_EQ(canonicalize(spec, options, "sha1").key.text, base.key.text);
  EXPECT_EQ(canonicalize(spec, options, "sha1").key.hash, base.key.hash);
}

TEST(CanonicalizeRequestTest, NameAndDeadlineDoNotAffectTheKey) {
  ProblemSpec spec = base_spec();
  synth::SynthesisOptions options;
  const CanonicalRequest base = canonicalize(spec, options, "sha1");

  spec.name = "something-else";
  synth::SynthesisOptions with_deadline = options;
  with_deadline.engine_params.deadline = support::Deadline::after(1.0);
  with_deadline.engine_params.jobs = 7;
  EXPECT_EQ(canonicalize(spec, with_deadline, "sha1").key.text,
            base.key.text);
}

}  // namespace
}  // namespace mlsi::serve
