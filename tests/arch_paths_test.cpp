// Tests for pin-to-pin path enumeration: shortest-only semantics, simplicity,
// determinism, the no-through-pin rule, the corner-coverage property the
// paper's Nodes-only constraints rely on, and the shared switch model.

#include <gtest/gtest.h>

#include <algorithm>
#include <set>
#include <thread>
#include <vector>

#include "arch/crossbar.hpp"
#include "arch/gru.hpp"
#include "arch/paths.hpp"
#include "arch/spine.hpp"

namespace mlsi::arch {
namespace {

TEST(PathsTest, EveryOrderedPairHasPaths) {
  const SwitchTopology topo = make_crossbar(2);
  const PathSet paths = enumerate_paths(topo);
  for (const int from : topo.pins_clockwise()) {
    for (const int to : topo.pins_clockwise()) {
      if (from == to) continue;
      EXPECT_FALSE(paths.between(from, to).empty())
          << topo.vertex(from).name << " -> " << topo.vertex(to).name;
    }
  }
}

TEST(PathsTest, PathsAreSimpleAndConnected) {
  const SwitchTopology topo = make_crossbar(3);
  const PathSet paths = enumerate_paths(topo);
  for (const Path& p : paths.paths()) {
    ASSERT_EQ(p.vertices.size(), p.segments.size() + 1);
    EXPECT_EQ(p.vertices.front(), p.from_pin);
    EXPECT_EQ(p.vertices.back(), p.to_pin);
    std::set<int> unique(p.vertices.begin(), p.vertices.end());
    EXPECT_EQ(unique.size(), p.vertices.size()) << "path revisits a vertex";
    double length = 0.0;
    for (std::size_t i = 0; i < p.segments.size(); ++i) {
      const Segment& s = topo.segment(p.segments[i]);
      EXPECT_TRUE(s.touches(p.vertices[i]) && s.touches(p.vertices[i + 1]));
      length += s.length_um;
    }
    EXPECT_NEAR(length, p.length_um, 1e-6);
  }
}

TEST(PathsTest, NoPathPassesThroughAThirdPin) {
  const SwitchTopology topo = make_crossbar(2);
  const PathSet paths = enumerate_paths(topo);
  for (const Path& p : paths.paths()) {
    for (std::size_t i = 1; i + 1 < p.vertices.size(); ++i) {
      EXPECT_NE(topo.vertex(p.vertices[i]).kind, VertexKind::kPin)
          << "interior pin in path " << p.id;
    }
  }
}

TEST(PathsTest, ZeroSlackKeepsOnlyShortest) {
  const SwitchTopology topo = make_crossbar(2);
  const PathSet paths = enumerate_paths(topo);
  for (const int from : topo.pins_clockwise()) {
    for (const int to : topo.pins_clockwise()) {
      if (from == to) continue;
      const auto& ids = paths.between(from, to);
      const double shortest = paths.path(ids.front()).length_um;
      for (const int id : ids) {
        EXPECT_NEAR(paths.path(id).length_um, shortest, 1e-6);
      }
    }
  }
}

TEST(PathsTest, SlackAddsLongerAlternatives) {
  const SwitchTopology topo = make_crossbar(2);
  const PathSet tight = enumerate_paths(topo, {});
  PathEnumOptions slack_opt;
  slack_opt.slack_um = 1600.0;  // two extra grid edges
  slack_opt.max_paths_per_pair = 64;
  const PathSet slack = enumerate_paths(topo, slack_opt);
  EXPECT_GT(slack.size(), tight.size());
}

TEST(PathsTest, CapLimitsPerPair) {
  const SwitchTopology topo = make_crossbar(4);
  PathEnumOptions opt;
  opt.max_paths_per_pair = 3;
  const PathSet paths = enumerate_paths(topo, opt);
  for (const int from : topo.pins_clockwise()) {
    for (const int to : topo.pins_clockwise()) {
      if (from == to) continue;
      EXPECT_LE(paths.between(from, to).size(), 3u);
    }
  }
}

TEST(PathsTest, Deterministic) {
  const SwitchTopology topo = make_crossbar(3);
  const PathSet a = enumerate_paths(topo);
  const PathSet b = enumerate_paths(topo);
  ASSERT_EQ(a.size(), b.size());
  for (int i = 0; i < a.size(); ++i) {
    EXPECT_EQ(a.path(i).vertices, b.path(i).vertices);
  }
}

TEST(PathsTest, MembershipHelpers) {
  const SwitchTopology topo = make_crossbar(2);
  const PathSet paths = enumerate_paths(topo);
  const Path& p = paths.path(0);
  for (const int v : p.vertices) EXPECT_TRUE(p.uses_vertex(v));
  for (const int s : p.segments) EXPECT_TRUE(p.uses_segment(s));
  EXPECT_FALSE(p.uses_vertex(-1));
  EXPECT_FALSE(p.uses_segment(topo.num_segments() + 5));
}

TEST(PathsTest, VertexMasksHoldExactlyThePathVertices) {
  // One word per path on the 16-pin crossbar (41 vertices); two on an
  // 8-unit GRU chain (69 vertices), where pins sit past bit 63.
  PathEnumOptions slack;
  slack.slack_um = 800.0;
  const SwitchTopology crossbar = make_crossbar(4);
  const SwitchTopology chain = make_gru(8);
  const struct {
    const SwitchTopology& topo;
    PathEnumOptions options;
    int words;
  } cases[] = {{crossbar, {}, 1}, {chain, slack, 2}};
  for (const auto& c : cases) {
    const PathSet paths = enumerate_paths(c.topo, c.options);
    ASSERT_EQ(paths.mask_words(), c.words) << c.topo.name();
    for (const Path& p : paths.paths()) {
      const auto mask = paths.vertex_mask(p.id);
      ASSERT_EQ(mask.size(), static_cast<std::size_t>(c.words));
      for (int v = 0; v < 64 * c.words; ++v) {  // padding bits included
        const bool bit =
            ((mask[static_cast<std::size_t>(v) / 64] >> (v % 64)) & 1) != 0;
        EXPECT_EQ(bit, v < c.topo.num_vertices() && p.uses_vertex(v))
            << "path " << p.id << " vertex " << v;
      }
    }
  }
}

TEST(PathsTest, SegmentMasksHoldExactlyThePathSegments) {
  // The 8-, 12- and 16-pin crossbars have 2k(k+1) grid edges and 4k pin
  // stubs, 20, 36 and 56 segments: one mask word each. The 8-unit GRU
  // chain has more than 64, so its masks take two words.
  PathEnumOptions slack;
  slack.slack_um = 800.0;
  const SwitchTopology x8 = make_crossbar(2);
  const SwitchTopology x12 = make_crossbar(3);
  const SwitchTopology x16 = make_crossbar(4);
  const SwitchTopology chain = make_gru(8);
  const struct {
    const SwitchTopology& topo;
    PathEnumOptions options;
    int segments;  ///< 0: not pinned
    int words;
  } cases[] = {{x8, {}, 20, 1}, {x12, {}, 36, 1}, {x16, {}, 56, 1},
               {chain, slack, 0, 2}};
  for (const auto& c : cases) {
    if (c.segments > 0) {
      EXPECT_EQ(c.topo.num_segments(), c.segments);
    }
    const PathSet paths = enumerate_paths(c.topo, c.options);
    ASSERT_EQ(paths.segment_mask_words(), c.words) << c.topo.name();
    for (const Path& p : paths.paths()) {
      const auto mask = paths.segment_mask(p.id);
      ASSERT_EQ(mask.size(), static_cast<std::size_t>(c.words));
      for (int s = 0; s < 64 * c.words; ++s) {  // padding bits included
        const bool bit =
            ((mask[static_cast<std::size_t>(s) / 64] >> (s % 64)) & 1) != 0;
        EXPECT_EQ(bit, s < c.topo.num_segments() && p.uses_segment(s))
            << "path " << p.id << " segment " << s;
      }
    }
  }
}

TEST(PathsTest, LengthClassesPartitionTheSegmentsByLength) {
  // Each segment sits in exactly one class, the one of its exact length,
  // and no two classes share a length. Every crossbar has two: 500-um pin
  // stubs and 800-um grid edges.
  const SwitchTopology x8 = make_crossbar(2);
  const SwitchTopology x16 = make_crossbar(4);
  const SwitchTopology chain = make_gru(8);
  for (const SwitchTopology* topo : {&x8, &x16, &chain}) {
    const PathSet paths = enumerate_paths(*topo);
    const auto& classes = paths.length_classes();
    std::vector<double> lengths;
    for (const SegmentLengthClass& cls : classes) {
      ASSERT_EQ(cls.mask.size(),
                static_cast<std::size_t>(paths.segment_mask_words()));
      lengths.push_back(cls.length_um);
    }
    std::sort(lengths.begin(), lengths.end());
    EXPECT_EQ(std::adjacent_find(lengths.begin(), lengths.end()), lengths.end())
        << topo->name();
    if (topo != &chain) {
      EXPECT_EQ(lengths, (std::vector<double>{500.0, 800.0})) << topo->name();
    }
    for (int s = 0; s < 64 * paths.segment_mask_words(); ++s) {
      int holders = 0;
      for (const SegmentLengthClass& cls : classes) {
        if (((cls.mask[static_cast<std::size_t>(s) / 64] >> (s % 64)) & 1) == 0) {
          continue;
        }
        ++holders;
        ASSERT_LT(s, topo->num_segments()) << topo->name();  // no padding bit
        EXPECT_EQ(cls.length_um, topo->segment(s).length_um)
            << topo->name() << " segment " << s;
      }
      EXPECT_EQ(holders, s < topo->num_segments() ? 1 : 0)
          << topo->name() << " segment " << s;
    }
  }
}

TEST(PathsTest, SpineHasUniquePaths) {
  const SwitchTopology topo = make_spine(6);
  const PathSet paths = enumerate_paths(topo);
  for (const int from : topo.pins_clockwise()) {
    for (const int to : topo.pins_clockwise()) {
      if (from == to) continue;
      // A tree admits exactly one simple path per pair.
      EXPECT_EQ(paths.between(from, to).size(), 1u);
    }
  }
}

/// The constraint model restricts contamination/collision checks to the
/// paper's `Nodes` (non-corner junctions). That is only sound if two paths
/// can never share a corner or a segment without also sharing a node or a
/// pin. Verify the property exhaustively over all candidate path pairs.
class CornerCoverageTest : public ::testing::TestWithParam<int> {};

TEST_P(CornerCoverageTest, CornerOrSegmentSharingImpliesNodeOrPinSharing) {
  const SwitchTopology topo = make_crossbar(GetParam());
  PathEnumOptions opt;
  opt.slack_um = 800.0;  // include some non-shortest paths in the check
  opt.max_paths_per_pair = 6;
  const PathSet paths = enumerate_paths(topo, opt);
  const auto shares = [](const std::vector<int>& a, const std::vector<int>& b) {
    for (std::size_t i = 0, j = 0; i < a.size() && j < b.size();) {
      if (a[i] == b[j]) return true;
      if (a[i] < b[j]) {
        ++i;
      } else {
        ++j;
      }
    }
    return false;
  };
  int checked = 0;
  for (int i = 0; i < paths.size(); ++i) {
    for (int j = i + 1; j < paths.size(); ++j) {
      const Path& a = paths.path(i);
      const Path& b = paths.path(j);
      // Shared corner or shared segment?
      bool corner_or_segment = shares(a.segment_set, b.segment_set);
      if (!corner_or_segment) {
        for (const int v : a.vertex_set) {
          if (topo.vertex(v).kind == VertexKind::kCorner &&
              b.uses_vertex(v)) {
            corner_or_segment = true;
            break;
          }
        }
      }
      if (!corner_or_segment) continue;
      ++checked;
      // Then a constrained node or a pin must also be shared.
      bool node_or_pin = false;
      for (const int v : a.vertex_set) {
        if (topo.vertex(v).kind != VertexKind::kCorner && b.uses_vertex(v)) {
          node_or_pin = true;
          break;
        }
      }
      EXPECT_TRUE(node_or_pin) << "paths " << i << " and " << j
                               << " meet only at a corner";
    }
  }
  EXPECT_GT(checked, 0);  // the property was actually exercised
}

INSTANTIATE_TEST_SUITE_P(Sizes, CornerCoverageTest, ::testing::Values(2, 3));

// The model map is process-wide, so each test below uses path options no
// other test in this binary asks for.

TEST(SwitchModelTest, EqualKeysShareOneModel) {
  PathEnumOptions options;
  options.max_paths_per_pair = 9;
  const SwitchModel& first = switch_model(3, options);
  EXPECT_EQ(&switch_model(3, options), &first);
  EXPECT_EQ(&first.paths.topology(), &first.topology);
  EXPECT_EQ(first.topology.num_pins(), 12);
  // Another size is another model.
  EXPECT_NE(&switch_model(2, options), &first);
}

TEST(SwitchModelTest, OtherPathOptionsGetAnotherModel) {
  PathEnumOptions one;
  one.max_paths_per_pair = 1;
  PathEnumOptions two = one;
  two.max_paths_per_pair = 2;
  PathEnumOptions slack = one;
  slack.slack_um = 800.0;
  const SwitchModel& a = switch_model(2, one);
  const SwitchModel& b = switch_model(2, two);
  EXPECT_NE(&b, &a);
  EXPECT_NE(&switch_model(2, slack), &a);
  EXPECT_EQ(a.paths.size(), 8 * 7);
  EXPECT_GT(b.paths.size(), a.paths.size());
}

TEST(SwitchModelTest, RacingFirstCallersGetOneModel) {
  PathEnumOptions options;
  options.max_paths_per_pair = 11;
  std::vector<const SwitchModel*> seen(8, nullptr);
  std::vector<std::thread> threads;
  for (std::size_t t = 0; t < seen.size(); ++t) {
    threads.emplace_back([&seen, &options, t] {
      seen[t] = &switch_model(4, options);
    });
  }
  for (std::thread& thread : threads) thread.join();
  for (const SwitchModel* model : seen) EXPECT_EQ(model, seen.front());
  EXPECT_EQ(seen.front()->topology.num_pins(), 16);
}

}  // namespace
}  // namespace mlsi::arch
