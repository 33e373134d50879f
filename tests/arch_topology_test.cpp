// Tests for the switch topologies: crossbar reconstruction fidelity (the
// paper's segment names and counts), spine baseline structure, design-rule
// compliance of the generated geometry.

#include <gtest/gtest.h>

#include <set>

#include "arch/crossbar.hpp"
#include "arch/design_rules.hpp"
#include "arch/gru.hpp"
#include "arch/spine.hpp"

namespace mlsi::arch {
namespace {

TEST(CrossbarTest, EightPinMatchesPaperCounts) {
  const SwitchTopology topo = make_crossbar(2);
  // "There are 20 flow segments in the 8-pin switch."
  EXPECT_EQ(topo.num_segments(), 20);
  EXPECT_EQ(topo.num_pins(), 8);
  // Nodes of an 8-pin switch are {C, T, R, B, L}.
  EXPECT_EQ(topo.nodes().size(), 5u);
  std::set<std::string> node_names;
  for (const int n : topo.nodes()) node_names.insert(topo.vertex(n).name);
  EXPECT_EQ(node_names, (std::set<std::string>{"C", "T", "R", "B", "L"}));
}

TEST(CrossbarTest, EightPinPaperSegmentNamesExist) {
  const SwitchTopology topo = make_crossbar(2);
  // Every segment name the thesis text mentions.
  for (const char* name : {"T1-TL", "TL-T", "T-T2", "C-R", "L-C", "T-C",
                           "R-R2", "TR-R", "C-B"}) {
    EXPECT_TRUE(topo.segment_by_name(name).has_value()) << name;
  }
  // Reversed spellings resolve too.
  EXPECT_TRUE(topo.segment_by_name("T-TL").has_value());
  EXPECT_FALSE(topo.segment_by_name("T1-BR").has_value());
}

TEST(CrossbarTest, EightPinClockwiseOrderMatchesPaper) {
  const SwitchTopology topo = make_crossbar(2);
  const char* expected[] = {"T1", "T2", "R1", "R2", "B2", "B1", "L2", "L1"};
  ASSERT_EQ(topo.pins_clockwise().size(), 8u);
  for (int i = 0; i < 8; ++i) {
    EXPECT_EQ(topo.vertex(topo.pins_clockwise()[i]).name, expected[i]) << i;
  }
}

class CrossbarSizeTest : public ::testing::TestWithParam<int> {};

TEST_P(CrossbarSizeTest, StructuralInvariants) {
  const int k = GetParam();
  const SwitchTopology topo = make_crossbar(k);
  EXPECT_TRUE(topo.validate().ok()) << topo.validate().to_string();
  EXPECT_EQ(topo.num_pins(), 4 * k);
  // (k+1)^2 grid vertices + 4k pins.
  EXPECT_EQ(topo.num_vertices(), (k + 1) * (k + 1) + 4 * k);
  // 2k(k+1) grid edges + 4k pin stubs.
  EXPECT_EQ(topo.num_segments(), 2 * k * (k + 1) + 4 * k);
  // Nodes = grid vertices minus the 4 corners.
  EXPECT_EQ(static_cast<int>(topo.nodes().size()), (k + 1) * (k + 1) - 4);
  // Exactly 4 corners.
  int corners = 0;
  for (const Vertex& v : topo.vertices()) {
    if (v.kind == VertexKind::kCorner) ++corners;
  }
  EXPECT_EQ(corners, 4);
  // Every pin has degree 1, every corner degree 3.
  for (const Vertex& v : topo.vertices()) {
    if (v.kind == VertexKind::kPin) {
      EXPECT_EQ(topo.incident(v.id).size(), 1u);
    } else if (v.kind == VertexKind::kCorner) {
      EXPECT_EQ(topo.incident(v.id).size(), 3u);
    }
  }
  // All segments carry candidate valves in the unreduced crossbar.
  for (const Segment& s : topo.segments()) EXPECT_TRUE(s.has_valve);
}

TEST_P(CrossbarSizeTest, QuarterTurnSymmetry) {
  // Rotating the clockwise pin order by a quarter turn must preserve the
  // multiset of pin-to-pin shortest distances (the CP engine's symmetry
  // reduction depends on this).
  const int k = GetParam();
  const SwitchTopology topo = make_crossbar(k);
  const auto& pins = topo.pins_clockwise();
  const int p = static_cast<int>(pins.size());
  // Adjacent-pin geometric distances around the ring, compared with a
  // quarter-turn shift.
  for (int i = 0; i < p; ++i) {
    const double d1 = distance(topo.vertex(pins[i]).pos,
                               topo.vertex(pins[(i + 1) % p]).pos);
    const double d2 =
        distance(topo.vertex(pins[(i + p / 4) % p]).pos,
                 topo.vertex(pins[(i + 1 + p / 4) % p]).pos);
    EXPECT_NEAR(d1, d2, 1e-6);
  }
}

TEST_P(CrossbarSizeTest, MeetsStanfordSpacingRules) {
  const SwitchTopology topo = make_crossbar(GetParam());
  const auto violations = check_channel_spacing(topo);
  EXPECT_TRUE(violations.empty())
      << violations.size() << " spacing violations, first clearance "
      << (violations.empty() ? 0.0 : violations.front().clearance_um);
}

INSTANTIATE_TEST_SUITE_P(Sizes, CrossbarSizeTest, ::testing::Values(2, 3, 4));

TEST(CrossbarTest, TightGeometryViolatesSpacing) {
  // Squeezing the pitch below channel width + spacing must be detected.
  CrossbarGeometry tight;
  tight.pitch_um = 150.0;
  tight.stub_um = 120.0;
  const SwitchTopology topo = make_crossbar(2, tight);
  EXPECT_FALSE(check_channel_spacing(topo).empty());
}

TEST(CrossbarTest, LengthsMatchGeometry) {
  CrossbarGeometry g;
  g.pitch_um = 800.0;
  g.stub_um = 500.0;
  const SwitchTopology topo = make_crossbar(2, g);
  // 12 grid edges * 0.8 mm + 8 stubs * 0.5 mm = 13.6 mm.
  EXPECT_NEAR(topo.total_length_mm(), 13.6, 1e-9);
}

TEST(CrossbarTest, RejectsTooSmall) {
  EXPECT_THROW(make_crossbar(1), AssertionError);
}

TEST(SpineTest, StructureMatchesColumbaDrawing) {
  const SwitchTopology topo = make_spine(8);
  EXPECT_TRUE(topo.validate().ok()) << topo.validate().to_string();
  EXPECT_EQ(topo.num_pins(), 8);
  EXPECT_EQ(topo.kind(), TopologyKind::kSpine);
  // 4 junctions spanning 3 spine segments + 8 stubs.
  EXPECT_EQ(topo.num_segments(), 3 + 8);
  // Valves only at the stub ends, never along the spine.
  for (const Segment& s : topo.segments()) {
    const bool is_stub = topo.vertex(s.a).kind == VertexKind::kPin ||
                         topo.vertex(s.b).kind == VertexKind::kPin;
    EXPECT_EQ(s.has_valve, is_stub) << s.name;
  }
}

TEST(SpineTest, OddPinCount) {
  const SwitchTopology topo = make_spine(7);
  EXPECT_EQ(topo.num_pins(), 7);
  EXPECT_TRUE(topo.validate().ok());
}

TEST(GruTest, OneUnitMatchesPaperDescription) {
  const SwitchTopology topo = make_gru(1);
  EXPECT_TRUE(topo.validate().ok()) << topo.validate().to_string();
  EXPECT_EQ(topo.num_pins(), 8);
  EXPECT_EQ(topo.kind(), TopologyKind::kGru);
  // Nodes C, N, E, S, W; pins TL,T,TR,R,BR,B,BL,L in clockwise order.
  EXPECT_EQ(topo.nodes().size(), 5u);
  const char* expected[] = {"TL", "T", "TR", "R", "BR", "B", "BL", "L"};
  for (int i = 0; i < 8; ++i) {
    EXPECT_EQ(topo.vertex(topo.pins_clockwise()[i]).name, expected[i]) << i;
  }
  // "flow pins TL and T are connected to the same and only node N".
  const int n = *topo.vertex_by_name("N");
  const int tl = *topo.vertex_by_name("TL");
  const int t = *topo.vertex_by_name("T");
  EXPECT_TRUE(topo.segment_between(tl, n).has_value());
  EXPECT_TRUE(topo.segment_between(t, n).has_value());
  // Diagonals N-W, N-E, S-W, S-E and the four spokes exist.
  for (const char* name : {"N-W", "N-E", "S-W", "S-E", "N-C", "E-C", "S-C",
                           "W-C"}) {
    EXPECT_TRUE(topo.segment_by_name(name).has_value()) << name;
  }
  // 8 stubs + 4 spokes + 4 diagonals.
  EXPECT_EQ(topo.num_segments(), 16);
}

TEST(GruTest, ChainedUnitsShareBoundaryNodes) {
  const SwitchTopology two = make_gru(2);
  EXPECT_EQ(two.num_pins(), 12);
  EXPECT_TRUE(two.vertex_by_name("M1").has_value());  // shared node
  const SwitchTopology three = make_gru(3);
  EXPECT_EQ(three.num_pins(), 16);
  EXPECT_TRUE(three.validate().ok());
}

TEST(GruTest, FortyFiveDegreeJointsFlagged) {
  // The paper's defect 3: the GRU's diagonal joints are ~45 degrees; the
  // crossbar never goes below 90.
  const auto gru_violations = check_junction_angles(make_gru(1));
  EXPECT_FALSE(gru_violations.empty());
  for (const auto& v : gru_violations) {
    EXPECT_LT(v.angle_deg, 60.0);
    EXPECT_GT(v.angle_deg, 20.0);
  }
  EXPECT_TRUE(check_junction_angles(make_crossbar(2)).empty());
  EXPECT_TRUE(check_junction_angles(make_crossbar(3)).empty());
  EXPECT_TRUE(check_junction_angles(make_spine(8)).empty());
}

TEST(TopologyTest, SegmentBetween) {
  const SwitchTopology topo = make_crossbar(2);
  const int t = *topo.vertex_by_name("T");
  const int c = *topo.vertex_by_name("C");
  const int b = *topo.vertex_by_name("B");
  ASSERT_TRUE(topo.segment_between(t, c).has_value());
  EXPECT_EQ(topo.segment(*topo.segment_between(t, c)).name, "T-C");
  EXPECT_FALSE(topo.segment_between(t, b).has_value());
}

TEST(TopologyTest, VertexLookup) {
  const SwitchTopology topo = make_crossbar(3);
  EXPECT_TRUE(topo.vertex_by_name("T1").has_value());
  EXPECT_TRUE(topo.vertex_by_name("TL").has_value());
  EXPECT_FALSE(topo.vertex_by_name("Z9").has_value());
  EXPECT_EQ(topo.pin_index(*topo.vertex_by_name("T1")), 0);
  EXPECT_EQ(topo.pin_index(*topo.vertex_by_name("L1")), 11);
  EXPECT_EQ(topo.pin_index(*topo.vertex_by_name("TL")), -1);
}

}  // namespace
}  // namespace mlsi::arch
