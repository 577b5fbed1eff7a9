#include <gtest/gtest.h>

#include <cmath>

#include "core/lower_bound.h"
#include "graph/generators.h"
#include "graph/scc.h"
#include "rt/metric.h"
#include "util/rng.h"

namespace rtr {
namespace {

TEST(Generators, RandomHasRequestedDensity) {
  Rng rng(1);
  Digraph g = random_strongly_connected(200, 4.0, 10, rng).freeze();
  EXPECT_TRUE(is_strongly_connected(g));
  EXPECT_GE(g.edge_count(), 200);                 // at least the backbone
  EXPECT_LE(g.edge_count(), 4 * 200 + 8);         // no overshoot
  EXPECT_GE(g.edge_count(), 4 * 200 * 9 / 10);    // near target
}

TEST(Generators, WeightsWithinRange) {
  Rng rng(2);
  Digraph g = random_strongly_connected(100, 3.0, 7, rng).freeze();
  for (NodeId u = 0; u < 100; ++u) {
    for (const Edge& e : g.out_edges(u)) {
      EXPECT_GE(e.weight, 1);
      EXPECT_LE(e.weight, 7);
    }
  }
}

TEST(Generators, GridDimensionsRoundedToEven) {
  Rng rng(3);
  Digraph g = one_way_grid(5, 5, 4, rng).freeze();  // becomes 6x6
  EXPECT_EQ(g.node_count(), 36);
  EXPECT_TRUE(is_strongly_connected(g));
}

TEST(Generators, GridIsStronglyConnectedAcrossSizes) {
  Rng rng(4);
  for (NodeId side : {2, 4, 8, 10}) {
    Digraph g = one_way_grid(side, side, 3, rng).freeze();
    EXPECT_TRUE(is_strongly_connected(g)) << side;
  }
}

TEST(Generators, RingChordCount) {
  Rng rng(5);
  Digraph g = ring_with_chords(50, 20, 5, rng).freeze();
  EXPECT_TRUE(is_strongly_connected(g));
  EXPECT_EQ(g.edge_count(), 50 + 20);
}

TEST(Generators, ScaleFreeHasHeavyTail) {
  Rng rng(6);
  Digraph g = scale_free(300, 3, 4, rng).freeze();
  EXPECT_TRUE(is_strongly_connected(g));
  // In-degree spread: max should well exceed the mean under preferential
  // attachment.
  std::vector<int> indeg(300, 0);
  for (NodeId u = 0; u < 300; ++u) {
    for (const Edge& e : g.out_edges(u)) ++indeg[static_cast<std::size_t>(e.to)];
  }
  int mx = 0;
  for (int d : indeg) mx = std::max(mx, d);
  double mean = static_cast<double>(g.edge_count()) / 300.0;
  EXPECT_GT(mx, 2 * mean);
}

TEST(Generators, BidirectedIsDistanceSymmetric) {
  Rng rng(7);
  Digraph g = bidirected_random(80, 3.0, 6, rng).freeze();
  EXPECT_TRUE(is_strongly_connected(g));
  DenseRoundtripMetric m(g);
  EXPECT_TRUE(is_distance_symmetric(m));
}

TEST(Generators, LowerBoundGadgetSymmetricAndConnected) {
  Rng rng(8);
  Digraph g = lower_bound_gadget(40, 0.3, rng).freeze();
  EXPECT_TRUE(is_strongly_connected(g));
  DenseRoundtripMetric m(g);
  EXPECT_TRUE(is_distance_symmetric(m));
  // Matched pairs are at distance <= 2; some bipartite pair should be at
  // distance exactly 1 (a present adjacency bit) at density 0.3.
  bool found_adjacent = false;
  for (NodeId i = 0; i < 20 && !found_adjacent; ++i) {
    for (NodeId j = 20; j < 40 && !found_adjacent; ++j) {
      if (m.d(i, j) == 1) found_adjacent = true;
    }
  }
  EXPECT_TRUE(found_adjacent);
}

TEST(Generators, CompleteDigraphEdgeCount) {
  Rng rng(9);
  Digraph g = complete_digraph(12, 3, rng).freeze();
  EXPECT_EQ(g.edge_count(), 12 * 11);
  EXPECT_TRUE(is_strongly_connected(g));
}

TEST(Generators, MakeFamilyApproximatesRequestedSize) {
  Rng rng(10);
  for (Family f : all_families()) {
    Digraph g = make_family(f, 144, 8, rng).freeze();
    EXPECT_GE(g.node_count(), 100) << family_name(f);
    EXPECT_LE(g.node_count(), 200) << family_name(f);
  }
}

TEST(Generators, RejectsDegenerateSizes) {
  Rng rng(11);
  EXPECT_THROW((void)random_strongly_connected(1, 2.0, 3, rng), std::invalid_argument);
  EXPECT_THROW(ring_with_chords(1, 0, 1, rng), std::invalid_argument);
  EXPECT_THROW(scale_free(2, 1, 1, rng), std::invalid_argument);
  EXPECT_THROW(complete_digraph(1, 1, rng), std::invalid_argument);
}

// One parser serves every tool's --family flag: it inverts family_name and
// keeps each short spelling any tool has ever accepted.
TEST(Generators, ParseFamilyInvertsFamilyNameAndTakesToolSpellings) {
  for (const Family f : all_families()) {
    EXPECT_EQ(parse_family(family_name(f)), f) << family_name(f);
  }
  EXPECT_EQ(parse_family("ring"), Family::kRing);
  EXPECT_EQ(parse_family("ring+chords"), Family::kRing);
  for (const char* spelling : {"scale-free", "scalefree", "scale_free",
                               "power-law"}) {
    EXPECT_EQ(parse_family(spelling), Family::kScaleFree) << spelling;
  }
  EXPECT_THROW((void)parse_family("torus"), std::invalid_argument);
  EXPECT_THROW((void)parse_family(""), std::invalid_argument);
}

}  // namespace
}  // namespace rtr
