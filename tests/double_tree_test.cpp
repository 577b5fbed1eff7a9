#include <gtest/gtest.h>

#include "cover/double_tree.h"
#include "graph/generators.h"
#include "test_support.h"
#include "util/rng.h"

namespace rtr {
namespace {

using ::rtr::testing::Instance;
using ::rtr::testing::make_instance;

TEST(DoubleTree, HeightEqualsMaxInducedRoundtrip) {
  Instance inst = make_instance(Family::kRandom, 50, 5, 1);
  const Digraph rev = inst.graph.reversed();
  auto members = inst.metric->ball(3, inst.metric->rt_diameter());  // all of V
  DijkstraWorkspace ws;
  DoubleTree dt(inst.graph, rev, 3, members, ws);
  EXPECT_EQ(dt.member_count(), inst.n());
  Dist expected = 0;
  for (NodeId v = 0; v < inst.n(); ++v) {
    expected = std::max(expected, inst.metric->r(3, v));
    const std::int32_t i = dt.index_of(v);
    EXPECT_EQ(dt.down_dist_at(i) + dt.up_dist_at(i), inst.metric->r(3, v))
        << "global tree distances must be exact";
  }
  EXPECT_EQ(dt.rt_height(), expected);
}

TEST(DoubleTree, UpPortsWalkToCenter) {
  Instance inst = make_instance(Family::kGrid, 36, 4, 2);
  const Digraph rev = inst.graph.reversed();
  auto members = inst.metric->ball(0, inst.metric->rt_diameter());
  DijkstraWorkspace ws;
  DoubleTree dt(inst.graph, rev, 0, members, ws);
  for (NodeId v : dt.members()) {
    NodeId at = v;
    Dist walked = 0;
    int guard = 0;
    while (at != 0 && guard++ < 200) {
      const Edge* e =
          inst.graph.edge_by_port(at, dt.up_port_at(dt.index_of(at)));
      ASSERT_NE(e, nullptr);
      walked += e->weight;
      at = e->to;
    }
    EXPECT_EQ(at, 0);
    EXPECT_EQ(walked, dt.up_dist_at(dt.index_of(v)));
  }
}

TEST(DoubleTree, RoundtripBallMembersStayConnected) {
  // Theorem 10's seed balls induce strongly connected subgraphs (every node
  // of a witnessed shortest cycle is in the ball); DoubleTree must accept
  // them for any radius.
  Instance inst = make_instance(Family::kRing, 40, 3, 3);
  const Digraph rev = inst.graph.reversed();
  DijkstraWorkspace ws;
  for (Dist radius : {2, 5, 20, 1000}) {
    for (NodeId v = 0; v < inst.n(); v += 9) {
      auto members = inst.metric->ball(v, radius);
      DoubleTree dt(inst.graph, rev, v, members, ws);
      EXPECT_LE(dt.rt_height(), std::max<Dist>(radius, 0) == 0 ? 0 : radius)
          << "ball double tree higher than the ball radius";
    }
  }
}

TEST(DoubleTree, RejectsCenterOutsideMembers) {
  Instance inst = make_instance(Family::kRandom, 20, 3, 4);
  const Digraph rev = inst.graph.reversed();
  DijkstraWorkspace ws;
  EXPECT_THROW(DoubleTree(inst.graph, rev, 5, {1, 2, 3}, ws),
               std::invalid_argument);
}

TEST(DoubleTree, RejectsDisconnectedMembers) {
  // 0 <-> 1 ... and an unrelated pair; the induced subgraph on {0, 3} is not
  // strongly connected.
  GraphBuilder b(4);
  b.add_edge(0, 1, 1);
  b.add_edge(1, 0, 1);
  b.add_edge(2, 3, 1);
  b.add_edge(3, 2, 1);
  b.add_edge(1, 2, 1);
  b.add_edge(2, 1, 1);
  const Digraph g = b.freeze();
  const Digraph rev = g.reversed();
  DijkstraWorkspace ws;
  EXPECT_THROW(DoubleTree(g, rev, 0, {0, 3}, ws), std::invalid_argument);
}

TEST(DoubleTree, SingletonCluster) {
  Instance inst = make_instance(Family::kRandom, 10, 3, 5);
  const Digraph rev = inst.graph.reversed();
  DijkstraWorkspace ws;
  DoubleTree dt(inst.graph, rev, 4, {4}, ws);
  EXPECT_EQ(dt.rt_height(), 0);
  EXPECT_EQ(dt.member_count(), 1);
  EXPECT_TRUE(dt.contains(4));
  EXPECT_FALSE(dt.contains(5));
}

}  // namespace
}  // namespace rtr
