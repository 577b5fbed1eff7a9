#include <gtest/gtest.h>

#include <algorithm>
#include <cmath>
#include <set>
#include <string>
#include <tuple>

#include "cover/sparse_cover.h"
#include "graph/scc.h"
#include "rt/metric.h"
#include "test_support.h"

namespace rtr {
namespace {

using ::rtr::testing::Instance;
using ::rtr::testing::make_instance;

struct CoverParam {
  Family family;
  NodeId n;
  int k;
  // Radius as a fraction of RTDiam (so the sweep is size-independent).
  double diam_fraction;
  std::uint64_t seed;
};

class SparseCoverTest : public ::testing::TestWithParam<CoverParam> {
 protected:
  void Build() {
    const auto& p = GetParam();
    inst_ = make_instance(p.family, p.n, 6, p.seed);
    d_ = std::max<Dist>(
        1, static_cast<Dist>(p.diam_fraction *
                             static_cast<double>(inst_.metric->rt_diameter())));
    cover_ = build_sparse_cover(*inst_.metric, p.k, d_);
  }

  Instance inst_;
  Dist d_ = 0;
  SparseCoverResult cover_;
};

TEST_P(SparseCoverTest, Theorem10Property1_HomeClusterContainsBall) {
  Build();
  for (NodeId v = 0; v < inst_.n(); ++v) {
    const std::int32_t home = cover_.home_of[static_cast<std::size_t>(v)];
    ASSERT_GE(home, 0);
    const auto& members = cover_.clusters[static_cast<std::size_t>(home)].members;
    for (NodeId w : inst_.metric->ball(v, d_)) {
      EXPECT_TRUE(std::binary_search(members.begin(), members.end(), w))
          << "ball of " << v << " leaks " << w;
    }
  }
}

TEST_P(SparseCoverTest, Theorem10Property2_InducedRadiusBound) {
  Build();
  const auto& p = GetParam();
  const Digraph rev = inst_.graph.reversed();
  for (const auto& cluster : cover_.clusters) {
    std::vector<char> mask(static_cast<std::size_t>(inst_.n()), 0);
    for (NodeId v : cluster.members) mask[static_cast<std::size_t>(v)] = 1;
    ASSERT_TRUE(is_strongly_connected_subgraph(inst_.graph, mask));
    auto induced = induced_roundtrip_from(inst_.graph, rev, cluster.center, mask);
    for (NodeId v : cluster.members) {
      ASSERT_LT(induced[static_cast<std::size_t>(v)], kInfDist);
      EXPECT_LE(induced[static_cast<std::size_t>(v)], (2 * p.k - 1) * d_)
          << "cluster radius blowup exceeds 2k-1";
    }
  }
}

TEST_P(SparseCoverTest, Theorem10Property3_OverlapBound) {
  Build();
  const auto& p = GetParam();
  const double bound =
      2.0 * p.k * std::pow(static_cast<double>(inst_.n()), 1.0 / p.k);
  for (std::int32_t c : cover_.membership_counts(inst_.n())) {
    EXPECT_LE(static_cast<double>(c), bound);
  }
  // Lemma 12's round bound implies the same quantity bounds rounds.
  EXPECT_LE(static_cast<double>(cover_.rounds), bound);
}

INSTANTIATE_TEST_SUITE_P(
    Sweep, SparseCoverTest,
    ::testing::Values(CoverParam{Family::kRandom, 60, 2, 0.25, 1},
                      CoverParam{Family::kRandom, 60, 3, 0.25, 2},
                      CoverParam{Family::kRandom, 60, 2, 0.75, 3},
                      CoverParam{Family::kGrid, 64, 2, 0.3, 4},
                      CoverParam{Family::kRing, 48, 3, 0.2, 5},
                      CoverParam{Family::kScaleFree, 60, 2, 0.3, 6},
                      CoverParam{Family::kBidirected, 50, 4, 0.3, 7}),
    [](const ::testing::TestParamInfo<CoverParam>& info) {
      return family_name(info.param.family).substr(0, 4) + "_n" +
             std::to_string(info.param.n) + "_k" + std::to_string(info.param.k) +
             "_s" + std::to_string(info.param.seed);
    });

// Differential check against the seed's erase-based PartialCover: the
// lazily skipping library cover must agree field for field.  The cover
// depends on the radius only through the balls, which change only at
// roundtrip-distance values, so sweeping every distinct value up to the
// diameter (plus 0) covers every radius.
class SparseCoverOracleTest
    : public ::testing::TestWithParam<std::tuple<Family, NodeId, int>> {};

TEST_P(SparseCoverOracleTest, MatchesEraseBasedReferenceAtEveryRadius) {
  const auto [family, n, k] = GetParam();
  const auto inst = ::rtr::testing::shared_instance(family, n, 6, 17);
  const RoundtripMetric& metric = *inst->metric;
  std::set<Dist> radii{0};
  for (NodeId u = 0; u < inst->n(); ++u) {
    for (NodeId v = 0; v < inst->n(); ++v) radii.insert(metric.r(u, v));
  }
  for (const Dist d : radii) {
    const SparseCoverResult got = build_sparse_cover(metric, k, d);
    const SparseCoverResult want =
        ::rtr::testing::sparse_cover_reference(metric, k, d);
    ASSERT_EQ(got.d, want.d);
    ASSERT_EQ(got.k, want.k);
    ASSERT_EQ(got.rounds, want.rounds) << "d=" << d;
    ASSERT_EQ(got.home_of, want.home_of) << "d=" << d;
    ASSERT_EQ(got.clusters.size(), want.clusters.size()) << "d=" << d;
    for (std::size_t c = 0; c < got.clusters.size(); ++c) {
      ASSERT_EQ(got.clusters[c].center, want.clusters[c].center)
          << "d=" << d << " cluster " << c;
      ASSERT_EQ(got.clusters[c].members, want.clusters[c].members)
          << "d=" << d << " cluster " << c;
      ASSERT_EQ(got.clusters[c].absorbed, want.clusters[c].absorbed)
          << "d=" << d << " cluster " << c;
    }
  }
}

INSTANTIATE_TEST_SUITE_P(
    Families, SparseCoverOracleTest,
    ::testing::Combine(::testing::Values(Family::kRandom, Family::kGrid,
                                         Family::kRing, Family::kScaleFree),
                       ::testing::Values(16, 64, 256), ::testing::Values(2, 3)),
    [](const auto& info) {
      std::string name = family_name(std::get<0>(info.param)).substr(0, 4);
      for (auto& c : name) {
        if (c == '-' || c == '+') c = '_';
      }
      return name + "_n" + std::to_string(std::get<1>(info.param)) + "_k" +
             std::to_string(std::get<2>(info.param));
    });

TEST(SparseCover, TinyRadiusYieldsSingletonishClusters) {
  Instance inst = make_instance(Family::kRandom, 40, 6, 9);
  // Radius below the minimum roundtrip (2): every ball is a singleton.
  SparseCoverResult cover = build_sparse_cover(*inst.metric, 2, 1);
  for (NodeId v = 0; v < inst.n(); ++v) {
    const auto home = cover.home_of[static_cast<std::size_t>(v)];
    const auto& members = cover.clusters[static_cast<std::size_t>(home)].members;
    EXPECT_TRUE(std::binary_search(members.begin(), members.end(), v));
  }
}

TEST(SparseCover, DiameterRadiusYieldsOneClusterPerRound) {
  Instance inst = make_instance(Family::kRandom, 40, 6, 10);
  SparseCoverResult cover =
      build_sparse_cover(*inst.metric, 2, inst.metric->rt_diameter());
  // Every seed ball is V, so the very first merge covers everything.
  EXPECT_EQ(cover.rounds, 1);
  ASSERT_EQ(cover.clusters.size(), 1u);
  EXPECT_EQ(static_cast<NodeId>(cover.clusters[0].members.size()), inst.n());
}

TEST(SparseCover, RejectsBadArguments) {
  Instance inst = make_instance(Family::kRandom, 20, 4, 11);
  EXPECT_THROW(build_sparse_cover(*inst.metric, 1, 4), std::invalid_argument);
  EXPECT_THROW(build_sparse_cover(*inst.metric, 2, -1), std::invalid_argument);
}

}  // namespace
}  // namespace rtr
