#include <gtest/gtest.h>

#include <cmath>

#include "cover/hierarchy.h"
#include "test_support.h"

namespace rtr {
namespace {

using ::rtr::testing::FamilyParam;
using ::rtr::testing::Instance;
using ::rtr::testing::make_instance;

class HierarchyTest : public ::testing::TestWithParam<FamilyParam> {
 protected:
  void Build(int k) {
    auto [family, n, seed] = GetParam();
    inst_ = make_instance(family, n, 4, seed);
    rev_ = inst_.graph.reversed();
    hierarchy_ = std::make_unique<CoverHierarchy>(inst_.graph, rev_,
                                                  *inst_.metric, k);
    k_ = k;
  }

  Instance inst_;
  Digraph rev_{0};
  std::unique_ptr<CoverHierarchy> hierarchy_;
  int k_ = 0;
};

TEST_P(HierarchyTest, LevelsCoverTheDiameter) {
  Build(2);
  ASSERT_GT(hierarchy_->level_count(), 0);
  const auto& top = hierarchy_->level(hierarchy_->level_count() - 1);
  EXPECT_GE(top.radius, inst_.metric->rt_diameter());
  for (std::int32_t i = 0; i + 1 < hierarchy_->level_count(); ++i) {
    EXPECT_EQ(hierarchy_->level(i + 1).radius, 2 * hierarchy_->level(i).radius);
  }
  EXPECT_EQ(hierarchy_->level(0).radius, 2);
}

TEST_P(HierarchyTest, Theorem13Property1_HomeTreeSpansBall) {
  Build(3);
  for (std::int32_t i = 0; i < hierarchy_->level_count(); ++i) {
    const Dist radius = hierarchy_->level(i).radius;
    for (NodeId v = 0; v < inst_.n(); ++v) {
      const DoubleTree& home = hierarchy_->tree(hierarchy_->home(v, i));
      for (NodeId w : inst_.metric->ball(v, radius)) {
        EXPECT_TRUE(home.contains(w));
      }
    }
  }
}

TEST_P(HierarchyTest, Theorem13Property2_HeightBound) {
  Build(3);
  for (std::int32_t i = 0; i < hierarchy_->level_count(); ++i) {
    const HierarchyLevel& lvl = hierarchy_->level(i);
    for (const DoubleTree& t : lvl.trees) {
      EXPECT_LE(t.rt_height(), (2 * k_ - 1) * lvl.radius);
    }
  }
}

TEST_P(HierarchyTest, Theorem13Property3_MembershipBound) {
  Build(3);
  const double bound =
      2.0 * k_ * std::pow(static_cast<double>(inst_.n()), 1.0 / k_);
  for (std::int32_t i = 0; i < hierarchy_->level_count(); ++i) {
    const HierarchyLevel& lvl = hierarchy_->level(i);
    for (NodeId v = 0; v < inst_.n(); ++v) {
      EXPECT_LE(static_cast<double>(lvl.trees_of(v).size()), bound);
    }
  }
}

TEST_P(HierarchyTest, LowestHomeContainingRespectsPairDistance) {
  Build(2);
  for (NodeId u = 0; u < inst_.n(); u += 3) {
    for (NodeId v = 0; v < inst_.n(); v += 5) {
      auto ref = hierarchy_->lowest_home_containing(v, u);
      ASSERT_TRUE(ref.has_value());
      // Guarantee: found level's radius < 2 r(u,v) unless level 0.
      const Dist radius = hierarchy_->level(ref->level).radius;
      if (ref->level > 0) {
        EXPECT_LT(radius / 2, std::max<Dist>(inst_.metric->r(u, v), 1) * 2);
      }
      EXPECT_TRUE(hierarchy_->tree(*ref).contains(u));
      EXPECT_TRUE(hierarchy_->tree(*ref).contains(v));
    }
  }
}

INSTANTIATE_TEST_SUITE_P(
    Families, HierarchyTest,
    ::testing::Values(FamilyParam{Family::kRandom, 48, 1},
                      FamilyParam{Family::kGrid, 36, 2},
                      FamilyParam{Family::kRing, 40, 3},
                      FamilyParam{Family::kBidirected, 40, 4}),
    [](const ::testing::TestParamInfo<FamilyParam>& info) {
      return ::rtr::testing::family_param_name(info.param);
    });

}  // namespace
}  // namespace rtr
