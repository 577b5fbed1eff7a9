// Differential conformance suite for binary scheme snapshots: for every
// registered scheme, save -> load must (a) re-save byte-identically and
// (b) answer roundtrip queries exactly like the freshly built scheme -- on
// every graph family and size the scheme builds at (the totality suite).
#include <gtest/gtest.h>

#include <cstdio>
#include <fstream>
#include <vector>

#include "audit/audit.h"
#include "io/snapshot.h"
#include "net/scheme.h"
#include "test_support.h"

namespace rtr {
namespace {

using ::rtr::testing::Instance;
using ::rtr::testing::shared_instance;

std::vector<std::uint8_t> read_file(const std::string& path) {
  std::ifstream in(path, std::ios::binary);
  EXPECT_TRUE(in.good()) << path;
  return std::vector<std::uint8_t>((std::istreambuf_iterator<char>(in)),
                                   std::istreambuf_iterator<char>());
}

std::string temp_path(const std::string& tag) {
  return ::testing::TempDir() + "rtr_snapshot_" + tag + ".rtrsnap";
}

class SnapshotRoundtripTest : public ::testing::TestWithParam<std::string> {};

TEST_P(SnapshotRoundtripTest, ResaveIsByteIdenticalAndAnswersMatch) {
  const std::string scheme_name = GetParam();
  const auto inst = shared_instance(Family::kRandom, 64, 4, 2024);
  const BuildContext ctx = inst->context(7);
  SchemeHandle built(ctx.graph, ctx.names,
                     SchemeRegistry::global().build(scheme_name, ctx));

  const std::string path_a = temp_path(scheme_name + "_a");
  const std::string path_b = temp_path(scheme_name + "_b");
  save_snapshot(path_a, scheme_name, built);

  // Load and re-save: the bytes must not drift (canonical encoding -- all
  // associative state is serialized in sorted order).
  SchemeHandle loaded = load_snapshot(path_a, scheme_name);
  save_snapshot(path_b, scheme_name, loaded);
  EXPECT_EQ(read_file(path_a), read_file(path_b))
      << scheme_name << ": save -> load -> save changed the bytes";

  // The loaded handle serves the identical graph/naming.
  ASSERT_EQ(loaded.graph().node_count(), built.graph().node_count());
  EXPECT_EQ(loaded.names().names(), built.names().names());
  EXPECT_EQ(loaded.name(), built.name());

  // Identical table accounting (the stats are recomputed from the loaded
  // tables, so equality means the tables themselves survived).
  EXPECT_EQ(loaded.table_stats().max_bits(), built.table_stats().max_bits());
  EXPECT_DOUBLE_EQ(loaded.table_stats().mean_bits(),
                   built.table_stats().mean_bits());

  // Differential query check on 500 sampled pairs: loaded vs freshly built.
  Rng rng(99);
  const NodeId n = built.graph().node_count();
  for (int i = 0; i < 500; ++i) {
    auto s = static_cast<NodeId>(rng.index(n));
    auto t = static_cast<NodeId>(rng.index(n));
    if (s == t) t = static_cast<NodeId>((t + 1) % n);
    RouteResult a = built.roundtrip(s, t);
    RouteResult b = loaded.roundtrip(s, t);
    ASSERT_TRUE(a.ok()) << scheme_name << " built failed " << s << "->" << t;
    ASSERT_TRUE(b.ok()) << scheme_name << " loaded failed " << s << "->" << t;
    ASSERT_EQ(a.out_length, b.out_length) << scheme_name << " " << s << "->" << t;
    ASSERT_EQ(a.back_length, b.back_length) << scheme_name << " " << s << "->" << t;
    ASSERT_EQ(a.out_hops, b.out_hops) << scheme_name << " " << s << "->" << t;
    ASSERT_EQ(a.back_hops, b.back_hops) << scheme_name << " " << s << "->" << t;
    ASSERT_EQ(a.max_header_bits, b.max_header_bits)
        << scheme_name << " " << s << "->" << t;
  }

  std::remove(path_a.c_str());
  std::remove(path_b.c_str());
}

/// Route-for-route and stat-for-stat equality of two handles over `pairs`.
void expect_same_answers(const SchemeHandle& want, const SchemeHandle& got,
                         const std::vector<std::pair<NodeId, NodeId>>& pairs,
                         const std::string& what) {
  ASSERT_EQ(got.names().names(), want.names().names()) << what;
  EXPECT_EQ(got.name(), want.name()) << what;
  EXPECT_EQ(got.table_stats().max_bits(), want.table_stats().max_bits())
      << what;
  EXPECT_DOUBLE_EQ(got.table_stats().mean_bits(),
                   want.table_stats().mean_bits())
      << what;
  for (const auto& [s, t] : pairs) {
    const RouteResult a = want.roundtrip(s, t);
    const RouteResult b = got.roundtrip(s, t);
    ASSERT_TRUE(a.ok()) << what << " built failed " << s << "->" << t;
    ASSERT_TRUE(b.ok()) << what << " failed " << s << "->" << t;
    ASSERT_EQ(a.out_length, b.out_length) << what << " " << s << "->" << t;
    ASSERT_EQ(a.back_length, b.back_length) << what << " " << s << "->" << t;
    ASSERT_EQ(a.out_hops, b.out_hops) << what << " " << s << "->" << t;
    ASSERT_EQ(a.back_hops, b.back_hops) << what << " " << s << "->" << t;
    ASSERT_EQ(a.max_header_bits, b.max_header_bits)
        << what << " " << s << "->" << t;
  }
}

/// Snapshot totality: on every family and every n in {8, ..., 128} where
/// the scheme builds, save -> map -> load -> deep audit -> route equivalence
/// against the built handle, and a byte-identical re-save from both loaded
/// handles.  A build that throws (the instance is too small or too sparse
/// for the scheme) skips the case; any failure after a successful build
/// fails the test.
TEST_P(SnapshotRoundtripTest, TotalOverFamiliesAndSizes) {
  const std::string scheme_name = GetParam();
  const std::string path = temp_path(scheme_name + "_total");
  const std::string resaved = temp_path(scheme_name + "_total_resaved");
  int cases = 0;
  for (const Family family : all_families()) {
    for (const NodeId n : {8, 16, 32, 64, 128}) {
      const std::string what =
          scheme_name + " " + family_name(family) + " n=" + std::to_string(n);
      std::shared_ptr<const ::rtr::testing::Instance> inst;
      std::shared_ptr<const Scheme> scheme;
      BuildContext ctx;
      try {
        inst = shared_instance(family, n, 4, 31 + static_cast<std::uint64_t>(n));
        ctx = inst->context(5);
        scheme = SchemeRegistry::global().build(scheme_name, ctx);
      } catch (const std::exception&) {
        continue;  // the scheme does not build here
      }
      ++cases;
      const SchemeHandle built(ctx.graph, ctx.names, scheme);
      save_snapshot(path, scheme_name, built);
      const std::vector<std::uint8_t> bytes = read_file(path);
      const SchemeHandle mapped = map_snapshot(path, scheme_name);
      const SchemeHandle loaded = load_snapshot(path, scheme_name);

      for (const SchemeHandle* h : {&mapped, &loaded}) {
        AuditReport report;
        audit_handle(*h, report);
        EXPECT_TRUE(report.ok()) << what << "\n" << report.summary(false);
      }

      std::vector<std::pair<NodeId, NodeId>> pairs;
      const NodeId nodes = built.graph().node_count();
      if (static_cast<std::int64_t>(nodes) * nodes <= 1024) {
        for (NodeId s = 0; s < nodes; ++s) {
          for (NodeId t = 0; t < nodes; ++t) {
            if (s != t) pairs.emplace_back(s, t);
          }
        }
      } else {
        Rng rng(static_cast<std::uint64_t>(n));
        while (pairs.size() < 300) {
          const auto s = static_cast<NodeId>(rng.index(nodes));
          const auto t = static_cast<NodeId>(rng.index(nodes));
          if (s != t) pairs.emplace_back(s, t);
        }
      }
      expect_same_answers(built, mapped, pairs, what + " mapped");
      expect_same_answers(built, loaded, pairs, what + " loaded");

      for (const SchemeHandle* h : {&mapped, &loaded}) {
        save_snapshot(resaved, scheme_name, *h);
        EXPECT_EQ(read_file(resaved), bytes)
            << what << ": re-save of a "
            << (h == &mapped ? "mapped" : "loaded") << " handle drifted";
      }
    }
  }
  EXPECT_GT(cases, 0) << scheme_name << " built on no instance at all";
  std::remove(path.c_str());
  std::remove(resaved.c_str());
}

INSTANTIATE_TEST_SUITE_P(AllSchemes, SnapshotRoundtripTest,
                         ::testing::ValuesIn(SchemeRegistry::global().names()),
                         [](const auto& info) {
                           std::string name = info.param;
                           for (auto& c : name) {
                             if (c == '-') c = '_';
                           }
                           return name;
                         });

TEST(SnapshotInspect, ReportsHeaderAndSections) {
  const auto inst = shared_instance(Family::kRandom, 32, 3, 11);
  const BuildContext ctx = inst->context(3);
  SchemeHandle built(ctx.graph, ctx.names,
                     SchemeRegistry::global().build("rtz3", ctx));
  const std::string path = temp_path("inspect");
  save_snapshot(path, "rtz3", built);

  const SnapshotFileStatus info = probe_snapshot(path);
  EXPECT_TRUE(info.all_ok()) << info.framing_error;
  EXPECT_EQ(info.version, kSnapshotVersion);
  EXPECT_EQ(info.scheme, "rtz3");
  EXPECT_EQ(info.node_count, inst->n());
  EXPECT_EQ(info.edge_count, inst->graph.edge_count());
  // v2 arena sections: the graph CSR arrays, the name permutation, and at
  // least one scheme-owned section.
  auto has_section = [&](const std::string& name) {
    for (const auto& s : info.sections) {
      if (s.name == name) return true;
    }
    return false;
  };
  EXPECT_TRUE(has_section("graph/offset"));
  EXPECT_TRUE(has_section("graph/edges"));
  EXPECT_TRUE(has_section("names/name_of"));
  bool has_scheme = false;
  for (const auto& s : info.sections) {
    if (s.name.rfind("scheme/", 0) == 0) has_scheme = true;
  }
  EXPECT_TRUE(has_scheme);
  std::uint64_t section_bytes = 0;
  for (const auto& s : info.sections) section_bytes += s.bytes;
  EXPECT_LT(section_bytes, info.file_bytes);

  std::remove(path.c_str());
}

TEST(BuildOrLoad, CacheMissBuildsAndSavesCacheHitSkipsConstruction) {
  const auto inst = shared_instance(Family::kRandom, 40, 4, 5);
  const std::string path = temp_path("build_or_load");
  std::remove(path.c_str());

  int ctx_builds = 0;
  auto make_ctx = [&]() {
    ++ctx_builds;
    return inst->context(13);
  };

  // Miss: builds, saves, returns the built handle.
  SchemeHandle first =
      SchemeRegistry::global().build_or_load("stretch6", make_ctx, path);
  EXPECT_EQ(ctx_builds, 1);
  EXPECT_EQ(probe_snapshot(path).scheme, "stretch6");

  // Hit: construction is skipped entirely -- make_ctx is never called.
  SchemeHandle second =
      SchemeRegistry::global().build_or_load("stretch6", make_ctx, path);
  EXPECT_EQ(ctx_builds, 1) << "cache hit must not rebuild the context";

  Rng rng(21);
  for (int i = 0; i < 100; ++i) {
    auto s = static_cast<NodeId>(rng.index(inst->n()));
    auto t = static_cast<NodeId>(rng.index(inst->n()));
    if (s == t) continue;
    RouteResult a = first.roundtrip(s, t);
    RouteResult b = second.roundtrip(s, t);
    ASSERT_EQ(a.ok(), b.ok());
    ASSERT_EQ(a.roundtrip_length(), b.roundtrip_length());
  }
  std::remove(path.c_str());
}

TEST(BuildOrLoad, MappedModeHitsV2CachesAndFallsBackForV1) {
  const auto inst = shared_instance(Family::kRandom, 40, 4, 5);
  const std::string path = temp_path("mapped_build_or_load");
  std::remove(path.c_str());
  constexpr auto kMapped = SchemeRegistry::SnapshotLoadMode::kMapped;

  int ctx_builds = 0;
  auto make_ctx = [&]() {
    ++ctx_builds;
    return inst->context(13);
  };

  // Miss: builds and saves, exactly like owned mode.
  SchemeHandle first = SchemeRegistry::global().build_or_load(
      "stretch6", make_ctx, path, kMapped);
  EXPECT_EQ(ctx_builds, 1);

  // Hit: the cache serves zero-copy; construction is skipped.
  SchemeHandle second = SchemeRegistry::global().build_or_load(
      "stretch6", make_ctx, path, kMapped);
  EXPECT_EQ(ctx_builds, 1) << "mapped cache hit must not rebuild";
  Rng rng(21);
  for (int i = 0; i < 100; ++i) {
    auto s = static_cast<NodeId>(rng.index(inst->n()));
    auto t = static_cast<NodeId>(rng.index(inst->n()));
    if (s == t) continue;
    const RouteResult a = first.roundtrip(s, t);
    const RouteResult b = second.roundtrip(s, t);
    ASSERT_EQ(a.ok(), b.ok());
    ASSERT_EQ(a.roundtrip_length(), b.roundtrip_length());
  }

  // A cache file of the retired v1 format (same magic, version field 1) is
  // unreadable: a miss in either mode -- rebuild, then overwrite it with the
  // current format.
  for (const auto mode : {kMapped, SchemeRegistry::SnapshotLoadMode::kOwned}) {
    std::vector<std::uint8_t> v1 = read_file(path);
    v1[kArenaMagicSize] = 1;
    {
      std::ofstream out(path, std::ios::binary | std::ios::trunc);
      out.write(reinterpret_cast<const char*>(v1.data()),
                static_cast<std::streamsize>(v1.size()));
    }
    const int before = ctx_builds;
    SchemeHandle third =
        SchemeRegistry::global().build_or_load("stretch6", make_ctx, path, mode);
    EXPECT_EQ(ctx_builds, before + 1) << "a v1 cache file must be a miss";
    EXPECT_EQ(third.graph().node_count(), inst->n());
    EXPECT_EQ(probe_snapshot(path).version, kSnapshotVersion);
  }
  std::remove(path.c_str());
}

TEST(BuildOrLoad, MismatchedCachedSchemeIsRebuiltAndOverwritten) {
  const auto inst = shared_instance(Family::kRandom, 40, 4, 5);
  const std::string path = temp_path("wrong_scheme_cache");
  std::remove(path.c_str());

  // Seed the cache file with a *different* scheme.
  (void)SchemeRegistry::global().build_or_load(
      "rtz3", [&] { return inst->context(13); }, path);
  ASSERT_EQ(probe_snapshot(path).scheme, "rtz3");

  // Asking for fulltable at the same path must rebuild, not serve rtz3.
  SchemeHandle handle = SchemeRegistry::global().build_or_load(
      "fulltable", [&] { return inst->context(13); }, path);
  EXPECT_EQ(handle.name(), "full-table(stretch1)");
  EXPECT_EQ(probe_snapshot(path).scheme, "fulltable");
  std::remove(path.c_str());
}

}  // namespace
}  // namespace rtr
