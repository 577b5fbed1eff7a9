// Corruption at the snapshot I/O boundary must surface as typed exceptions
// -- never a crash, a hang, or a half-loaded scheme (the
// failure_injection_test.cpp philosophy extended from packet headers to the
// persistence layer).
#include <gtest/gtest.h>

#include <cstdio>
#include <fstream>
#include <vector>

#include "io/arena.h"
#include "io/snapshot.h"
#include "io/snapshot_format.h"
#include "net/scheme.h"
#include "test_support.h"

namespace rtr {
namespace {

using ::rtr::testing::shared_instance;

std::vector<std::uint8_t> read_file(const std::string& path) {
  std::ifstream in(path, std::ios::binary);
  EXPECT_TRUE(in.good()) << path;
  return std::vector<std::uint8_t>((std::istreambuf_iterator<char>(in)),
                                   std::istreambuf_iterator<char>());
}

void write_file(const std::string& path, const std::vector<std::uint8_t>& b) {
  std::ofstream out(path, std::ios::binary | std::ios::trunc);
  out.write(reinterpret_cast<const char*>(b.data()),
            static_cast<std::streamsize>(b.size()));
  ASSERT_TRUE(out.good()) << path;
}

class SnapshotCorruptionTest : public ::testing::Test {
 protected:
  void SetUp() override {
    inst_ = shared_instance(Family::kRandom, 32, 3, 7);
    // Per-test path: ctest runs each TEST_F as its own process, possibly in
    // parallel, and they must not race on a shared scratch file.
    path_ = ::testing::TempDir() + "rtr_corruption_" +
            ::testing::UnitTest::GetInstance()->current_test_info()->name() +
            ".rtrsnap";
    const BuildContext ctx = inst_->context(9);
    SchemeHandle built(ctx.graph, ctx.names,
                       SchemeRegistry::global().build("stretch6", ctx));
    save_snapshot(path_, "stretch6", built);
    pristine_ = read_file(path_);
    ASSERT_GT(pristine_.size(), 64u);
  }
  void TearDown() override { std::remove(path_.c_str()); }

  std::shared_ptr<const ::rtr::testing::Instance> inst_;
  std::string path_;
  std::vector<std::uint8_t> pristine_;
};

TEST_F(SnapshotCorruptionTest, PristineFileLoads) {
  EXPECT_NO_THROW((void)load_snapshot(path_, "stretch6"));
}

TEST_F(SnapshotCorruptionTest, MissingFileIsAnIoError) {
  EXPECT_THROW((void)load_snapshot(path_ + ".does-not-exist"), SnapshotIoError);
  EXPECT_THROW((void)probe_snapshot(path_ + ".does-not-exist"),
               SnapshotIoError);
}

TEST_F(SnapshotCorruptionTest, TruncationAnywhereIsDetected) {
  // Cut the file at several depths: inside the magic, the header, the
  // section table, and mid-payload.  Every prefix must throw a typed error
  // (truncation, or a checksum failure when the cut lands after a partially
  // covered region) -- never crash or succeed.
  for (std::size_t keep :
       {std::size_t{0}, std::size_t{4}, std::size_t{10}, std::size_t{40},
        pristine_.size() / 2, pristine_.size() - 1}) {
    std::vector<std::uint8_t> cut(pristine_.begin(),
                                  pristine_.begin() + static_cast<long>(keep));
    write_file(path_, cut);
    EXPECT_THROW((void)load_snapshot(path_, "stretch6"), SnapshotError)
        << "prefix of " << keep << " bytes";
    try {
      (void)load_snapshot(path_, "stretch6");
    } catch (const SnapshotFormatError&) {
      // Truncated (or structurally short) -- expected.
    } catch (const SnapshotChecksumError&) {
      // A cut section can also surface as a bad CRC -- acceptable and typed.
    }
  }
}

TEST_F(SnapshotCorruptionTest, FlippedMagicIsAFormatError) {
  auto bytes = pristine_;
  bytes[0] ^= 0xFF;
  write_file(path_, bytes);
  EXPECT_THROW((void)load_snapshot(path_, "stretch6"), SnapshotFormatError);
}

TEST_F(SnapshotCorruptionTest, WrongVersionIsAVersionError) {
  auto bytes = pristine_;
  bytes[kArenaMagicSize] = static_cast<std::uint8_t>(kSnapshotVersion + 1);
  write_file(path_, bytes);
  EXPECT_THROW((void)load_snapshot(path_, "stretch6"), SnapshotVersionError);
  // The retired v1 streamed format shares the magic and the version field:
  // every read path refuses it by version, whatever follows.
  bytes = pristine_;
  bytes[kArenaMagicSize] = 1;
  write_file(path_, bytes);
  EXPECT_THROW((void)load_snapshot(path_, "stretch6"), SnapshotVersionError);
  EXPECT_THROW((void)map_snapshot(path_, "stretch6"), SnapshotVersionError);
  EXPECT_FALSE(probe_snapshot(path_).framing_ok);
  EXPECT_EQ(probe_snapshot(path_).version, 1u);
}

TEST_F(SnapshotCorruptionTest, BitFlipInAPayloadIsAChecksumError) {
  // Flip one byte deep inside the largest (scheme) section's payload.
  auto bytes = pristine_;
  bytes[bytes.size() - 64] ^= 0x01;
  write_file(path_, bytes);
  EXPECT_THROW((void)load_snapshot(path_, "stretch6"), SnapshotChecksumError);
}

TEST_F(SnapshotCorruptionTest, BitFlipInTheHeaderIsAChecksumError) {
  // The scheme-name string sits right after magic+version; corrupting it
  // must fail the header CRC, not masquerade as a scheme mismatch.
  auto bytes = pristine_;
  bytes[kArenaMagicSize + 4 + 8] ^= 0xFF;  // first byte of the name
  write_file(path_, bytes);
  EXPECT_THROW((void)load_snapshot(path_), SnapshotChecksumError);
}

TEST_F(SnapshotCorruptionTest, SchemeNameMismatchIsTyped) {
  EXPECT_THROW((void)load_snapshot(path_, "rtz3"),
               SnapshotSchemeMismatchError);
  // And the sibling variant does not silently accept the base scheme's file.
  EXPECT_THROW((void)load_snapshot(path_, "stretch6-detour"),
               SnapshotSchemeMismatchError);
}

TEST_F(SnapshotCorruptionTest, EveryTypedErrorIsASnapshotError) {
  // Callers that just want "treat as cache miss" can catch the root type.
  auto bytes = pristine_;
  bytes[0] ^= 0xFF;
  write_file(path_, bytes);
  EXPECT_THROW((void)load_snapshot(path_, "stretch6"), SnapshotError);
}

TEST_F(SnapshotCorruptionTest, BuildOrLoadDegradesWhenCacheDirIsUnwritable) {
  // A cache path whose parent "directory" is a regular file is unwritable
  // for every uid (ENOTDIR) -- unlike a chmod'd directory, which root would
  // happily write into, so this keeps the test honest under sudo/CI-root.
  const std::string blocker = ::testing::TempDir() + "rtr_not_a_dir_" +
                              ::testing::UnitTest::GetInstance()
                                  ->current_test_info()
                                  ->name();
  write_file(blocker, {0x00});
  const std::string cache_path = blocker + "/cache.rtrsnap";
  // Degrade to build-without-save: a working handle comes back, nothing
  // throws, and no snapshot file appears.
  SchemeHandle handle = SchemeRegistry::global().build_or_load(
      "stretch6", [&] { return inst_->context(9); }, cache_path);
  EXPECT_EQ(handle.graph().node_count(), inst_->n());
  EXPECT_TRUE(handle.roundtrip(1, 5).ok());
  EXPECT_THROW((void)load_snapshot(cache_path, "stretch6"), SnapshotIoError);
  std::remove(blocker.c_str());
}

TEST_F(SnapshotCorruptionTest, BuildOrLoadRecoversFromACorruptCache) {
  auto bytes = pristine_;
  bytes[bytes.size() - 100] ^= 0x10;
  write_file(path_, bytes);
  // The corrupt cache is a miss: rebuild, overwrite, serve.
  SchemeHandle handle = SchemeRegistry::global().build_or_load(
      "stretch6", [&] { return inst_->context(9); }, path_);
  EXPECT_EQ(handle.graph().node_count(), inst_->n());
  EXPECT_NO_THROW((void)load_snapshot(path_, "stretch6"));
  auto res = handle.roundtrip(1, 5);
  EXPECT_TRUE(res.ok());
}

// Before every scheme had native sections, the cover-hierarchy schemes (and
// fulltable, hashed64) nested their tables in one "scheme/blob" byte section
// -- the member-indexed hierarchy of those blobs included.  Such a file is
// refused with a typed format error on both load paths, never decoded, and
// a cache holding one is a miss that gets rebuilt and overwritten.
class HierarchyLayoutTagTest : public ::testing::TestWithParam<const char*> {};

TEST_P(HierarchyLayoutTagTest, PreMemberIndexedBlobIsAFormatError) {
  const std::string scheme = GetParam();
  const auto inst = shared_instance(Family::kRandom, 32, 3, 7);
  const BuildContext ctx = inst->context(9);
  const SchemeHandle built(ctx.graph, ctx.names,
                           SchemeRegistry::global().build(scheme, ctx));
  // What such a file held: graph and names sections, then the blob (its
  // hierarchy encoding opened with the layout tag "MCH2").
  const std::vector<std::uint8_t> blob = {'M', 'C', 'H', '2', 3, 0, 0, 0};
  ArenaWriter w;
  built.graph().save_arena(w);
  built.names().save_arena(w);
  w.add_bytes("scheme/blob", blob.data(), blob.size());
  const std::string path = ::testing::TempDir() + "rtr_layout_tag_" + scheme +
                           ".rtrsnap";
  write_file(path, w.finalize(scheme, built.graph().node_count(),
                              built.graph().edge_count()));
  for (const bool mapped : {false, true}) {
    try {
      (void)(mapped ? map_snapshot(path, scheme) : load_snapshot(path, scheme));
      ADD_FAILURE() << "blob snapshot loaded (mapped=" << mapped << ")";
    } catch (const SnapshotFormatError& e) {
      // Refused for lacking the native sections, not by a misread.
      EXPECT_NE(std::string(e.what()).find("missing section"),
                std::string::npos)
          << e.what();
    }
  }
  // As a cache file it is a miss: rebuilt and overwritten with native
  // sections that load again.
  int builds = 0;
  const SchemeHandle rebuilt = SchemeRegistry::global().build_or_load(
      scheme,
      [&] {
        ++builds;
        return inst->context(9);
      },
      path);
  EXPECT_EQ(builds, 1);
  EXPECT_EQ(rebuilt.name(), built.name());
  EXPECT_NO_THROW((void)map_snapshot(path, scheme));
  std::remove(path.c_str());
}

INSTANTIATE_TEST_SUITE_P(CoverSchemes, HierarchyLayoutTagTest,
                         ::testing::Values("exstretch", "polystretch"));

}  // namespace
}  // namespace rtr
