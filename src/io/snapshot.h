// Binary scheme snapshots: build once, serve forever.
//
// A snapshot file freezes one built SchemeHandle -- graph, TINN naming, and
// the scheme's routing tables -- so a serving process can skip the
// O(n^2)-ish preprocessing entirely and go straight to answering queries
// (the paper's preprocess-once/query-forever model made operational).
//
// There is one format: the relocatable arena of io/arena.h ("RTRSNAP\0"
// magic, format version 2).  The payload IS the in-memory layout -- one
// pointer-free 8-aligned region of typed flat arrays plus a directory -- and
// every scheme writes its tables as named sections through its registry
// hooks ("graph/...", "names/...", "scheme/...").  Loading in place = open +
// mmap + header/CRC check + offset fixup into FlatVec views, O(ms) at any n;
// the only rebuilds a scheme may do at load are O(n) or O(memberships)
// indexes.  The same bytes also load into an owned buffer (with full
// section-CRC verification) and publish into POSIX shared memory for
// multi-process serving.  Small scalars (an alphabet, a block assignment,
// counts) ride in per-structure "meta" byte sections encoded with
// SnapshotWriter; no per-node table does.
//
// Compatibility: files of any other version (the retired v1 streamed
// encoding included) fail with SnapshotVersionError, and v2 files from
// before every scheme had native sections (tables nested in one byte-blob
// section) lack the sections their loader views, so they fail with a
// SnapshotFormatError.  Cache users treat both as a miss and rebuild.
//
// Every failure mode is a typed exception (see io/snapshot_format.h): bad
// magic, wrong version, truncation, checksum mismatch, scheme mismatch,
// structurally invalid arena.  A load either returns a fully constructed
// SchemeHandle or throws -- there is no half-loaded state.
#ifndef RTR_IO_SNAPSHOT_H
#define RTR_IO_SNAPSHOT_H

#include <cstdint>
#include <string>
#include <vector>

#include "io/arena.h"
#include "io/snapshot_format.h"
#include "net/scheme.h"

namespace rtr {

/// The one format version this binary reads and writes.
inline constexpr std::uint32_t kSnapshotVersion = kArenaFormatVersion;

/// Serializes a built handle under the registry name it was built as.  The
/// registry must have snapshot hooks for that name.  Writes to a temporary
/// sibling first and renames into place, so readers never observe a torn
/// file.  Throws SnapshotIoError on filesystem trouble.
void save_snapshot(const std::string& path, const std::string& scheme_name,
                   const SchemeHandle& handle,
                   const SchemeRegistry& registry = SchemeRegistry::global());

/// Loads a snapshot into a ready-to-serve handle (the payload is copied
/// into an owned buffer here -- use map_snapshot for load-in-place).  When
/// `expected_scheme` is non-empty the file's scheme name must match it
/// exactly (SnapshotSchemeMismatchError otherwise).  All section CRCs are
/// verified before any scheme state is constructed.
[[nodiscard]] SchemeHandle load_snapshot(
    const std::string& path, const std::string& expected_scheme = "",
    const SchemeRegistry& registry = SchemeRegistry::global());

/// Zero-copy fast path: mmap(2)s a snapshot and serves straight off the
/// mapping (FlatVec views into the file; the handle keeps the mapping alive).
/// Verifies framing (magic, version, layout tag, header + directory CRCs,
/// section bounds) but NOT the per-section payload CRCs -- that is what
/// keeps it O(ms) at any n; run `rtr_cli snapshot map-info` or the auditor
/// for end-to-end checks.
[[nodiscard]] SchemeHandle map_snapshot(
    const std::string& path, const std::string& expected_scheme = "",
    const SchemeRegistry& registry = SchemeRegistry::global());

/// Attaches a snapshot published in a POSIX shared-memory object
/// (MAP_SHARED read-only): every serving process references one physical
/// copy.  Same verification contract as map_snapshot.
[[nodiscard]] SchemeHandle map_snapshot_shm(
    const std::string& shm_name, const std::string& expected_scheme = "",
    const SchemeRegistry& registry = SchemeRegistry::global());

/// Publishes a snapshot file into a POSIX shared-memory object after
/// fully validating it (framing + every section CRC).  Readers attach with
/// map_snapshot_shm.  Returns the snapshot's scheme name.
std::string publish_snapshot_shm(const std::string& path,
                                 const std::string& shm_name);

/// One section's health as seen by probe_snapshot: the stored CRC next to
/// the one recomputed over the payload actually on disk.
struct SnapshotSectionStatus {
  std::string name;
  std::uint64_t bytes = 0;
  /// Byte offset of the payload within the file (0 when the framing walk
  /// stopped before reaching it), so tooling can re-read one section.
  std::uint64_t payload_offset = 0;
  std::uint32_t stored_crc = 0;
  std::uint32_t actual_crc = 0;
  bool crc_ok = false;
};

/// Lenient per-section probe result: the header and section table, read
/// without constructing the scheme.  A bad checksum does not abort the
/// walk: every section that the framing reaches is reported with its
/// stored-vs-recomputed CRC, so tooling can say *which* section is damaged.
/// `framing_error` is set when the walk itself had to stop early (bad
/// magic, wrong version, header CRC mismatch, truncation).
struct SnapshotFileStatus {
  bool framing_ok = false;
  std::string framing_error;
  std::uint32_t version = 0;
  std::string scheme;
  NodeId node_count = 0;
  std::int64_t edge_count = 0;
  std::uint64_t file_bytes = 0;
  std::vector<SnapshotSectionStatus> sections;

  /// True iff the framing parsed and every section checksum matches.
  [[nodiscard]] bool all_ok() const;
};

/// Probes a snapshot without throwing on corruption: only I/O failure to
/// open or read the file raises SnapshotIoError; every structural or
/// checksum problem lands in the returned status instead.
[[nodiscard]] SnapshotFileStatus probe_snapshot(const std::string& path);

/// Serving-path degradation notice: a cache save failed (full disk,
/// read-only directory) but the built scheme serves regardless.  Logs to
/// stderr once per process -- an epoch loop hitting this every rebuild must
/// neither spam the log nor stay silent about serving cold forever.
void warn_snapshot_cache_save_failed_once(const std::string& context,
                                          const SnapshotError& error);

}  // namespace rtr

#endif  // RTR_IO_SNAPSHOT_H
