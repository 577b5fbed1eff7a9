// The hierarchy of double-tree covers (Section 4's construction, also our
// stand-in for the Roditty-Thorup-Zwick roundtrip spanner of Lemma 5 -- see
// a documented deviation from the paper).
//
// For every level i = 1 .. ceil(log2 RTDiam), build the Theorem 13 cover at
// radius 2^i and a double tree per cluster.  Every node v picks a *home*
// double-tree at each level: one spanning its whole ball N-hat^{2^i}(v)
// (guaranteed to exist by Theorem 13(1)).
//
// Guarantees carried by construction, tested in tests/cover_test.cpp:
//   * home tree of v at level i contains every w with r(v,w) <= 2^i,
//   * RTHeight of level-i trees <= (2k-1) 2^i,
//   * each node is in at most 2k n^{1/k} trees per level.
#ifndef RTR_COVER_HIERARCHY_H
#define RTR_COVER_HIERARCHY_H

#include <memory>
#include <optional>
#include <span>
#include <string>
#include <type_traits>
#include <vector>

#include "cover/double_tree.h"
#include "cover/sparse_cover.h"
#include "util/flat_vec.h"

namespace rtr {

class ArenaStorage;  // io/arena.h
class ArenaView;
class ArenaWriter;

/// Identifies one double tree in the hierarchy: (level index, tree index).
struct TreeRef {
  std::int32_t level = -1;  // 0-based level index; radius = 2^(level+1)
  std::int32_t tree = -1;

  friend bool operator==(const TreeRef&, const TreeRef&) = default;
};
static_assert(sizeof(TreeRef) == 8);
static_assert(std::is_trivially_copyable_v<TreeRef>);

/// One node's membership in one tree of a level: the tree's index and the
/// node's member index inside it.
struct TreeMembership {
  std::int32_t tree = -1;
  std::int32_t index = -1;
};

struct HierarchyLevel {
  Dist radius = 0;  // 2^{i}
  std::vector<DoubleTree> trees;
  FlatVec<std::int32_t> home_of;  // per node
  /// Per node, CSR over `memberships`: the trees containing the node,
  /// ascending by tree index, each with the node's member index in it.
  /// This is the node's own view of its per-tree state (at most 2k n^{1/k}
  /// entries, Theorem 13(3)); derived from `trees`, not persisted.
  std::vector<std::int64_t> membership_off;  // n + 1
  std::vector<TreeMembership> memberships;
  /// Memberships of all lower levels: this level's entry j has hierarchy-wide
  /// membership slot slot_base + j.
  std::int64_t slot_base = 0;

  [[nodiscard]] std::span<const TreeMembership> trees_of(NodeId v) const {
    const auto b = membership_off[static_cast<std::size_t>(v)];
    const auto e = membership_off[static_cast<std::size_t>(v) + 1];
    return {memberships.data() + b, static_cast<std::size_t>(e - b)};
  }
};

class CoverHierarchy {
 public:
  /// Builds all levels.  k > 1; metric must come from (g's) APSP.  The
  /// per-cluster double trees of each level build in parallel over `threads`
  /// workers (<= 0 resolves the process default); the hierarchy is a pure
  /// function of (g, metric, k) for any thread count.
  CoverHierarchy(const Digraph& g, const Digraph& reversed,
                 const RoundtripMetric& metric, int k, int threads = 1);

  /// Appends the hierarchy as typed arena sections under `prefix`: every
  /// tree's per-member arrays concatenated hierarchy-wide (levels in order,
  /// trees in order), one offsets array framing each tree's members, one
  /// framing each level's trees, the per-level radii and home trees, and k
  /// in a small meta section.
  void save_arena(ArenaWriter& w, const std::string& prefix) const;

  /// Rebuilds a hierarchy whose trees view those sections in place; only
  /// the per-node membership index (O(memberships)) is rebuilt.  `n` is the
  /// snapshot's node count.  Throws SnapshotArenaError when counts or
  /// offsets disagree.
  [[nodiscard]] static CoverHierarchy from_arena(const ArenaView& a,
                                                 const std::string& prefix,
                                                 NodeId n);

  [[nodiscard]] int k() const { return k_; }
  [[nodiscard]] std::int32_t level_count() const {
    return static_cast<std::int32_t>(levels_.size());
  }
  [[nodiscard]] const HierarchyLevel& level(std::int32_t i) const {
    return levels_[static_cast<std::size_t>(i)];
  }
  [[nodiscard]] const DoubleTree& tree(TreeRef ref) const {
    return levels_[static_cast<std::size_t>(ref.level)]
        .trees[static_cast<std::size_t>(ref.tree)];
  }

  /// v's member index in the tree `ref`, or -1 when that tree does not
  /// contain v.  Searches only v's own short tree list at ref's level, so a
  /// forwarding hop costs O(log(trees per node)), not O(log |tree|).
  [[nodiscard]] std::int32_t member_index(TreeRef ref, NodeId v) const {
    // Rows average under two entries, so a scan beats a binary search.
    for (const TreeMembership& m :
         levels_[static_cast<std::size_t>(ref.level)].trees_of(v)) {
      if (m.tree >= ref.tree) return m.tree == ref.tree ? m.index : -1;
    }
    return -1;
  }

  /// Position of v's membership in tree `ref` among all memberships of the
  /// hierarchy (levels in order, each level's trees_of rows in node order),
  /// or -1 when that tree does not contain v.  Schemes keep per-membership
  /// state in arrays indexed by it.
  [[nodiscard]] std::int64_t membership_slot(TreeRef ref, NodeId v) const {
    const HierarchyLevel& lvl = levels_[static_cast<std::size_t>(ref.level)];
    for (const TreeMembership& m : lvl.trees_of(v)) {
      if (m.tree >= ref.tree) {
        return m.tree == ref.tree
                   ? lvl.slot_base + (&m - lvl.memberships.data())
                   : -1;
      }
    }
    return -1;
  }
  /// Total memberships over all levels (one past the largest slot).
  [[nodiscard]] std::int64_t membership_count() const;

  /// The home double-tree of v at level i.
  [[nodiscard]] TreeRef home(NodeId v, std::int32_t level_index) const {
    return TreeRef{level_index,
                   levels_[static_cast<std::size_t>(level_index)]
                       .home_of[static_cast<std::size_t>(v)]};
  }

  /// The lowest level whose home tree of v also contains u (exists whenever
  /// the top level covers RTDiam; nullopt only for malformed inputs).
  [[nodiscard]] std::optional<TreeRef> lowest_home_containing(NodeId v,
                                                              NodeId u) const;

  /// Auditable: radii double per level, every node has a home tree it is a
  /// member of, trees_of lists exactly the trees containing each node,
  /// level-i RTHeights stay within (2k-1) * radius (Theorem 13(2)), the
  /// per-node tree count stays within tree_slack * 2k n^{1/k} per level
  /// (Theorem 13(3)), each level's trees store exactly one per-member slot
  /// per membership (the Lemma 14 storage, measured so that arrays sized to
  /// the graph fail the audit), and every double tree is internally sound
  /// (their deep audits are aggregated into one entry per level to keep
  /// reports small).
  void audit(AuditReport& report) const;

 private:
  CoverHierarchy() = default;  // from_arena fills the members

  int k_ = 0;
  std::vector<HierarchyLevel> levels_;
  /// Keepalive when the trees view a mapped arena.
  std::shared_ptr<const ArenaStorage> arena_;
};

}  // namespace rtr

#endif  // RTR_COVER_HIERARCHY_H
