// Fixed-port tree routing (Lemma 14, after Thorup-Zwick [39] and
// Fraigniaud-Gavoille [18]).
//
// Given a shortest-path out-tree rooted at r, the scheme routes a packet from
// r to any node v along the optimal tree path, with
//   * O(1) words stored per tree node (its DFS number and the port of its
//     heavy child), and
//   * an O(log^2 n)-bit address for v.
//
// The construction is the classic heavy-path decomposition: every node keeps
// the port toward its child with the largest subtree ("heavy child").  The
// address of v lists the (node, port) pairs of the *light* edges on the
// root->v path -- at most floor(log2 n) of them, since crossing a light edge
// at least halves the subtree size.  Forwarding at node x: if x is the
// target, deliver; if x appears in the address's light list, take the listed
// port; otherwise take the heavy port.  Packets enter a tree only at its root
// in all of our uses, so no off-path case arises (we still detect and reject
// it defensively).
//
// Storage is per member, never per graph node: the router keeps its members
// sorted ascending and every per-member array (tables, parents, ports, heavy
// children) is indexed by a member's position in that list, so a tree of m
// members costs O(m) words whatever the graph's size.  contains(), table()
// and label() resolve a node id with one binary search; callers that walk a
// tree repeatedly resolve once with index_of() and use the *_at accessors.
#ifndef RTR_TREEROUTE_TREE_ROUTER_H
#define RTR_TREEROUTE_TREE_ROUTER_H

#include <algorithm>
#include <array>
#include <cstddef>
#include <initializer_list>
#include <type_traits>
#include <utility>
#include <vector>

#include "graph/dijkstra.h"
#include "util/types.h"

namespace rtr {

class SnapshotWriter;  // io/snapshot_format.h
class SnapshotReader;
class AuditReport;  // audit/audit.h

/// Per-node state a tree member stores for one tree: O(1) words.
struct TreeNodeTable {
  std::int32_t dfs_in = -1;    // this node's DFS number within the tree
  Port heavy_port = kNoPort;   // port to the heavy child (kNoPort at leaves)
};
static_assert(sizeof(TreeNodeTable) == 8);
static_assert(std::is_trivially_copyable_v<TreeNodeTable>);

/// One light edge of a tree label in arena-storable form: labels that live
/// inside a relocatable snapshot arena are CSR-packed as (per-entry dfs,
/// hop ranges) over one flat LightHop array instead of per-label small
/// buffers.
struct LightHop {
  std::int32_t dfs = -1;   // DFS number of the light edge's tail
  Port port = kNoPort;     // port at that tail
};
static_assert(sizeof(LightHop) == 8);
static_assert(std::is_trivially_copyable_v<LightHop>);

/// Small-buffer sequence for a label's light edges.  Lemma 14 bounds the
/// count by floor(log2 |tree|), so labels of trees up to 2^8 members fit
/// entirely inline (no heap allocation per label -- the dominant case: ball
/// trees hold O~(sqrt n) members); deeper labels spill to a heap vector and
/// stay contiguous, so pointer iteration and std::reverse keep working.
class LightHops {
 public:
  using value_type = std::pair<std::int32_t, Port>;
  using iterator = value_type*;
  using const_iterator = const value_type*;
  static constexpr std::size_t kInlineCapacity = 8;

  LightHops() = default;
  LightHops(std::initializer_list<value_type> hops) {
    for (const value_type& hop : hops) push_back(hop);
  }
  LightHops(const LightHops&) = default;
  LightHops& operator=(const LightHops&) = default;
  LightHops(LightHops&& other) noexcept
      : inline_(other.inline_),
        spill_(std::move(other.spill_)),
        size_(other.size_) {
    other.size_ = 0;
  }
  LightHops& operator=(LightHops&& other) noexcept {
    if (this != &other) {
      inline_ = other.inline_;
      spill_ = std::move(other.spill_);
      size_ = other.size_;
      other.size_ = 0;
    }
    return *this;
  }

  [[nodiscard]] std::size_t size() const { return size_; }
  [[nodiscard]] bool empty() const { return size_ == 0; }
  void clear() {
    size_ = 0;
    spill_.clear();
  }

  void emplace_back(std::int32_t dfs, Port port) {
    if (spill_.empty() && size_ < kInlineCapacity) {
      inline_[size_++] = value_type(dfs, port);
      return;
    }
    if (spill_.empty()) {
      // First spill: move the inline prefix so the sequence stays contiguous.
      spill_.reserve(2 * kInlineCapacity);
      spill_.assign(inline_.begin(), inline_.begin() + size_);
    }
    spill_.emplace_back(dfs, port);
    ++size_;
  }
  void push_back(const value_type& hop) { emplace_back(hop.first, hop.second); }

  [[nodiscard]] iterator begin() {
    return spill_.empty() ? inline_.data() : spill_.data();
  }
  [[nodiscard]] iterator end() { return begin() + size_; }
  [[nodiscard]] const_iterator begin() const {
    return spill_.empty() ? inline_.data() : spill_.data();
  }
  [[nodiscard]] const_iterator end() const { return begin() + size_; }

  [[nodiscard]] const value_type& operator[](std::size_t i) const {
    return begin()[i];
  }

  [[nodiscard]] bool operator==(const LightHops& other) const {
    return size_ == other.size_ && std::equal(begin(), end(), other.begin());
  }

 private:
  std::array<value_type, kInlineCapacity> inline_{};
  std::vector<value_type> spill_;
  std::size_t size_ = 0;
};

/// The routable address of a node within one tree: O(log^2 n) bits.
struct TreeLabel {
  std::int32_t dfs_in = -1;
  /// (dfs number of the light edge's tail, port at that tail), in root->v
  /// order.  At most floor(log2 |tree|) entries.
  LightHops light_hops;
};

/// Immutable routing structure for one tree.  Holds every member's
/// TreeNodeTable and can mint labels; per-member state is O(1) words as
/// Lemma 14 requires (labels are computed from the tree, not stored).
class TreeRouter {
 public:
  /// An empty router (no members).
  TreeRouter() = default;

  /// Builds from a member-indexed out-tree: `members` sorted ascending and
  /// unique, root among them, parent[i] the member index of members[i]'s
  /// parent (-1 only at the root) and parent_port[i] the port at that parent
  /// leading to members[i].  Throws std::invalid_argument when the parents
  /// do not form one tree rooted at `root`.
  TreeRouter(NodeId root, std::vector<NodeId> members,
             std::vector<std::int32_t> parent, std::vector<Port> parent_port);

  /// Builds from a node-indexed shortest-path out-tree; nodes unreachable in
  /// the tree (dist == kInfDist) are not members.
  explicit TreeRouter(const OutTree& tree);

  /// Snapshot path: rehydrates a router saved with save().
  explicit TreeRouter(SnapshotReader& r);
  void save(SnapshotWriter& w) const;

  [[nodiscard]] NodeId root() const { return root_; }
  [[nodiscard]] NodeId member_count() const {
    return static_cast<NodeId>(members_.size());
  }

  /// Members, sorted ascending; index i of every per-member accessor is
  /// members()[i].
  [[nodiscard]] const std::vector<NodeId>& members() const { return members_; }

  /// v's member index, or -1 when v is not a member.
  [[nodiscard]] std::int32_t index_of(NodeId v) const {
    const auto it = std::lower_bound(members_.begin(), members_.end(), v);
    return it != members_.end() && *it == v
               ? static_cast<std::int32_t>(it - members_.begin())
               : -1;
  }
  [[nodiscard]] bool contains(NodeId v) const { return index_of(v) >= 0; }

  /// The O(1)-word table node v stores.  Requires contains(v).
  [[nodiscard]] const TreeNodeTable& table(NodeId v) const {
    return table_at(index_of(v));
  }
  [[nodiscard]] const TreeNodeTable& table_at(std::int32_t i) const {
    return tables_[static_cast<std::size_t>(i)];
  }

  /// Member index of members()[i]'s parent (-1 at the root).
  [[nodiscard]] std::int32_t parent_at(std::int32_t i) const {
    return parent_[static_cast<std::size_t>(i)];
  }

  /// The address of v (root->v light edges).  Throws std::invalid_argument
  /// when v is not a member.
  [[nodiscard]] TreeLabel label(NodeId v) const;
  [[nodiscard]] TreeLabel label_at(std::int32_t i) const;

  /// Number of per-member slots actually stored: the longest per-member
  /// array.  Equals member_count() for a sound router; the hierarchy audit
  /// sums it to catch storage that outgrows the membership.
  [[nodiscard]] std::size_t stored_slots() const;

  /// Auditable: every per-member array sized to member_count(), sorted
  /// unique members, acyclic parent pointers reaching the root, unique DFS
  /// numbers, heavy-child/heavy-port consistency, and the Lemma 14 bound of
  /// at most label_slack * floor(log2 |tree|) light hops on every member's
  /// address.
  void audit(AuditReport& report) const;

 private:
  friend struct AuditTestPeer;
  NodeId root_ = kNoNode;
  std::vector<NodeId> members_;             // sorted ascending
  std::vector<TreeNodeTable> tables_;       // per member
  std::vector<std::int32_t> parent_;        // member index; -1 at the root
  std::vector<Port> parent_port_;           // port at parent toward member
  std::vector<std::int32_t> heavy_child_;   // member index; -1 at leaves
};

/// Snapshot encoding of the O(1)-word table and the O(log^2 n)-bit label;
/// shared by every scheme that persists tree-routing state.
void save_tree_node_table(SnapshotWriter& w, const TreeNodeTable& t);
[[nodiscard]] TreeNodeTable load_tree_node_table(SnapshotReader& r);
void save_tree_label(SnapshotWriter& w, const TreeLabel& label);
[[nodiscard]] TreeLabel load_tree_label(SnapshotReader& r);

/// Forwarding decision at a node holding `at` for a packet addressed
/// `target`: kNoPort means "deliver here" (at.dfs_in == target.dfs_in).
/// Throws std::logic_error if the node is off the root->target path (cannot
/// happen when packets enter at the root).
[[nodiscard]] Port tree_next_port(const TreeNodeTable& at,
                                  const TreeLabel& target);

/// Encoded size of a label in bits, given the graph's name and port spaces.
[[nodiscard]] std::int64_t tree_label_bits(const TreeLabel& label,
                                           std::int64_t node_space,
                                           std::int64_t port_space);

}  // namespace rtr

#endif  // RTR_TREEROUTE_TREE_ROUTER_H
