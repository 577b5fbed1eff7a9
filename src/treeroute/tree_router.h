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
#include <string>
#include <type_traits>
#include <utility>
#include <vector>

#include "graph/dijkstra.h"
#include "util/flat_vec.h"
#include "util/types.h"

namespace rtr {

class AuditReport;  // audit/audit.h
class ArenaView;    // io/arena.h
class ArenaWriter;

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

/// Many tree labels in one flat, arena-storable layout: label e is dfs number
/// dfs_[e] plus the light hops hops_[hop_off_[e] .. hop_off_[e+1]).  A
/// Builder collects labels in push order; a built table owns its arrays and
/// a mapped one views them inside the snapshot arena.
class TreeLabelTable {
 public:
  class Builder {
   public:
    /// Capacity for `labels` labels holding `hops` light hops in total.
    void reserve(std::size_t labels, std::size_t hops);
    void push(const TreeLabel& label);
    [[nodiscard]] TreeLabelTable finish();

   private:
    std::vector<std::int32_t> dfs_;
    std::vector<std::int64_t> hop_off_{0};
    std::vector<LightHop> hops_;
  };

  /// An empty table (no labels).
  TreeLabelTable() : hop_off_(std::vector<std::int64_t>{0}) {}

  [[nodiscard]] std::size_t size() const { return dfs_.size(); }
  /// Label e, materialized (no allocation for <= 8 light hops).
  [[nodiscard]] TreeLabel at(std::size_t e) const {
    TreeLabel label;
    copy_to(e, label);
    return label;
  }
  /// Writes label e into `out`, which must be empty (fills a label in
  /// place, without a temporary).
  void copy_to(std::size_t e, TreeLabel& out) const;

  /// True when the hop offsets rise monotonically from 0 to the hop count,
  /// one offset per label plus one (the audits check this shape).
  [[nodiscard]] bool framed() const;

  /// Writes prefix + "dfs", prefix + "hop_off" and prefix + "hops".
  void save_arena(ArenaWriter& w, const std::string& prefix) const;
  /// Views the three sections; `count` is the label count the caller
  /// derives from its own key arrays.  Throws SnapshotArenaError when the
  /// sections disagree with it or the hop offsets are not a CSR.
  [[nodiscard]] static TreeLabelTable from_arena(const ArenaView& a,
                                                 const std::string& prefix,
                                                 std::uint64_t count);

 private:
  FlatVec<std::int32_t> dfs_;
  FlatVec<std::int64_t> hop_off_;
  FlatVec<LightHop> hops_;
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

  /// Snapshot path: adopts per-member arrays a router built earlier (views
  /// into a mapped arena, typically).  Checks the arrays share one length
  /// and every parent / heavy-child index is a member index or -1; throws
  /// std::invalid_argument otherwise.  The deep audit checks the rest.
  TreeRouter(NodeId root, FlatVec<NodeId> members,
             FlatVec<TreeNodeTable> tables, FlatVec<std::int32_t> parent,
             FlatVec<Port> parent_port, FlatVec<std::int32_t> heavy_child);

  [[nodiscard]] NodeId root() const { return root_; }
  [[nodiscard]] NodeId member_count() const {
    return static_cast<NodeId>(members_.size());
  }

  /// Members, sorted ascending; index i of every per-member accessor is
  /// members()[i].
  [[nodiscard]] const FlatVec<NodeId>& members() const { return members_; }
  /// The per-member arrays (snapshot writers concatenate them).
  [[nodiscard]] const FlatVec<TreeNodeTable>& tables() const { return tables_; }
  [[nodiscard]] const FlatVec<std::int32_t>& parents() const { return parent_; }
  [[nodiscard]] const FlatVec<Port>& parent_ports() const {
    return parent_port_;
  }
  [[nodiscard]] const FlatVec<std::int32_t>& heavy_children() const {
    return heavy_child_;
  }

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
  FlatVec<NodeId> members_;             // sorted ascending
  FlatVec<TreeNodeTable> tables_;       // per member
  FlatVec<std::int32_t> parent_;        // member index; -1 at the root
  FlatVec<Port> parent_port_;           // port at parent toward member
  FlatVec<std::int32_t> heavy_child_;   // member index; -1 at leaves
};

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
