// Double trees (Section 3.2 / Theorem 13).
//
// For a cluster C with center v, OutTree(C) is a shortest-path tree from v
// spanning C and InTree(C) holds a shortest path from every node of C to v,
// both computed inside the subgraph induced by C (Section 4 measures cluster
// radii in the induced subgraph; Theorem 10's construction guarantees the
// induced subgraph is strongly connected).  DoubleTree(C) is their union;
// RTHeight is the maximum induced roundtrip distance root <-> member.
//
// Routing inside a double tree always goes through the root: up along InTree
// next-hop pointers (each member stores one port), down along OutTree via the
// Lemma 14 tree router.  The cost between two members is at most twice the
// RTHeight.
//
// All state is per member, as Lemma 14 counts it: the out-tree's router
// keeps the sorted member list, and the up port and the induced distances
// to and from the center sit in arrays parallel to it.  Nothing is sized to
// the graph, so a tree of m members costs O(m) words.  index_of() resolves a
// node to its member index once; every *_at accessor (here and on the
// router) takes that index.
#ifndef RTR_COVER_DOUBLE_TREE_H
#define RTR_COVER_DOUBLE_TREE_H

#include <vector>

#include "graph/dijkstra.h"
#include "rt/metric.h"
#include "treeroute/tree_router.h"

namespace rtr {

class AuditReport;  // audit/audit.h

class DoubleTree {
 public:
  /// Builds in/out trees for `members` (sorted ascending and unique; must
  /// include center) inside the induced subgraph, with `ws` as Dijkstra
  /// scratch.  Throws std::invalid_argument if the induced subgraph does not
  /// strongly connect the members.
  DoubleTree(const Digraph& g, const Digraph& reversed, NodeId center,
             std::vector<NodeId> members, DijkstraWorkspace& ws);

  /// Snapshot path: adopts the per-member arrays of a tree built earlier
  /// (views into a mapped arena, typically) next to its out-tree router.
  /// Throws std::invalid_argument when an array's length is not the
  /// router's member count.
  DoubleTree(Dist rt_height, FlatVec<Port> up_port, FlatVec<Dist> up_dist,
             FlatVec<Dist> down_dist, TreeRouter out_router);

  [[nodiscard]] NodeId center() const { return out_router_.root(); }
  /// Sorted ascending; member index i is members()[i].
  [[nodiscard]] const FlatVec<NodeId>& members() const {
    return out_router_.members();
  }
  [[nodiscard]] NodeId member_count() const {
    return out_router_.member_count();
  }
  /// v's member index, or -1 when v is not in the tree.
  [[nodiscard]] std::int32_t index_of(NodeId v) const {
    return out_router_.index_of(v);
  }
  [[nodiscard]] bool contains(NodeId v) const { return index_of(v) >= 0; }

  /// Max induced roundtrip distance from the center to any member.
  [[nodiscard]] Dist rt_height() const { return rt_height_; }

  /// Induced d(center, members()[i]) / d(members()[i], center).
  [[nodiscard]] Dist down_dist_at(std::int32_t i) const {
    return down_dist_[static_cast<std::size_t>(i)];
  }
  [[nodiscard]] Dist up_dist_at(std::int32_t i) const {
    return up_dist_[static_cast<std::size_t>(i)];
  }
  /// members()[i]'s next-hop port toward the center (kNoPort at the center).
  [[nodiscard]] Port up_port_at(std::int32_t i) const {
    return up_port_[static_cast<std::size_t>(i)];
  }

  /// The per-member arrays (snapshot writers concatenate them).
  [[nodiscard]] const FlatVec<Port>& up_ports() const { return up_port_; }
  [[nodiscard]] const FlatVec<Dist>& up_dists() const { return up_dist_; }
  [[nodiscard]] const FlatVec<Dist>& down_dists() const { return down_dist_; }

  /// Lemma 14 routing structure on OutTree; shares this tree's member
  /// indices.
  [[nodiscard]] const TreeRouter& out_router() const { return out_router_; }

  /// Per-member slots actually stored (the longest per-member array, here
  /// or in the router); member_count() for a sound tree.
  [[nodiscard]] std::size_t stored_slots() const;

  /// Auditable: every per-member array holds exactly member_count() entries,
  /// the center is a member, every member is reachable both ways (finite
  /// up/down distances, an up port everywhere but the center), the cached
  /// rt_height_ equals the recomputed max roundtrip, and the Lemma 14
  /// out-router is itself sound.
  void audit(AuditReport& report) const;

 private:
  friend struct AuditTestPeer;
  Dist rt_height_ = 0;
  FlatVec<Port> up_port_;    // per member
  FlatVec<Dist> up_dist_;    // per member
  FlatVec<Dist> down_dist_;  // per member
  TreeRouter out_router_;
};

}  // namespace rtr

#endif  // RTR_COVER_DOUBLE_TREE_H
