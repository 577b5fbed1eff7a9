#include "rtz/handshake.h"

#include <stdexcept>

#include "util/bit_cost.h"

namespace rtr {

DtStep dt_step(const CoverHierarchy& hierarchy, NodeId at, DtLeg& leg) {
  const DoubleTree& tree = hierarchy.tree(leg.tree);
  // One lookup in at's own tree list serves the up port and the router
  // table.
  const std::int32_t i = hierarchy.member_index(leg.tree, at);
  if (i < 0) {
    throw std::logic_error("dt_step: node is outside the leg's double tree");
  }
  if (leg.going_up) {
    if (at == tree.center()) {
      leg.going_up = false;
    } else {
      return DtStep{false, tree.up_port_at(i)};
    }
  }
  Port p = tree_next_port(tree.out_router().table_at(i), leg.target);
  if (p == kNoPort) return DtStep{true, kNoPort};
  return DtStep{false, p};
}

R2Label compute_r2(const CoverHierarchy& hierarchy, NodeId u, NodeId v) {
  for (std::int32_t level = 0; level < hierarchy.level_count(); ++level) {
    const HierarchyLevel& lvl = hierarchy.level(level);
    std::int32_t best_tree = -1;
    std::int32_t best_u = -1;
    std::int32_t best_v = -1;
    Dist best_cost = kInfDist;
    for (const auto [t, iu] : lvl.trees_of(u)) {
      const std::int32_t iv = hierarchy.member_index(TreeRef{level, t}, v);
      if (iv < 0) continue;
      // Cost of the u -> root -> v trip ("most convenient" tree).
      const DoubleTree& tree = lvl.trees[static_cast<std::size_t>(t)];
      const Dist cost = tree.up_dist_at(iu) + tree.down_dist_at(iv);
      if (cost < best_cost) {
        best_cost = cost;
        best_tree = t;
        best_u = iu;
        best_v = iv;
      }
    }
    if (best_tree >= 0) {
      const TreeRouter& router =
          lvl.trees[static_cast<std::size_t>(best_tree)].out_router();
      return R2Label{TreeRef{level, best_tree}, router.label_at(best_u),
                     router.label_at(best_v)};
    }
  }
  throw std::logic_error("compute_r2: no common double tree for the pair");
}

TableStats hierarchy_node_stats(const CoverHierarchy& hierarchy, NodeId n,
                                std::int64_t node_space,
                                std::int64_t port_space) {
  TableStats stats(n);
  const std::int64_t id_bits = bits_for(node_space);
  const std::int64_t port_bits = bits_for(port_space);
  const std::int64_t tree_id_bits =
      bits_for(hierarchy.level_count()) + id_bits;  // (level, tree index)
  for (std::int32_t level = 0; level < hierarchy.level_count(); ++level) {
    const HierarchyLevel& lvl = hierarchy.level(level);
    for (NodeId v = 0; v < n; ++v) {
      const auto memberships =
          static_cast<std::int64_t>(lvl.trees_of(v).size());
      // Per membership: tree id + up-port + (dfs_in, heavy_port) table.
      stats.add(v, memberships,
                memberships * (tree_id_bits + port_bits + id_bits + port_bits));
      // Home tree id for this level.
      stats.add(v, 1, tree_id_bits);
    }
  }
  return stats;
}

std::int64_t r2_label_bits(const R2Label& label, std::int64_t node_space,
                           std::int64_t port_space) {
  const std::int64_t tree_id_bits = bits_for(node_space) + 8;
  (void)label;
  return tree_id_bits + tree_label_bits(label.label_u, node_space, port_space) +
         tree_label_bits(label.label_v, node_space, port_space);
}

}  // namespace rtr
