#include "treeroute/tree_router.h"

#include <algorithm>
#include <cmath>
#include <functional>
#include <stdexcept>
#include <string>

#include "audit/audit.h"
#include "io/arena.h"
#include "util/bit_cost.h"

namespace rtr {

TreeRouter::TreeRouter(NodeId root, std::vector<NodeId> members,
                       std::vector<std::int32_t> parent,
                       std::vector<Port> parent_port)
    : root_(root),
      members_(std::move(members)),
      parent_(std::move(parent)),
      parent_port_(std::move(parent_port)) {
  const auto m = members_.size();
  if (parent_.size() != m || parent_port_.size() != m) {
    throw std::invalid_argument("TreeRouter: per-member arrays disagree");
  }
  if (std::adjacent_find(members_.begin(), members_.end(),
                         std::greater_equal<>{}) != members_.end()) {
    throw std::invalid_argument("TreeRouter: members not sorted and unique");
  }
  if (m == 0) return;
  std::vector<TreeNodeTable> tables(m);
  std::vector<std::int32_t> heavy_child(m, -1);
  const std::int32_t root_index = index_of(root_);
  if (root_index < 0 || parent_[static_cast<std::size_t>(root_index)] != -1) {
    throw std::invalid_argument("TreeRouter: root missing or has a parent");
  }

  // Children in CSR form, each list ascending by node id (= member index).
  std::vector<std::int32_t> child_begin(m + 1, 0);
  for (std::size_t i = 0; i < m; ++i) {
    const std::int32_t p = parent_[i];
    if (static_cast<std::int32_t>(i) == root_index) continue;
    if (p < 0 || static_cast<std::size_t>(p) >= m) {
      throw std::invalid_argument("TreeRouter: member outside the root's tree");
    }
    ++child_begin[static_cast<std::size_t>(p) + 1];
  }
  for (std::size_t i = 0; i < m; ++i) child_begin[i + 1] += child_begin[i];
  std::vector<std::int32_t> children(m - 1);
  std::vector<std::int32_t> fill(child_begin.begin(), child_begin.end() - 1);
  for (std::size_t i = 0; i < m; ++i) {
    if (static_cast<std::int32_t>(i) == root_index) continue;
    children[static_cast<std::size_t>(
        fill[static_cast<std::size_t>(parent_[i])]++)] =
        static_cast<std::int32_t>(i);
  }

  // Iterative preorder DFS assigns dfs_in: children are pushed ascending,
  // so the highest-id child is numbered first.  A member the walk misses
  // sits on a parent cycle.
  std::vector<std::int32_t> preorder;
  preorder.reserve(m);
  std::vector<std::int32_t> todo{root_index};
  while (!todo.empty()) {
    const std::int32_t v = todo.back();
    todo.pop_back();
    tables[static_cast<std::size_t>(v)].dfs_in =
        static_cast<std::int32_t>(preorder.size());
    preorder.push_back(v);
    for (std::int32_t c = child_begin[static_cast<std::size_t>(v)];
         c < child_begin[static_cast<std::size_t>(v) + 1]; ++c) {
      todo.push_back(children[static_cast<std::size_t>(c)]);
    }
  }
  if (preorder.size() != m) {
    throw std::invalid_argument("TreeRouter: member outside the root's tree");
  }

  // Subtree sizes bottom-up (reverse preorder visits children first), then
  // the heavy child: the first child, in ascending id order, with a strictly
  // largest subtree.
  std::vector<std::int32_t> subtree(m, 1);
  for (auto it = preorder.rbegin(); it != preorder.rend(); ++it) {
    const std::int32_t p = parent_[static_cast<std::size_t>(*it)];
    if (p >= 0) {
      subtree[static_cast<std::size_t>(p)] +=
          subtree[static_cast<std::size_t>(*it)];
    }
  }
  for (std::size_t v = 0; v < m; ++v) {
    std::int32_t best = 0;
    for (std::int32_t c = child_begin[v]; c < child_begin[v + 1]; ++c) {
      const std::int32_t child = children[static_cast<std::size_t>(c)];
      if (subtree[static_cast<std::size_t>(child)] > best) {
        best = subtree[static_cast<std::size_t>(child)];
        heavy_child[v] = child;
        tables[v].heavy_port = parent_port_[static_cast<std::size_t>(child)];
      }
    }
  }
  tables_ = std::move(tables);
  heavy_child_ = std::move(heavy_child);
}

TreeRouter::TreeRouter(NodeId root, FlatVec<NodeId> members,
                       FlatVec<TreeNodeTable> tables,
                       FlatVec<std::int32_t> parent, FlatVec<Port> parent_port,
                       FlatVec<std::int32_t> heavy_child)
    : root_(root),
      members_(std::move(members)),
      tables_(std::move(tables)),
      parent_(std::move(parent)),
      parent_port_(std::move(parent_port)),
      heavy_child_(std::move(heavy_child)) {
  const auto m = members_.size();
  const auto in_range = [m](std::int32_t i) {
    return i >= -1 && i < static_cast<std::int64_t>(m);
  };
  if (tables_.size() != m || parent_.size() != m || parent_port_.size() != m ||
      heavy_child_.size() != m ||
      !std::all_of(parent_.begin(), parent_.end(), in_range) ||
      !std::all_of(heavy_child_.begin(), heavy_child_.end(), in_range)) {
    throw std::invalid_argument(
        "TreeRouter: adopted arrays disagree with the member count");
  }
}

namespace {

// Member-indexed view of a node-indexed out-tree: members in ascending id
// order, parents translated to member indices.
TreeRouter from_out_tree(const OutTree& tree) {
  const auto n = tree.dist.size();
  std::vector<std::int32_t> index(n, -1);
  std::vector<NodeId> members;
  for (std::size_t v = 0; v < n; ++v) {
    if (tree.dist[v] >= kInfDist) continue;
    index[v] = static_cast<std::int32_t>(members.size());
    members.push_back(static_cast<NodeId>(v));
  }
  std::vector<std::int32_t> parent(members.size(), -1);
  std::vector<Port> parent_port(members.size(), kNoPort);
  for (std::size_t i = 0; i < members.size(); ++i) {
    const auto v = static_cast<std::size_t>(members[i]);
    if (tree.parent[v] != kNoNode) {
      parent[i] = index[static_cast<std::size_t>(tree.parent[v])];
      parent_port[i] = tree.parent_port[v];
    }
  }
  return TreeRouter(tree.root, std::move(members), std::move(parent),
                    std::move(parent_port));
}

}  // namespace

TreeRouter::TreeRouter(const OutTree& tree) : TreeRouter(from_out_tree(tree)) {}

std::size_t TreeRouter::stored_slots() const {
  return std::max({members_.size(), tables_.size(), parent_.size(),
                   parent_port_.size(), heavy_child_.size()});
}

void TreeRouter::audit(AuditReport& report) const {
  auto scope = report.scope("tree");
  const auto m = members_.size();

  const bool sized = tables_.size() == m && parent_.size() == m &&
                     parent_port_.size() == m && heavy_child_.size() == m;
  report.check("arrays-sized", sized,
               "every per-member array must hold exactly member_count() "
               "entries");
  if (!sized) return;  // the walks below index these arrays per member
  if (m == 0) {
    report.check("root-is-member", true, "empty tree");
    return;
  }

  const std::int32_t root_index = index_of(root_);
  bool members_ok =
      std::adjacent_find(members_.begin(), members_.end(),
                         std::greater_equal<>{}) == members_.end() &&
      root_index >= 0 && parent_[static_cast<std::size_t>(root_index)] == -1;
  std::string member_detail =
      members_ok ? "" : "members unsorted, or root missing or has a parent";
  for (std::size_t i = 0; members_ok && i < m; ++i) {
    const std::int32_t p = parent_[i];
    if (static_cast<std::int32_t>(i) != root_index &&
        (p < 0 || static_cast<std::size_t>(p) >= m)) {
      members_ok = false;
      member_detail = "member " + std::to_string(members_[i]) +
                      " has a missing or non-member parent";
    }
  }
  report.check("root-is-member", members_ok, std::move(member_detail));
  if (!members_ok) return;

  // Parent pointers must be acyclic and reach the root: a chain longer than
  // the member count has necessarily revisited a node.
  bool acyclic = true;
  std::string cycle_detail;
  for (std::size_t i = 0; i < m; ++i) {
    auto x = static_cast<std::int32_t>(i);
    std::size_t steps = 0;
    while (x != root_index && steps <= m) {
      x = parent_[static_cast<std::size_t>(x)];
      ++steps;
    }
    if (x != root_index) {
      acyclic = false;
      cycle_detail = "parent chain of member " + std::to_string(members_[i]) +
                     " does not reach the root (cycle)";
      break;
    }
  }
  report.check("parents-acyclic", acyclic, std::move(cycle_detail));

  bool dfs_ok = true;
  std::string dfs_detail;
  std::vector<bool> dfs_seen(m, false);
  for (std::size_t i = 0; i < m; ++i) {
    const std::int32_t dfs = tables_[i].dfs_in;
    if (dfs < 0 || static_cast<std::size_t>(dfs) >= m ||
        dfs_seen[static_cast<std::size_t>(dfs)]) {
      dfs_ok = false;
      dfs_detail = "dfs number of member " + std::to_string(members_[i]) +
                   " out of range or duplicated";
      break;
    }
    dfs_seen[static_cast<std::size_t>(dfs)] = true;
  }
  report.check("dfs-numbers-unique", dfs_ok, std::move(dfs_detail));

  // Heavy links: a recorded heavy child must be a member child of its node
  // with the matching port; a node without one must present kNoPort (the
  // leaf condition tree_next_port uses to detect off-path packets).
  bool heavy_ok = true;
  std::string heavy_detail;
  for (std::size_t i = 0; i < m; ++i) {
    const std::int32_t h = heavy_child_[i];
    const Port hp = tables_[i].heavy_port;
    if (h == -1) {
      if (hp != kNoPort) {
        heavy_ok = false;
        heavy_detail = "member " + std::to_string(members_[i]) +
                       " has a heavy port but no heavy child";
        break;
      }
      continue;
    }
    if (h < 0 || static_cast<std::size_t>(h) >= m ||
        parent_[static_cast<std::size_t>(h)] != static_cast<std::int32_t>(i) ||
        hp != parent_port_[static_cast<std::size_t>(h)]) {
      heavy_ok = false;
      heavy_detail = "heavy link of member " + std::to_string(members_[i]) +
                     " is not a child edge with the matching port";
      break;
    }
  }
  report.check("heavy-links-consistent", heavy_ok, std::move(heavy_detail));

  if (acyclic) {
    std::int64_t max_hops = 0;
    for (std::size_t i = 0; i < m; ++i) {
      max_hops = std::max(
          max_hops, static_cast<std::int64_t>(
                        label_at(static_cast<std::int32_t>(i)).light_hops.size()));
    }
    const double budget =
        report.budgets().label_slack *
        std::floor(std::log2(std::max<double>(2.0, static_cast<double>(m))));
    report.measure("light-hops", static_cast<double>(max_hops), budget,
                   "longest light-hop list vs label_slack * floor(log2 |tree|)");
  }
}

TreeLabel TreeRouter::label(NodeId v) const {
  const std::int32_t i = index_of(v);
  if (i < 0) throw std::invalid_argument("TreeRouter::label: not a member");
  return label_at(i);
}

TreeLabel TreeRouter::label_at(std::int32_t i) const {
  TreeLabel lab;
  lab.dfs_in = tables_[static_cast<std::size_t>(i)].dfs_in;
  // Walk v -> root collecting light edges, then reverse into root->v order.
  std::int32_t x = i;
  while (parent_[static_cast<std::size_t>(x)] != -1) {
    const std::int32_t p = parent_[static_cast<std::size_t>(x)];
    if (heavy_child_[static_cast<std::size_t>(p)] != x) {
      lab.light_hops.emplace_back(tables_[static_cast<std::size_t>(p)].dfs_in,
                                  parent_port_[static_cast<std::size_t>(x)]);
    }
    x = p;
  }
  std::reverse(lab.light_hops.begin(), lab.light_hops.end());
  return lab;
}

void TreeLabelTable::Builder::reserve(std::size_t labels, std::size_t hops) {
  dfs_.reserve(labels);
  hop_off_.reserve(labels + 1);
  hops_.reserve(hops);
}

void TreeLabelTable::Builder::push(const TreeLabel& label) {
  dfs_.push_back(label.dfs_in);
  for (const auto& [dfs, port] : label.light_hops) {
    hops_.push_back(LightHop{dfs, port});
  }
  hop_off_.push_back(static_cast<std::int64_t>(hops_.size()));
}

TreeLabelTable TreeLabelTable::Builder::finish() {
  TreeLabelTable t;
  t.dfs_ = std::move(dfs_);
  t.hop_off_ = std::move(hop_off_);
  t.hops_ = std::move(hops_);
  return t;
}

void TreeLabelTable::copy_to(std::size_t e, TreeLabel& out) const {
  out.dfs_in = dfs_[e];
  const auto lo = static_cast<std::size_t>(hop_off_[e]);
  const auto hi = static_cast<std::size_t>(hop_off_[e + 1]);
  for (std::size_t i = lo; i < hi; ++i) {
    out.light_hops.emplace_back(hops_[i].dfs, hops_[i].port);
  }
}

bool TreeLabelTable::framed() const {
  return hop_off_.size() == dfs_.size() + 1 &&
         csr_framed(hop_off_, hops_.size());
}

void TreeLabelTable::save_arena(ArenaWriter& w,
                                const std::string& prefix) const {
  w.add(prefix + "dfs", dfs_);
  w.add(prefix + "hop_off", hop_off_);
  w.add(prefix + "hops", hops_);
}

TreeLabelTable TreeLabelTable::from_arena(const ArenaView& a,
                                          const std::string& prefix,
                                          std::uint64_t count) {
  TreeLabelTable t;
  t.dfs_ = a.vec<std::int32_t>(prefix + "dfs", count);
  t.hop_off_ = a.vec<std::int64_t>(prefix + "hop_off", count + 1);
  t.hops_ = a.vec<LightHop>(prefix + "hops");
  check_arena_csr(t.hop_off_, t.hops_.size(), prefix + "hop");
  return t;
}

Port tree_next_port(const TreeNodeTable& at, const TreeLabel& target) {
  if (at.dfs_in == target.dfs_in) return kNoPort;
  for (const auto& [tail_dfs, port] : target.light_hops) {
    if (tail_dfs == at.dfs_in) return port;
  }
  if (at.heavy_port == kNoPort) {
    throw std::logic_error("tree_next_port: node is off the root->target path");
  }
  return at.heavy_port;
}

std::int64_t tree_label_bits(const TreeLabel& label, std::int64_t node_space,
                             std::int64_t port_space) {
  const std::int64_t id_bits = bits_for(node_space);
  const std::int64_t port_bits = bits_for(port_space);
  return id_bits +  // dfs_in
         static_cast<std::int64_t>(label.light_hops.size()) * (id_bits + port_bits) +
         bits_for(node_space);  // length field
}

}  // namespace rtr
