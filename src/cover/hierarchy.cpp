#include "cover/hierarchy.h"

#include <algorithm>
#include <cmath>
#include <stdexcept>
#include <string>

#include "audit/audit.h"
#include "graph/apsp.h"
#include "io/arena.h"
#include "util/parallel.h"

namespace rtr {

namespace {

// Fills the per-node membership CSR from the level's trees: walking trees
// in ascending order keeps every node's row ascending by tree.
void index_memberships(HierarchyLevel& level, std::size_t n) {
  level.membership_off.assign(n + 1, 0);
  for (const DoubleTree& tree : level.trees) {
    for (const NodeId v : tree.members()) {
      if (v < 0 || static_cast<std::size_t>(v) >= n) {
        throw std::invalid_argument("CoverHierarchy: tree member out of range");
      }
      ++level.membership_off[static_cast<std::size_t>(v) + 1];
    }
  }
  for (std::size_t v = 0; v < n; ++v) {
    level.membership_off[v + 1] += level.membership_off[v];
  }
  level.memberships.resize(static_cast<std::size_t>(level.membership_off[n]));
  std::vector<std::int64_t> fill(level.membership_off.begin(),
                                 level.membership_off.end() - 1);
  for (std::size_t t = 0; t < level.trees.size(); ++t) {
    const FlatVec<NodeId>& members = level.trees[t].members();
    for (std::size_t i = 0; i < members.size(); ++i) {
      level.memberships[static_cast<std::size_t>(
          fill[static_cast<std::size_t>(members[i])]++)] =
          TreeMembership{static_cast<std::int32_t>(t),
                         static_cast<std::int32_t>(i)};
    }
  }
}

}  // namespace

CoverHierarchy::CoverHierarchy(const Digraph& g, const Digraph& reversed,
                               const RoundtripMetric& metric, int k,
                               int threads)
    : k_(k) {
  if (k <= 1) throw std::invalid_argument("CoverHierarchy: k > 1");
  const int workers = resolve_apsp_threads(threads);
  const Dist diameter = metric.rt_diameter();
  for (Dist radius = 2; ; radius *= 2) {
    SparseCoverResult cover = build_sparse_cover(metric, k, radius);
    HierarchyLevel level;
    level.radius = radius;
    level.home_of = cover.home_of;
    // Per-cluster double trees are independent (each reads the graph, writes
    // its own slot), so they fan out; the in-order move keeps level.trees
    // identical to the serial build.  Each worker reuses one Dijkstra
    // workspace across its clusters.
    std::vector<std::optional<DoubleTree>> built(cover.clusters.size());
    parallel_tickets(static_cast<std::int64_t>(cover.clusters.size()), workers,
                     [&] {
                       return [&, ws = DijkstraWorkspace{}](
                                  std::int64_t c) mutable {
                         auto& cluster =
                             cover.clusters[static_cast<std::size_t>(c)];
                         built[static_cast<std::size_t>(c)].emplace(
                             g, reversed, cluster.center,
                             std::move(cluster.members), ws);
                       };
                     });
    level.trees.reserve(cover.clusters.size());
    for (auto& tree : built) {
      level.trees.push_back(std::move(*tree));
    }
    index_memberships(level, static_cast<std::size_t>(g.node_count()));
    level.slot_base = membership_count();
    levels_.push_back(std::move(level));
    if (radius >= diameter) break;
  }
}

std::int64_t CoverHierarchy::membership_count() const {
  if (levels_.empty()) return 0;
  const HierarchyLevel& top = levels_.back();
  return top.slot_base + static_cast<std::int64_t>(top.memberships.size());
}

void CoverHierarchy::save_arena(ArenaWriter& w,
                                const std::string& prefix) const {
  std::vector<Dist> radius;
  std::vector<std::int32_t> home;
  std::vector<std::int64_t> tree_off{0};
  std::vector<NodeId> root;
  std::vector<Dist> height;
  std::vector<std::int64_t> member_off{0};
  std::vector<NodeId> members;
  std::vector<TreeNodeTable> tables;
  std::vector<std::int32_t> parent;
  std::vector<Port> parent_port;
  std::vector<std::int32_t> heavy;
  std::vector<Port> up_port;
  std::vector<Dist> up_dist;
  std::vector<Dist> down_dist;
  const auto append = [](auto& out, const auto& in) {
    out.insert(out.end(), in.begin(), in.end());
  };
  for (const HierarchyLevel& level : levels_) {
    radius.push_back(level.radius);
    append(home, level.home_of);
    for (const DoubleTree& tree : level.trees) {
      const TreeRouter& router = tree.out_router();
      root.push_back(tree.center());
      height.push_back(tree.rt_height());
      append(members, router.members());
      append(tables, router.tables());
      append(parent, router.parents());
      append(parent_port, router.parent_ports());
      append(heavy, router.heavy_children());
      append(up_port, tree.up_ports());
      append(up_dist, tree.up_dists());
      append(down_dist, tree.down_dists());
      member_off.push_back(static_cast<std::int64_t>(members.size()));
    }
    tree_off.push_back(static_cast<std::int64_t>(root.size()));
  }
  SnapshotWriter meta;
  meta.i32(k_);
  w.add_bytes(prefix + "meta", meta.bytes().data(), meta.size());
  w.add(prefix + "radius", radius);
  w.add(prefix + "home", home);
  w.add(prefix + "tree_off", tree_off);
  w.add(prefix + "root", root);
  w.add(prefix + "height", height);
  w.add(prefix + "member_off", member_off);
  w.add(prefix + "members", members);
  w.add(prefix + "tables", tables);
  w.add(prefix + "parent", parent);
  w.add(prefix + "parent_port", parent_port);
  w.add(prefix + "heavy", heavy);
  w.add(prefix + "up_port", up_port);
  w.add(prefix + "up_dist", up_dist);
  w.add(prefix + "down_dist", down_dist);
}

CoverHierarchy CoverHierarchy::from_arena(const ArenaView& a,
                                          const std::string& prefix,
                                          NodeId n) {
  CoverHierarchy h;
  SnapshotReader meta = a.reader(prefix + "meta");
  h.k_ = meta.i32();
  meta.expect_exhausted("cover hierarchy meta");

  const auto nz = static_cast<std::uint64_t>(n);
  const auto radius = a.vec<Dist>(prefix + "radius");
  const std::uint64_t levels = radius.size();
  const auto home = a.vec<std::int32_t>(prefix + "home", levels * nz);
  const auto tree_off = a.vec<std::int64_t>(prefix + "tree_off", levels + 1);
  const auto root = a.vec<NodeId>(prefix + "root");
  const std::uint64_t trees = root.size();
  const auto height = a.vec<Dist>(prefix + "height", trees);
  const auto member_off = a.vec<std::int64_t>(prefix + "member_off", trees + 1);
  const auto members = a.vec<NodeId>(prefix + "members");
  const std::uint64_t m = members.size();
  const auto tables = a.vec<TreeNodeTable>(prefix + "tables", m);
  const auto parent = a.vec<std::int32_t>(prefix + "parent", m);
  const auto parent_port = a.vec<Port>(prefix + "parent_port", m);
  const auto heavy = a.vec<std::int32_t>(prefix + "heavy", m);
  const auto up_port = a.vec<Port>(prefix + "up_port", m);
  const auto up_dist = a.vec<Dist>(prefix + "up_dist", m);
  const auto down_dist = a.vec<Dist>(prefix + "down_dist", m);
  check_arena_csr(tree_off, trees, prefix + "tree");
  check_arena_csr(member_off, m, prefix + "member");

  // Every tree views its slice of the hierarchy-wide member arrays.
  const auto slice = [](const auto& all, std::int64_t lo, std::int64_t hi) {
    return std::decay_t<decltype(all)>::view(
        all.data() + lo, static_cast<std::size_t>(hi - lo));
  };
  h.levels_.reserve(static_cast<std::size_t>(levels));
  try {
    for (std::size_t l = 0; l < levels; ++l) {
      HierarchyLevel level;
      level.radius = radius[l];
      level.home_of = slice(home, static_cast<std::int64_t>(l * nz),
                            static_cast<std::int64_t>((l + 1) * nz));
      const std::int64_t first = tree_off[l];
      const std::int64_t last = tree_off[l + 1];
      for (std::int32_t t : level.home_of) {
        if (t < 0 || t >= last - first) {
          throw std::invalid_argument("home tree index out of range");
        }
      }
      level.trees.reserve(static_cast<std::size_t>(last - first));
      for (auto t = static_cast<std::size_t>(first);
           t < static_cast<std::size_t>(last); ++t) {
        const std::int64_t lo = member_off[t];
        const std::int64_t hi = member_off[t + 1];
        level.trees.emplace_back(
            height[t], slice(up_port, lo, hi), slice(up_dist, lo, hi),
            slice(down_dist, lo, hi),
            TreeRouter(root[t], slice(members, lo, hi), slice(tables, lo, hi),
                       slice(parent, lo, hi), slice(parent_port, lo, hi),
                       slice(heavy, lo, hi)));
      }
      index_memberships(level, static_cast<std::size_t>(n));
      level.slot_base = h.membership_count();
      h.levels_.push_back(std::move(level));
    }
  } catch (const std::invalid_argument& e) {
    throw SnapshotArenaError("arena: cover hierarchy: " +
                             std::string(e.what()));
  }
  h.arena_ = a.storage();
  return h;
}

void CoverHierarchy::audit(AuditReport& report) const {
  auto scope = report.scope("hierarchy");
  report.check("has-levels", !levels_.empty(), "hierarchy without levels");
  if (levels_.empty()) return;

  const auto n = levels_.front().home_of.size();
  bool radii_ok = levels_.front().radius == 2;
  bool homes_ok = true;
  bool trees_of_ok = true;
  bool heights_ok = true;
  bool trees_sound = true;
  std::string radii_detail, homes_detail, trees_of_detail, heights_detail,
      trees_detail;
  std::int64_t max_trees_per_node = 0;
  double max_slots_per_membership = 0.0;

  for (std::size_t li = 0; li < levels_.size(); ++li) {
    const HierarchyLevel& level = levels_[li];
    if (radii_ok && li > 0 && level.radius != 2 * levels_[li - 1].radius) {
      radii_ok = false;
      radii_detail = "radius does not double at level " + std::to_string(li);
    }
    if (homes_ok && (level.home_of.size() != n ||
                     level.membership_off.size() != n + 1 ||
                     level.membership_off.back() !=
                         static_cast<std::int64_t>(level.memberships.size()))) {
      homes_ok = false;
      homes_detail = "per-node arrays of level " + std::to_string(li) +
                     " are not sized to the node count";
      continue;
    }
    const auto tree_count = static_cast<std::int32_t>(level.trees.size());
    for (std::size_t v = 0; homes_ok && v < n; ++v) {
      const std::int32_t h = level.home_of[v];
      if (h < 0 || h >= tree_count ||
          !level.trees[static_cast<std::size_t>(h)].contains(
              static_cast<NodeId>(v))) {
        homes_ok = false;
        homes_detail = "node " + std::to_string(v) + " at level " +
                       std::to_string(li) +
                       " has no valid home tree containing it";
      }
    }
    // trees_of must list exactly the containing trees, ascending, each with
    // the node's member index in it: every listed tree contains the node at
    // that index, and the total listed count equals the total member count
    // over the level's trees (so nothing is omitted either).
    std::int64_t listed = 0;
    std::int64_t member_total = 0;
    std::size_t slots = 0;
    for (const DoubleTree& t : level.trees) {
      member_total += t.member_count();
      slots += t.stored_slots();
    }
    if (member_total > 0) {
      max_slots_per_membership =
          std::max(max_slots_per_membership,
                   static_cast<double>(slots) / static_cast<double>(member_total));
    }
    for (std::size_t v = 0; trees_of_ok && v < n; ++v) {
      const auto row = level.trees_of(static_cast<NodeId>(v));
      max_trees_per_node =
          std::max(max_trees_per_node, static_cast<std::int64_t>(row.size()));
      listed += static_cast<std::int64_t>(row.size());
      bool row_ok = true;
      for (std::size_t j = 0; row_ok && j < row.size(); ++j) {
        const auto [t, index] = row[j];
        row_ok = t >= 0 && t < tree_count && (j == 0 || row[j - 1].tree < t) &&
                 level.trees[static_cast<std::size_t>(t)].index_of(
                     static_cast<NodeId>(v)) == index;
      }
      if (!row_ok) {
        trees_of_ok = false;
        trees_of_detail = "trees_of of node " + std::to_string(v) +
                          " at level " + std::to_string(li) +
                          " lists a non-containing tree or a wrong member "
                          "index";
      }
    }
    if (trees_of_ok && listed != member_total) {
      trees_of_ok = false;
      trees_of_detail = "level " + std::to_string(li) + " lists " +
                        std::to_string(listed) + " memberships, trees hold " +
                        std::to_string(member_total);
    }
    const Dist height_budget = static_cast<Dist>(2 * k_ - 1) * level.radius;
    for (std::size_t t = 0; t < level.trees.size(); ++t) {
      const DoubleTree& tree = level.trees[t];
      if (heights_ok && tree.rt_height() > height_budget) {
        heights_ok = false;
        heights_detail = "tree " + std::to_string(t) + " at level " +
                         std::to_string(li) + " has RTHeight " +
                         std::to_string(tree.rt_height()) + " > (2k-1)*2^i = " +
                         std::to_string(height_budget);
      }
      if (trees_sound) {
        AuditReport sub(report.budgets());
        tree.audit(sub);
        if (!sub.ok()) {
          trees_sound = false;
          for (const AuditEntry& e : sub.entries()) {
            if (!e.ok) {
              trees_detail = "tree " + std::to_string(t) + " at level " +
                             std::to_string(li) + ": " + e.component + " :: " +
                             e.invariant;
              break;
            }
          }
        }
      }
    }
  }

  report.check("radii-double", radii_ok, std::move(radii_detail));
  report.check("home-trees-cover", homes_ok, std::move(homes_detail));
  report.check("trees-of-exact", trees_of_ok, std::move(trees_of_detail));
  report.check("rt-heights-bounded", heights_ok, std::move(heights_detail));
  report.check("double-trees-sound", trees_sound, std::move(trees_detail));
  // Theorem 13(3): each node joins <= 2k n^{1/k} trees per level.
  const double budget =
      report.budgets().tree_slack * 2.0 * static_cast<double>(k_) *
      std::pow(std::max<double>(1.0, static_cast<double>(n)),
               1.0 / static_cast<double>(k_));
  report.measure("trees-per-node", static_cast<double>(max_trees_per_node),
                 budget, "max per-level tree memberships of one node vs "
                         "tree_slack * 2k n^(1/k)");
  // Lemma 14 storage: a level's double trees store one slot per membership,
  // so per-node (dense) arrays push this ratio toward n / average tree size.
  report.measure("stored-slots-per-membership", max_slots_per_membership, 1.0,
                 "max per-level stored per-member slots / total memberships");
}

std::optional<TreeRef> CoverHierarchy::lowest_home_containing(NodeId v,
                                                              NodeId u) const {
  for (std::int32_t i = 0; i < level_count(); ++i) {
    TreeRef ref = home(v, i);
    if (tree(ref).contains(u)) return ref;
  }
  return std::nullopt;
}

}  // namespace rtr
