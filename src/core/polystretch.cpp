#include "core/polystretch.h"

#include <algorithm>
#include <stdexcept>
#include <string>

#include "audit/audit.h"
#include "graph/apsp.h"
#include "io/snapshot_format.h"
#include "util/bit_cost.h"
#include "util/parallel.h"

namespace rtr {

void PolyStretchScheme::save(SnapshotWriter& w) const {
  names_.save(w);
  alphabet_.save(w);
  hierarchy_->save(w);
  w.u64(tables_.size());
  for (const NodeTables& t : tables_) {
    w.sorted_map(
        t.per_tree, [](SnapshotWriter& ww, std::int64_t k) { ww.i64(k); },
        [](SnapshotWriter& ww, const PerTree& per) {
          save_tree_label(ww, per.own_label);
          ww.sorted_map(
              per.dict, [](SnapshotWriter& w3, std::int64_t k) { w3.i64(k); },
              [](SnapshotWriter& w3, const DictEntry& e) {
                w3.i32(e.node);
                save_tree_label(w3, e.label);
              });
        });
  }
  w.i64(node_space_);
  w.i64(port_space_);
}

PolyStretchScheme::PolyStretchScheme(SnapshotReader& r)
    : names_(NameAssignment::load(r)), alphabet_(Alphabet::load(r)) {
  hierarchy_ = std::make_shared<const CoverHierarchy>(r);
  const std::uint64_t n = r.u64();
  if (n != static_cast<std::uint64_t>(names_.node_count())) {
    throw std::invalid_argument(
        "polystretch snapshot: table count does not match the naming");
  }
  tables_.reserve(static_cast<std::size_t>(n));
  for (std::uint64_t i = 0; i < n; ++i) {
    NodeTables t;
    t.per_tree = r.map<std::unordered_map<std::int64_t, PerTree>>(
        [](SnapshotReader& rr) { return rr.i64(); },
        [](SnapshotReader& rr) {
          PerTree per;
          per.own_label = load_tree_label(rr);
          per.dict = rr.map<std::unordered_map<std::int64_t, DictEntry>>(
              [](SnapshotReader& r3) { return r3.i64(); },
              [](SnapshotReader& r3) {
                DictEntry e;
                e.node = r3.i32();
                e.label = load_tree_label(r3);
                return e;
              },
              8);
          return per;
        },
        8);
    tables_.push_back(std::move(t));
  }
  node_space_ = r.i64();
  port_space_ = r.i64();
}

PolyStretchScheme::PolyStretchScheme(const Digraph& g,
                                     const RoundtripMetric& metric,
                                     const NameAssignment& names,
                                     Options options)
    : names_(names),
      alphabet_(g.node_count(), options.k),
      node_space_(g.node_count()),
      port_space_(g.port_space()) {
  const NodeId n = g.node_count();
  const int k = alphabet_.k();
  const std::int64_t q = alphabet_.q();
  const int threads = resolve_apsp_threads(options.threads);
  const Digraph reversed = g.reversed();
  hierarchy_ =
      std::make_shared<CoverHierarchy>(g, reversed, metric, k, threads);

  // Per tree, members grouped by (j+1)-digit name prefix for the
  // nearest-extension queries: prefix value -> member indices, ascending.
  using PrefixIndex =
      std::vector<std::unordered_map<std::int64_t, std::vector<std::int32_t>>>;
  std::vector<std::vector<PrefixIndex>> by_prefix(
      static_cast<std::size_t>(hierarchy_->level_count()));
  for (std::int32_t level = 0; level < hierarchy_->level_count(); ++level) {
    const HierarchyLevel& lvl = hierarchy_->level(level);
    auto& level_index = by_prefix[static_cast<std::size_t>(level)];
    level_index.resize(lvl.trees.size());
    for (std::size_t t = 0; t < lvl.trees.size(); ++t) {
      const std::vector<NodeId>& members = lvl.trees[t].members();
      PrefixIndex& index = level_index[t];
      index.resize(static_cast<std::size_t>(k));
      for (std::size_t i = 0; i < members.size(); ++i) {
        const NodeName vn = names_.name_of(members[i]);
        for (int j = 0; j < k; ++j) {
          index[static_cast<std::size_t>(j)][alphabet_.prefix_value(vn, j + 1)]
              .push_back(static_cast<std::int32_t>(i));
        }
      }
    }
  }

  // One fan-out over nodes: ticket u writes only tables_[u], visiting u's
  // trees level by level in ascending tree order; the prefix index and the
  // metric are only read.
  tables_.resize(static_cast<std::size_t>(n));
  parallel_tickets(n, threads, [&] {
    return [&](std::int64_t ticket) {
      const auto u = static_cast<NodeId>(ticket);
      const NodeName un = names_.name_of(u);
      auto& per_tree = tables_[static_cast<std::size_t>(u)].per_tree;
      for (std::int32_t level = 0; level < hierarchy_->level_count(); ++level) {
        const HierarchyLevel& lvl = hierarchy_->level(level);
        for (const auto [t, iu] : lvl.trees_of(u)) {
          const DoubleTree& tree = lvl.trees[static_cast<std::size_t>(t)];
          const TreeRouter& router = tree.out_router();
          const std::vector<NodeId>& members = tree.members();
          const PrefixIndex& index = by_prefix[static_cast<std::size_t>(level)]
                                              [static_cast<std::size_t>(t)];
          auto& per = per_tree[tree_key(TreeRef{level, t})];
          per.own_label = router.label_at(iu);
          // (2c): for every j and tau, the nearest member extending u's own
          // j-digit prefix with digit tau, if one exists.
          for (int j = 0; j < k; ++j) {
            for (int tau = 0; tau < q; ++tau) {
              const PrefixValue p = alphabet_.prefix_value(un, j) * q + tau;
              auto it = index[static_cast<std::size_t>(j)].find(p);
              if (it == index[static_cast<std::size_t>(j)].end()) continue;
              std::int32_t best = -1;
              Dist best_r = kInfDist;
              for (const std::int32_t i : it->second) {
                const NodeId v = members[static_cast<std::size_t>(i)];
                if (v == u) {  // a zero-cost extension: always the nearest
                  best = i;
                  best_r = 0;
                  break;
                }
                const Dist rr = metric.r(u, v);
                if (rr < best_r ||
                    (rr == best_r && best >= 0 &&
                     names_.name_of(v) <
                         names_.name_of(members[static_cast<std::size_t>(best)]))) {
                  best_r = rr;
                  best = i;
                }
              }
              DictEntry entry;
              entry.node = names_.name_of(members[static_cast<std::size_t>(best)]);
              entry.label = router.label_at(best);
              per.dict.emplace(static_cast<std::int64_t>(j) * q + tau,
                               std::move(entry));
            }
          }
        }
      }
    };
  });
}

Decision PolyStretchScheme::start_level(NodeId at, Header& h) const {
  // `at` is the source.  Pick its home tree for the current level and run
  // NextNode locally; escalate locally while the level yields no progress.
  while (true) {
    if (h.level >= hierarchy_->level_count()) {
      throw std::logic_error("polystretch: levels exhausted without delivery");
    }
    h.tree = hierarchy_->home(at, h.level);
    const auto& per = tables_[static_cast<std::size_t>(at)].per_tree.at(
        tree_key(h.tree));
    h.src_label = per.own_label;
    Decision d = next_hop(at, h);
    // next_hop either launched a leg (forward), delivered (s == t), or asked
    // to fall back to the source -- which we are already at: escalate.
    if (!d.deliver || names_.name_of(at) == h.dest) return d;
    ++h.level;
  }
}

Decision PolyStretchScheme::next_hop(NodeId at, Header& h) const {
  const NodeName at_name = names_.name_of(at);
  if (at_name == h.dest) {
    h.found = true;
    return Decision::deliver_here();
  }
  const auto& per_tree = tables_[static_cast<std::size_t>(at)].per_tree;
  auto per_it = per_tree.find(tree_key(h.tree));
  if (per_it == per_tree.end()) {
    throw std::logic_error("polystretch: waypoint outside the current tree");
  }
  const PerTree& per = per_it->second;

  const int h_match = alphabet_.lcp(at_name, h.dest);  // digits already matched
  const int tau = alphabet_.digit(h.dest, h_match);
  auto it = per.dict.find(static_cast<std::int64_t>(h_match) * alphabet_.q() + tau);
  if (it != per.dict.end() && it->second.node != at_name) {
    // Extend the match: trip to the entry through the tree's center.
    h.waypoint = it->second.node;
    h.leg = DtLeg{h.tree, it->second.label, true};
    DtStep step = dt_step(*hierarchy_, at, h.leg);
    if (step.arrived) {
      throw std::logic_error("polystretch: fresh trip arrived instantly");
    }
    return Decision::forward_on(step.port);
  }
  if (it != per.dict.end() && it->second.node == at_name) {
    // The nearest extension is this node itself, yet it is not t: the next
    // digit cannot be extended further here; treat as failure.  (Cannot
    // happen when t is in the tree: t extends every prefix of itself and
    // at != t, and at already matches h_match digits, so the stored nearest
    // extension matching h_match+1 > lcp(at, t) digits cannot be at.)
    throw std::logic_error("polystretch: self-extension at a non-destination");
  }
  // No extension in this tree: fall back to the source (failure detected).
  if (at_name == h.src) return Decision::deliver_here();  // caller escalates
  h.waypoint = h.src;
  h.leg = DtLeg{h.tree, h.src_label, true};
  DtStep step = dt_step(*hierarchy_, at, h.leg);
  if (step.arrived) {
    throw std::logic_error("polystretch: fallback trip arrived instantly");
  }
  return Decision::forward_on(step.port);
}

Decision PolyStretchScheme::forward(NodeId at, Header& h) const {
  const NodeName at_name = names_.name_of(at);
  switch (h.mode) {
    case Mode::kNew: {
      h.src = at_name;
      h.level = 0;
      h.mode = Mode::kEnroute;
      if (at_name == h.dest) {
        h.found = true;
        return Decision::deliver_here();
      }
      return start_level(at, h);
    }
    case Mode::kEnroute: {
      DtStep step = dt_step(*hierarchy_, at, h.leg);
      if (!step.arrived) return Decision::forward_on(step.port);
      if (at_name != h.waypoint) {
        throw std::logic_error("polystretch: trip ended at a non-waypoint");
      }
      if (h.found) {
        // Acknowledgment arriving back at the source.
        if (at_name != h.src) {
          throw std::logic_error("polystretch: ack ended away from source");
        }
        return Decision::deliver_here();
      }
      if (at_name == h.src) {
        // Failure return: escalate one level and retry (Fig. 11).
        ++h.level;
        return start_level(at, h);
      }
      return next_hop(at, h);
    }
    case Mode::kReturn: {
      // Host at t re-injects the packet; route to SourceLabel in the same
      // tree (Fig. 11's ReturnPacket branch).
      h.mode = Mode::kEnroute;
      if (at_name == h.src) return Decision::deliver_here();
      h.waypoint = h.src;
      h.leg = DtLeg{h.tree, h.src_label, true};
      DtStep step = dt_step(*hierarchy_, at, h.leg);
      if (step.arrived) {
        throw std::logic_error("polystretch: return trip arrived instantly");
      }
      return Decision::forward_on(step.port);
    }
  }
  throw std::logic_error("polystretch: bad mode");
}

std::int64_t PolyStretchScheme::header_bits(const Header& h) const {
  return 2 /* mode */ + 3 * bits_for(node_space_) /* dest, src, waypoint */ +
         1 /* found */ + bits_for(hierarchy_->level_count() + 1) +
         bits_for(node_space_) + 8 /* tree ref */ +
         tree_label_bits(h.src_label, node_space_, port_space_) +
         tree_label_bits(h.leg.target, node_space_, port_space_) + 1;
}

void PolyStretchScheme::audit(AuditReport& report) const {
  auto scope = report.scope("polystretch");
  {
    auto names_scope = report.scope("names");
    names_.audit(report);
  }
  alphabet_.audit(report);
  hierarchy_->audit(report);

  const auto n = static_cast<std::size_t>(names_.node_count());
  report.check("tables-sized", tables_.size() == n,
               "one table block per node");
  if (tables_.size() != n) return;

  // Per-tree storage: each referenced tree must exist in the hierarchy and
  // contain the node; dictionary waypoints must be real names.
  bool refs_ok = true;
  std::string refs_detail;
  for (std::size_t v = 0; refs_ok && v < n; ++v) {
    for (const auto& [key, per_tree] : tables_[v].per_tree) {
      const TreeRef ref{static_cast<std::int32_t>(key / (1 << 24)),
                        static_cast<std::int32_t>(key % (1 << 24))};
      if (ref.level < 0 || ref.level >= hierarchy_->level_count() ||
          ref.tree < 0 ||
          static_cast<std::size_t>(ref.tree) >=
              hierarchy_->level(ref.level).trees.size() ||
          !hierarchy_->tree(ref).contains(static_cast<NodeId>(v))) {
        refs_ok = false;
        refs_detail = "node " + std::to_string(v) +
                      " stores state for a tree that does not contain it";
        break;
      }
      for (const auto& [dkey, entry] : per_tree.dict) {
        if (entry.node < 0 || static_cast<std::size_t>(entry.node) >= n) {
          refs_ok = false;
          refs_detail = "per-tree dictionary of node " + std::to_string(v) +
                        " stores an out-of-range waypoint";
          break;
        }
      }
      if (!refs_ok) break;
    }
  }
  report.check("per-tree-refs-valid", refs_ok, std::move(refs_detail));
}

TableStats PolyStretchScheme::table_stats() const {
  const auto n = static_cast<NodeId>(tables_.size());
  TableStats stats =
      hierarchy_node_stats(*hierarchy_, n, node_space_, port_space_);
  const std::int64_t id_bits = bits_for(node_space_);
  for (NodeId v = 0; v < n; ++v) {
    std::int64_t entries = 0, bits = 0;
    for (const auto& [key, per] : tables_[static_cast<std::size_t>(v)].per_tree) {
      (void)key;
      ++entries;  // own label
      bits += tree_label_bits(per.own_label, node_space_, port_space_);
      for (const auto& [dk, entry] : per.dict) {
        (void)dk;
        ++entries;
        bits += id_bits /* key */ + id_bits +
                tree_label_bits(entry.label, node_space_, port_space_);
      }
    }
    stats.add(v, entries, bits);
  }
  return stats;
}

}  // namespace rtr
