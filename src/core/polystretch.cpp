#include "core/polystretch.h"

#include <algorithm>
#include <stdexcept>
#include <string>
#include <unordered_map>
#include <utility>

#include "audit/audit.h"
#include "graph/apsp.h"
#include "io/arena.h"
#include "util/bit_cost.h"
#include "util/parallel.h"

namespace rtr {

namespace {

struct DictEntry {
  NodeName node = kNoNode;
  TreeLabel label;  // TreeR(C_i, node)
};

/// Build-time staging of one membership's storage; keys are generated in
/// ascending order, so the entries are already a sorted dictionary row.
struct PerTree {
  TreeLabel own_label;  // TreeR(C_i, u)
  std::vector<std::pair<std::int64_t, DictEntry>> dict;
};

}  // namespace

void PolyStretchScheme::save_arena(ArenaWriter& w,
                                   const std::string& prefix) const {
  hierarchy_->save_arena(w, prefix + "h/");
  own_label_.save_arena(w, prefix + "own_");
  w.add(prefix + "dict_off", dict_off_);
  w.add(prefix + "dict_key", dict_key_);
  w.add(prefix + "dict_node", dict_node_);
  dict_label_.save_arena(w, prefix + "dict_lab_");
  // The name assignment is not embedded: the arena's top-level names
  // sections are the same assignment, and the loader receives them.
  SnapshotWriter meta;
  alphabet_.save(meta);
  meta.i64(node_space_);
  meta.i64(port_space_);
  w.add_bytes(prefix + "meta", meta.bytes().data(), meta.size());
}

PolyStretchScheme PolyStretchScheme::from_arena(const ArenaView& a,
                                                const std::string& prefix,
                                                const NameAssignment& names) {
  SnapshotReader meta = a.reader(prefix + "meta");
  PolyStretchScheme s(names, Alphabet::load(meta));
  s.node_space_ = meta.i64();
  s.port_space_ = meta.i64();
  meta.expect_exhausted("polystretch arena meta");

  s.hierarchy_ = std::make_shared<const CoverHierarchy>(
      CoverHierarchy::from_arena(a, prefix + "h/", names.node_count()));
  const auto slots =
      static_cast<std::uint64_t>(s.hierarchy_->membership_count());
  s.own_label_ = TreeLabelTable::from_arena(a, prefix + "own_", slots);
  s.dict_off_ = a.vec<std::int64_t>(prefix + "dict_off", slots + 1);
  s.dict_key_ = a.vec<std::int64_t>(prefix + "dict_key");
  s.dict_node_ = a.vec<NodeName>(prefix + "dict_node", s.dict_key_.size());
  s.dict_label_ =
      TreeLabelTable::from_arena(a, prefix + "dict_lab_", s.dict_key_.size());
  check_arena_csr(s.dict_off_, s.dict_key_.size(), prefix + "dict");
  s.arena_ = a.storage();
  return s;
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
      const FlatVec<NodeId>& members = lvl.trees[t].members();
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

  // One fan-out over nodes: ticket u writes only the membership slots of
  // u's own trees; the prefix index and the metric are only read.
  std::vector<PerTree> per_slot(
      static_cast<std::size_t>(hierarchy_->membership_count()));
  parallel_tickets(n, threads, [&] {
    return [&](std::int64_t ticket) {
      const auto u = static_cast<NodeId>(ticket);
      const NodeName un = names_.name_of(u);
      for (std::int32_t level = 0; level < hierarchy_->level_count(); ++level) {
        const HierarchyLevel& lvl = hierarchy_->level(level);
        for (const auto [t, iu] : lvl.trees_of(u)) {
          const DoubleTree& tree = lvl.trees[static_cast<std::size_t>(t)];
          const TreeRouter& router = tree.out_router();
          const FlatVec<NodeId>& members = tree.members();
          const PrefixIndex& index = by_prefix[static_cast<std::size_t>(level)]
                                              [static_cast<std::size_t>(t)];
          auto& per = per_slot[static_cast<std::size_t>(
              hierarchy_->membership_slot(TreeRef{level, t}, u))];
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
              per.dict.emplace_back(static_cast<std::int64_t>(j) * q + tau,
                                    std::move(entry));
            }
          }
        }
      }
    };
  });

  // Flatten the staging into the slot-indexed arrays.
  TreeLabelTable::Builder own_label, dict_label;
  std::vector<std::int64_t> dict_off{0}, dict_key;
  std::vector<NodeName> dict_node;
  for (const PerTree& per : per_slot) {
    own_label.push(per.own_label);
    for (const auto& [key, entry] : per.dict) {
      dict_key.push_back(key);
      dict_node.push_back(entry.node);
      dict_label.push(entry.label);
    }
    dict_off.push_back(static_cast<std::int64_t>(dict_key.size()));
  }
  own_label_ = own_label.finish();
  dict_off_ = std::move(dict_off);
  dict_key_ = std::move(dict_key);
  dict_node_ = std::move(dict_node);
  dict_label_ = dict_label.finish();
}

std::size_t PolyStretchScheme::slot_of(TreeRef tree, NodeId at) const {
  const std::int64_t slot = hierarchy_->membership_slot(tree, at);
  if (slot < 0) {
    throw std::logic_error("polystretch: waypoint outside the current tree");
  }
  return static_cast<std::size_t>(slot);
}

Decision PolyStretchScheme::start_level(NodeId at, Header& h) const {
  // `at` is the source.  Pick its home tree for the current level and run
  // NextNode locally; escalate locally while the level yields no progress.
  while (true) {
    if (h.level >= hierarchy_->level_count()) {
      throw std::logic_error("polystretch: levels exhausted without delivery");
    }
    h.tree = hierarchy_->home(at, h.level);
    h.src_label = own_label_.at(slot_of(h.tree, at));
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
  const std::size_t slot = slot_of(h.tree, at);
  const int h_match = alphabet_.lcp(at_name, h.dest);  // digits already matched
  const int tau = alphabet_.digit(h.dest, h_match);
  const std::int64_t e =
      csr_find(dict_off_, dict_key_, slot,
               static_cast<std::int64_t>(h_match) * alphabet_.q() + tau);
  const NodeName next =
      e < 0 ? kNoNode : dict_node_[static_cast<std::size_t>(e)];
  if (e >= 0 && next != at_name) {
    // Extend the match: trip to the entry through the tree's center.
    h.waypoint = next;
    h.leg = DtLeg{h.tree, dict_label_.at(static_cast<std::size_t>(e)), true};
    DtStep step = dt_step(*hierarchy_, at, h.leg);
    if (step.arrived) {
      throw std::logic_error("polystretch: fresh trip arrived instantly");
    }
    return Decision::forward_on(step.port);
  }
  if (e >= 0) {
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
  const auto slots = static_cast<std::size_t>(hierarchy_->membership_count());
  const bool sized = own_label_.size() == slots &&
                     dict_off_.size() == slots + 1 &&
                     dict_node_.size() == dict_key_.size() &&
                     dict_label_.size() == dict_key_.size();
  report.check("tables-sized", sized,
               "one own label and one dictionary row per tree membership");
  if (!sized) return;
  const bool framed = csr_framed(dict_off_, dict_key_.size()) &&
                      own_label_.framed() && dict_label_.framed();
  report.check("dict-offsets-wellformed", framed,
               "dictionary and label CSR offsets must rise monotonically "
               "from 0 to their entry array sizes");
  if (!framed) return;

  // Dictionary rows: keys sorted and unique, waypoints real names.
  bool refs_ok = true;
  std::string refs_detail;
  for (std::size_t slot = 0; refs_ok && slot < slots; ++slot) {
    const auto lo = static_cast<std::size_t>(dict_off_[slot]);
    const auto hi = static_cast<std::size_t>(dict_off_[slot + 1]);
    for (std::size_t e = lo; refs_ok && e < hi; ++e) {
      const NodeName node = dict_node_[e];
      if (node < 0 || static_cast<std::size_t>(node) >= n ||
          (e > lo && dict_key_[e - 1] >= dict_key_[e])) {
        refs_ok = false;
        refs_detail = "per-tree dictionary at membership slot " +
                      std::to_string(slot) +
                      " is unsorted or stores an out-of-range waypoint";
      }
    }
  }
  report.check("per-tree-refs-valid", refs_ok, std::move(refs_detail));
}

TableStats PolyStretchScheme::table_stats() const {
  const auto n = static_cast<NodeId>(names_.node_count());
  TableStats stats =
      hierarchy_node_stats(*hierarchy_, n, node_space_, port_space_);
  const std::int64_t id_bits = bits_for(node_space_);
  for (std::int32_t level = 0; level < hierarchy_->level_count(); ++level) {
    const HierarchyLevel& lvl = hierarchy_->level(level);
    for (NodeId v = 0; v < n; ++v) {
      const auto vz = static_cast<std::size_t>(v);
      std::int64_t entries = 0, bits = 0;
      for (auto slot = static_cast<std::size_t>(lvl.slot_base +
                                                lvl.membership_off[vz]);
           slot < static_cast<std::size_t>(lvl.slot_base +
                                           lvl.membership_off[vz + 1]);
           ++slot) {
        ++entries;  // own label
        bits += tree_label_bits(own_label_.at(slot), node_space_, port_space_);
        for (auto e = static_cast<std::size_t>(dict_off_[slot]);
             e < static_cast<std::size_t>(dict_off_[slot + 1]); ++e) {
          ++entries;
          bits += id_bits /* key */ + id_bits +
                  tree_label_bits(dict_label_.at(e), node_space_, port_space_);
        }
      }
      stats.add(v, entries, bits);
    }
  }
  return stats;
}

}  // namespace rtr
