#include "graph/generators.h"

#include <algorithm>
#include <cmath>
#include <set>
#include <stdexcept>

namespace rtr {

namespace {

Weight rand_weight(Weight max_weight, Rng& rng) {
  return static_cast<Weight>(rng.uniform(1, std::max<Weight>(1, max_weight)));
}

// Tracks (u,v) pairs already present so generators never emit parallel edges.
class EdgeSet {
 public:
  bool insert(NodeId u, NodeId v) {
    return set_.insert((static_cast<std::int64_t>(u) << 32) | static_cast<std::uint32_t>(v))
        .second;
  }

 private:
  std::set<std::int64_t> set_;
};

}  // namespace

GraphBuilder random_strongly_connected(NodeId n, double avg_out_degree,
                                  Weight max_weight, Rng& rng) {
  if (n < 2) throw std::invalid_argument("random_strongly_connected: n >= 2");
  GraphBuilder g(n);
  EdgeSet seen;
  // Random Hamiltonian cycle: strong connectivity certificate.
  auto order = rng.permutation(n);
  for (NodeId i = 0; i < n; ++i) {
    NodeId u = order[static_cast<std::size_t>(i)];
    NodeId v = order[static_cast<std::size_t>((i + 1) % n)];
    seen.insert(u, v);
    g.add_edge(u, v, rand_weight(max_weight, rng));
  }
  auto target_edges =
      static_cast<std::int64_t>(std::llround(avg_out_degree * n));
  std::int64_t budget = 8 * target_edges + 64;  // bail out on dense graphs
  while (g.edge_count() < target_edges && budget-- > 0) {
    auto u = static_cast<NodeId>(rng.index(n));
    auto v = static_cast<NodeId>(rng.index(n));
    if (u == v) continue;
    if (!seen.insert(u, v)) continue;
    g.add_edge(u, v, rand_weight(max_weight, rng));
  }
  return g;
}

GraphBuilder one_way_grid(NodeId rows, NodeId cols, Weight max_weight, Rng& rng) {
  // A Manhattan Street Network (Maxemchuk) is a *torus*: every row is a full
  // one-way cycle (direction alternating by row) and every column likewise.
  // The wrap-around links are what make the alternating pattern strongly
  // connected; a planar cut of it has corner sinks.  Even dimensions keep
  // adjacent streets counter-directed everywhere.
  if (rows % 2 != 0) ++rows;
  if (cols % 2 != 0) ++cols;
  rows = std::max<NodeId>(rows, 2);
  cols = std::max<NodeId>(cols, 2);
  GraphBuilder g(rows * cols);
  auto id = [&](NodeId r, NodeId c) { return r * cols + c; };
  for (NodeId r = 0; r < rows; ++r) {
    const bool left_to_right = (r % 2 == 0);
    for (NodeId c = 0; c < cols; ++c) {
      NodeId a = id(r, c), b = id(r, (c + 1) % cols);
      if (left_to_right) {
        g.add_edge(a, b, rand_weight(max_weight, rng));
      } else {
        g.add_edge(b, a, rand_weight(max_weight, rng));
      }
    }
  }
  for (NodeId c = 0; c < cols; ++c) {
    const bool top_to_bottom = (c % 2 == 0);
    for (NodeId r = 0; r < rows; ++r) {
      NodeId a = id(r, c), b = id((r + 1) % rows, c);
      if (top_to_bottom) {
        g.add_edge(a, b, rand_weight(max_weight, rng));
      } else {
        g.add_edge(b, a, rand_weight(max_weight, rng));
      }
    }
  }
  return g;
}

GraphBuilder ring_with_chords(NodeId n, NodeId chords, Weight max_weight, Rng& rng) {
  if (n < 2) throw std::invalid_argument("ring_with_chords: n >= 2");
  GraphBuilder g(n);
  EdgeSet seen;
  for (NodeId i = 0; i < n; ++i) {
    NodeId j = (i + 1) % n;
    seen.insert(i, j);
    g.add_edge(i, j, rand_weight(max_weight, rng));
  }
  std::int64_t budget = 8l * chords + 64;
  NodeId added = 0;
  while (added < chords && budget-- > 0) {
    auto u = static_cast<NodeId>(rng.index(n));
    auto v = static_cast<NodeId>(rng.index(n));
    if (u == v) continue;
    if (!seen.insert(u, v)) continue;
    g.add_edge(u, v, rand_weight(max_weight, rng));
    ++added;
  }
  return g;
}

GraphBuilder scale_free(NodeId n, NodeId attach, Weight max_weight, Rng& rng) {
  if (n < 3) throw std::invalid_argument("scale_free: n >= 3");
  GraphBuilder g(n);
  EdgeSet seen;
  // Ring backbone keeps the graph strongly connected.
  for (NodeId i = 0; i < n; ++i) {
    NodeId j = (i + 1) % n;
    seen.insert(i, j);
    g.add_edge(i, j, rand_weight(max_weight, rng));
  }
  // Preferential attachment by in-degree: maintain a repeated-endpoint urn.
  std::vector<NodeId> urn;
  urn.reserve(static_cast<std::size_t>(n) * static_cast<std::size_t>(attach + 2));
  for (NodeId v = 0; v < n; ++v) urn.push_back(v);  // +1 smoothing
  for (NodeId u = 0; u < n; ++u) {
    for (NodeId a = 0; a < attach; ++a) {
      for (int tries = 0; tries < 16; ++tries) {
        NodeId v = urn[static_cast<std::size_t>(rng.index(
            static_cast<std::int64_t>(urn.size())))];
        if (v == u) continue;
        if (!seen.insert(u, v)) continue;
        g.add_edge(u, v, rand_weight(max_weight, rng));
        urn.push_back(v);
        break;
      }
    }
  }
  return g;
}

GraphBuilder bidirected_random(NodeId n, double avg_degree, Weight max_weight,
                          Rng& rng) {
  if (n < 2) throw std::invalid_argument("bidirected_random: n >= 2");
  GraphBuilder g(n);
  EdgeSet seen;
  auto add_bidirected = [&](NodeId u, NodeId v, Weight w) {
    if (!seen.insert(u, v)) return false;
    seen.insert(v, u);
    g.add_edge(u, v, w);
    g.add_edge(v, u, w);
    return true;
  };
  // Random spanning tree: connectivity certificate.
  auto order = rng.permutation(n);
  for (NodeId i = 1; i < n; ++i) {
    NodeId u = order[static_cast<std::size_t>(i)];
    NodeId v = order[static_cast<std::size_t>(rng.index(i))];
    add_bidirected(u, v, rand_weight(max_weight, rng));
  }
  auto target_pairs = static_cast<std::int64_t>(std::llround(avg_degree * n / 2.0));
  std::int64_t budget = 8 * target_pairs + 64;
  while (g.edge_count() / 2 < target_pairs && budget-- > 0) {
    auto u = static_cast<NodeId>(rng.index(n));
    auto v = static_cast<NodeId>(rng.index(n));
    if (u == v) continue;
    add_bidirected(u, v, rand_weight(max_weight, rng));
  }
  return g;
}

GraphBuilder lower_bound_gadget(NodeId n, double density, Rng& rng) {
  if (n < 4) throw std::invalid_argument("lower_bound_gadget: n >= 4");
  if (n % 2 != 0) ++n;
  const NodeId half = n / 2;
  GraphBuilder g(n);
  // Weight-2 bidirected matching i <-> i+half keeps everything connected and
  // ensures non-adjacent bipartite pairs are at distance >= 2.
  for (NodeId i = 0; i < half; ++i) {
    g.add_edge(i, i + half, 2);
    g.add_edge(i + half, i, 2);
  }
  // Connect the left side in a weight-2 bidirected path so the graph is
  // connected even at density 0.
  for (NodeId i = 0; i + 1 < half; ++i) {
    g.add_edge(i, i + 1, 2);
    g.add_edge(i + 1, i, 2);
  }
  // The information payload: a random bipartite adjacency at weight 1.
  for (NodeId i = 0; i < half; ++i) {
    for (NodeId j = half; j < n; ++j) {
      if (j == i + half) continue;  // matched pair already present
      if (rng.chance(density)) {
        g.add_edge(i, j, 1);
        g.add_edge(j, i, 1);
      }
    }
  }
  return g;
}

GraphBuilder complete_digraph(NodeId n, Weight max_weight, Rng& rng) {
  if (n < 2) throw std::invalid_argument("complete_digraph: n >= 2");
  GraphBuilder g(n);
  for (NodeId u = 0; u < n; ++u) {
    for (NodeId v = 0; v < n; ++v) {
      if (u != v) g.add_edge(u, v, rand_weight(max_weight, rng));
    }
  }
  return g;
}

std::string family_name(Family f) {
  switch (f) {
    case Family::kRandom: return "random";
    case Family::kGrid: return "grid";
    case Family::kRing: return "ring+chords";
    case Family::kScaleFree: return "scale-free";
    case Family::kBidirected: return "bidirected";
  }
  return "?";
}

Family parse_family(const std::string& name) {
  for (const Family f : all_families()) {
    if (family_name(f) == name) return f;
  }
  if (name == "ring") return Family::kRing;
  if (name == "scalefree" || name == "scale_free" || name == "power-law") {
    return Family::kScaleFree;
  }
  throw std::invalid_argument("unknown family: " + name);
}

GraphBuilder make_family(Family f, NodeId n, Weight max_weight, Rng& rng) {
  switch (f) {
    case Family::kRandom:
      return random_strongly_connected(n, 4.0, max_weight, rng);
    case Family::kGrid: {
      auto side = static_cast<NodeId>(std::lround(std::sqrt(static_cast<double>(n))));
      return one_way_grid(side, side, max_weight, rng);
    }
    case Family::kRing:
      return ring_with_chords(n, n / 2, max_weight, rng);
    case Family::kScaleFree:
      return scale_free(n, 3, max_weight, rng);
    case Family::kBidirected:
      return bidirected_random(n, 3.0, max_weight, rng);
  }
  throw std::invalid_argument("make_family: unknown family");
}

const std::vector<Family>& all_families() {
  static const std::vector<Family> families = {
      Family::kRandom, Family::kGrid, Family::kRing, Family::kScaleFree,
      Family::kBidirected};
  return families;
}

}  // namespace rtr
