// Shared fixtures/helpers for the test suite.
#ifndef RTR_TESTS_TEST_SUPPORT_H
#define RTR_TESTS_TEST_SUPPORT_H

#include <algorithm>
#include <cmath>
#include <functional>
#include <map>
#include <memory>
#include <mutex>
#include <queue>
#include <stdexcept>
#include <string>
#include <tuple>
#include <utility>
#include <vector>

#include "core/names.h"
#include "cover/sparse_cover.h"
#include "graph/apsp.h"
#include "graph/digraph.h"
#include "graph/generators.h"
#include "graph/scc.h"
#include "io/arena.h"
#include "net/scheme.h"
#include "rt/metric.h"
#include "util/rng.h"

namespace rtr::testing {

/// The seed Dijkstra (std::priority_queue, fresh buffers per call), kept
/// here as the differential oracle the library's arena paths (workspace
/// reuse, flat-arc CSR, Dial buckets, the APSP pool) are tested
/// bit-identical against.
inline std::vector<Dist> dijkstra_distances_reference(const Digraph& g,
                                                      NodeId src) {
  using Item = std::pair<Dist, NodeId>;
  const auto n = static_cast<std::size_t>(g.node_count());
  std::vector<Dist> dist(n, kInfDist);
  std::priority_queue<Item, std::vector<Item>, std::greater<>> pq;
  dist[static_cast<std::size_t>(src)] = 0;
  pq.emplace(0, src);
  while (!pq.empty()) {
    auto [d, u] = pq.top();
    pq.pop();
    if (d != dist[static_cast<std::size_t>(u)]) continue;
    for (const Edge& e : g.out_edges(u)) {
      const Dist nd = d + e.weight;
      const auto to = static_cast<std::size_t>(e.to);
      if (nd < dist[to]) {
        dist[to] = nd;
        pq.emplace(nd, e.to);
      }
    }
  }
  return dist;
}

/// APSP from the oracle: one reference Dijkstra per source row.
inline DistMatrix reference_apsp(const Digraph& g) {
  DistMatrix m(g.node_count(), kInfDist);
  for (NodeId src = 0; src < g.node_count(); ++src) {
    const std::vector<Dist> row = dijkstra_distances_reference(g, src);
    std::copy(row.begin(), row.end(), m.row(src).begin());
  }
  return m;
}

/// The seed PartialCover (paper Fig. 7): unhooks every cluster of Z from
/// the node -> clusters lists with erase(remove(...)), quadratic once balls
/// span the graph.  Kept as the differential oracle the library's lazily
/// skipping partial_cover is tested bit-identical against.
inline PartialCoverResult partial_cover_reference(
    const std::vector<SeedCluster>& r_clusters, const std::vector<char>& active,
    NodeId n, int k) {
  if (k <= 1) throw std::invalid_argument("partial_cover_reference: k > 1 required");
  for (const SeedCluster& c : r_clusters) {
    for (NodeId v : c.members) {
      if (v < 0 || v >= n) {
        throw std::invalid_argument("partial_cover_reference: member out of [0, n)");
      }
    }
  }
  PartialCoverResult result;
  const auto cluster_count = static_cast<std::int32_t>(r_clusters.size());

  std::vector<char> is_active(active.begin(), active.end());
  std::int64_t active_count = std::count(is_active.begin(), is_active.end(), char{1});
  if (active_count == 0) return result;

  // The growth threshold |R|^{1/k}: |R| is the size of the collection this
  // invocation received (the active set).
  const double r_pow = std::pow(static_cast<double>(active_count), 1.0 / k);

  // node -> active clusters containing it (for incremental intersection).
  std::vector<std::vector<std::int32_t>> clusters_at(static_cast<std::size_t>(n));
  for (std::int32_t c = 0; c < cluster_count; ++c) {
    if (!is_active[static_cast<std::size_t>(c)]) continue;
    for (NodeId v : r_clusters[static_cast<std::size_t>(c)].members) {
      clusters_at[static_cast<std::size_t>(v)].push_back(c);
    }
  }

  std::vector<char> node_in_z(static_cast<std::size_t>(n), 0);
  std::vector<char> cluster_in_z(static_cast<std::size_t>(cluster_count), 0);

  std::int32_t next_seed_scan = 0;
  while (true) {
    // Select the lowest-index active cluster as S_0 (deterministic stand-in
    // for the paper's "arbitrary").
    while (next_seed_scan < cluster_count &&
           !is_active[static_cast<std::size_t>(next_seed_scan)]) {
      ++next_seed_scan;
    }
    if (next_seed_scan >= cluster_count) break;
    const std::int32_t s0 = next_seed_scan;

    // Z as cluster-index list + node set, grown incrementally.  `frontier`
    // holds nodes whose cluster lists have not been scanned yet.
    std::vector<std::int32_t> z_clusters{s0};
    cluster_in_z[static_cast<std::size_t>(s0)] = 1;
    std::vector<NodeId> z_nodes;
    std::vector<NodeId> frontier;
    for (NodeId v : r_clusters[static_cast<std::size_t>(s0)].members) {
      if (!node_in_z[static_cast<std::size_t>(v)]) {
        node_in_z[static_cast<std::size_t>(v)] = 1;
        z_nodes.push_back(v);
        frontier.push_back(v);
      }
    }

    std::size_t y_cluster_count = 0;  // |Y| after "Y <- Z"
    std::size_t y_node_count = 0;
    while (true) {
      // Y <- Z (record counts; the vertex set Y is z_nodes[0..y_node_count)).
      y_cluster_count = z_clusters.size();
      y_node_count = z_nodes.size();
      // Z <- clusters intersecting Y; grow node set accordingly.
      std::vector<NodeId> new_frontier;
      for (NodeId v : frontier) {
        for (std::int32_t c : clusters_at[static_cast<std::size_t>(v)]) {
          if (cluster_in_z[static_cast<std::size_t>(c)]) continue;
          cluster_in_z[static_cast<std::size_t>(c)] = 1;
          z_clusters.push_back(c);
          for (NodeId w : r_clusters[static_cast<std::size_t>(c)].members) {
            if (!node_in_z[static_cast<std::size_t>(w)]) {
              node_in_z[static_cast<std::size_t>(w)] = 1;
              z_nodes.push_back(w);
              new_frontier.push_back(w);
            }
          }
        }
      }
      frontier = std::move(new_frontier);
      if (static_cast<double>(z_clusters.size()) <=
          r_pow * static_cast<double>(y_cluster_count)) {
        break;
      }
    }

    // Emit Y = first y_cluster_count clusters of Z merged together.
    MergedCluster merged;
    merged.center = r_clusters[static_cast<std::size_t>(s0)].seed;
    merged.members.assign(z_nodes.begin(),
                          z_nodes.begin() + static_cast<std::ptrdiff_t>(y_node_count));
    std::sort(merged.members.begin(), merged.members.end());
    merged.absorbed.assign(
        z_clusters.begin(),
        z_clusters.begin() + static_cast<std::ptrdiff_t>(y_cluster_count));
    for (std::int32_t c : merged.absorbed) result.covered.push_back(c);
    for (std::size_t i = y_cluster_count; i < z_clusters.size(); ++i) {
      result.consumed.push_back(z_clusters[i]);
    }
    result.merged.push_back(std::move(merged));

    // U <- U \ Z: deactivate every cluster of Z and unhook its nodes.
    for (std::int32_t c : z_clusters) {
      is_active[static_cast<std::size_t>(c)] = 0;
      for (NodeId v : r_clusters[static_cast<std::size_t>(c)].members) {
        auto& list = clusters_at[static_cast<std::size_t>(v)];
        list.erase(std::remove(list.begin(), list.end(), c), list.end());
      }
    }
    // Reset the node markers touched by this batch.
    for (NodeId v : z_nodes) node_in_z[static_cast<std::size_t>(v)] = 0;
  }
  return result;
}

/// Cover (paper Fig. 8) over partial_cover_reference: the oracle for
/// build_sparse_cover, field for field.
inline SparseCoverResult sparse_cover_reference(const RoundtripMetric& metric,
                                                int k, Dist d) {
  const NodeId n = metric.node_count();
  SparseCoverResult result;
  result.d = d;
  result.k = k;
  result.home_of.assign(static_cast<std::size_t>(n), -1);
  std::vector<SeedCluster> seeds(static_cast<std::size_t>(n));
  for (NodeId v = 0; v < n; ++v) {
    seeds[static_cast<std::size_t>(v)].seed = v;
    seeds[static_cast<std::size_t>(v)].members = metric.ball(v, d);
  }
  std::vector<char> active(static_cast<std::size_t>(n), 1);
  std::int64_t remaining = n;
  while (remaining > 0) {
    ++result.rounds;
    PartialCoverResult pass = partial_cover_reference(seeds, active, n, k);
    if (pass.covered.empty()) {
      throw std::logic_error("sparse_cover_reference: round made no progress");
    }
    const auto base = static_cast<std::int32_t>(result.clusters.size());
    for (std::size_t i = 0; i < pass.merged.size(); ++i) {
      for (std::int32_t seed_idx : pass.merged[i].absorbed) {
        result.home_of[static_cast<std::size_t>(seed_idx)] =
            base + static_cast<std::int32_t>(i);
      }
      result.clusters.push_back(std::move(pass.merged[i]));
    }
    for (std::int32_t c : pass.covered) {
      active[static_cast<std::size_t>(c)] = 0;
      --remaining;
    }
  }
  return result;
}

/// A generated test instance: graph + adversarial names/ports + metric.
struct Instance {
  Digraph graph{0};
  NameAssignment names = NameAssignment::identity(0);
  std::shared_ptr<const RoundtripMetric> metric;

  [[nodiscard]] NodeId n() const { return graph.node_count(); }

  /// The instance as a registry BuildContext (scheme randomness from
  /// `scheme_seed`).  The graph is copied into shared ownership, so the
  /// context and anything built from it may outlive this Instance.
  [[nodiscard]] BuildContext context(std::uint64_t scheme_seed) const {
    return BuildContext::wrap(std::make_shared<const Digraph>(graph), metric,
                              names, scheme_seed);
  }
};

/// Process-lifetime memoized instance, keyed by the full generation recipe
/// (family, n, max_weight, seed).  Many fixtures across the suite ask for
/// the same instances; the APSP metric is the dominant cost of each, so
/// building every distinct recipe once cuts ctest wall time.  The cached
/// Instance is immutable; tests that mutate take a copy via make_instance.
inline std::shared_ptr<const Instance> shared_instance(Family family, NodeId n,
                                                       Weight max_weight,
                                                       std::uint64_t seed) {
  using Key = std::tuple<int, NodeId, Weight, std::uint64_t>;
  static std::mutex mutex;
  static auto& cache =
      *new std::map<Key, std::shared_ptr<const Instance>>();  // leaked: process-lifetime
  const Key key{static_cast<int>(family), n, max_weight, seed};
  std::lock_guard<std::mutex> lock(mutex);
  auto it = cache.find(key);
  if (it != cache.end()) return it->second;

  auto inst = std::make_shared<Instance>();
  Rng rng(seed);
  GraphBuilder builder = make_family(family, n, max_weight, rng);
  builder.assign_adversarial_ports(rng);
  inst->graph = builder.freeze();
  inst->names = NameAssignment::random(inst->graph.node_count(), rng);
  inst->metric = std::make_shared<DenseRoundtripMetric>(inst->graph);
  return cache.emplace(key, std::move(inst)).first->second;
}

/// Builds a family instance with adversarial (random) ports and names.
/// Served from the shared_instance cache; the returned copy is the caller's
/// to mutate (the heavyweight metric stays shared -- it is immutable).
inline Instance make_instance(Family family, NodeId n, Weight max_weight,
                              std::uint64_t seed) {
  return *shared_instance(family, n, max_weight, seed);
}

/// Parameter tuple for family sweeps: (family, n, seed).
using FamilyParam = std::tuple<Family, NodeId, std::uint64_t>;

inline std::string family_param_name(const FamilyParam& p) {
  auto [family, n, seed] = p;
  std::string name = family_name(family);
  for (auto& c : name) {
    if (c == '+' || c == '-') c = '_';
  }
  return name + "_n" + std::to_string(n) + "_s" + std::to_string(seed);
}

/// The arena image of a scheme's own sections -- the registry's snapshot
/// saver into an ArenaWriter, then finalize -- the canonical encoding the
/// byte-identity oracles compare ("same bytes" means "same tables").
inline std::vector<std::uint8_t> scheme_arena_bytes(const std::string& name,
                                                    const Scheme& scheme) {
  ArenaWriter w;
  SchemeRegistry::global().arena_saver(name)(scheme, w);
  return w.finalize(name, 0, 0);
}

}  // namespace rtr::testing

#endif  // RTR_TESTS_TEST_SUPPORT_H
