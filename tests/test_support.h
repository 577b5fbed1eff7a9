// Shared fixtures/helpers for the test suite.
#ifndef RTR_TESTS_TEST_SUPPORT_H
#define RTR_TESTS_TEST_SUPPORT_H

#include <functional>
#include <map>
#include <memory>
#include <mutex>
#include <queue>
#include <string>
#include <tuple>
#include <utility>
#include <vector>

#include "core/names.h"
#include "graph/apsp.h"
#include "graph/digraph.h"
#include "graph/generators.h"
#include "graph/scc.h"
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

}  // namespace rtr::testing

#endif  // RTR_TESTS_TEST_SUPPORT_H
