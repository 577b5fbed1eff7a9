#include "net/query_engine.h"

#include <algorithm>
#include <chrono>
#include <stdexcept>
#include <thread>

#include "util/parallel.h"
#include "util/stats.h"

namespace rtr {

namespace {

double elapsed_seconds(std::chrono::steady_clock::time_point start) {
  return std::chrono::duration<double>(std::chrono::steady_clock::now() - start)
      .count();
}

}  // namespace

QueryEngine::QueryEngine(std::shared_ptr<const Digraph> graph,
                         std::shared_ptr<const RoundtripMetric> metric,
                         NameAssignment names,
                         std::shared_ptr<const Scheme> scheme,
                         QueryEngineOptions options)
    : graph_(std::move(graph)),
      metric_(std::move(metric)),
      names_(std::move(names)),
      scheme_(std::move(scheme)) {
  if (graph_ == nullptr || scheme_ == nullptr) {
    throw std::invalid_argument("QueryEngine: null graph or scheme");
  }
  if (names_.node_count() != graph_->node_count()) {
    throw std::invalid_argument("QueryEngine: names do not match the graph");
  }
  threads_ = options.threads > 0
                 ? options.threads
                 : std::max(1, static_cast<int>(
                                   std::thread::hardware_concurrency()));
}

QueryEngine QueryEngine::from_registry(const SchemeRegistry& registry,
                                       const std::string& scheme_name,
                                       const BuildContext& ctx,
                                       QueryEngineOptions options) {
  auto scheme = registry.build(scheme_name, ctx);
  return QueryEngine(ctx.graph, ctx.metric, ctx.names, std::move(scheme),
                     options);
}

int QueryEngine::effective_workers(int cap, std::size_t work) const {
  const int width = cap > 0 ? cap : threads_;
  return static_cast<int>(std::min<std::size_t>(
      static_cast<std::size_t>(std::max(width, 1)),
      std::max<std::size_t>(work, 1)));
}

ServingResult QueryEngine::serve(NodeId src, NodeId dst) const {
  const NodeId n = graph_->node_count();
  if (src < 0 || src >= n || dst < 0 || dst >= n || src == dst) {
    return ServingResult::failure(
        ServingError::kInvalidQuery,
        "invalid query (" + std::to_string(src) + ", " + std::to_string(dst) +
            "): " + (src == dst ? "src == dst" : "node id out of range"));
  }
  RouteResult res;
  try {
    res = scheme_->simulate(*graph_, src, dst, names_.name_of(dst));
  } catch (const std::exception& e) {
    // A scheme that throws mid-walk is broken, not an unreachable pair; the
    // distinction is exactly what ServingError exists to carry.
    return ServingResult::failure(ServingError::kSchemeFailure, e.what());
  }
  if (!res.ok()) {
    return ServingResult::failure(
        ServingError::kUnreachable,
        "roundtrip (" + std::to_string(src) + ", " + std::to_string(dst) +
            ") undelivered (out " + (res.delivered_out ? "ok" : "lost") +
            ", back " + (res.delivered_back ? "ok" : "lost") + ")");
  }
  return ServingResult::success(std::move(res), /*epoch_seq=*/0);
}

std::vector<ServingResult> QueryEngine::serve_batch(
    const std::vector<RoundtripQuery>& queries,
    const BatchOptions& options) const {
  std::vector<ServingResult> results(queries.size());
  // Each ticket writes only results[i], so the bytes are the same at any
  // width.
  parallel_tickets(
      static_cast<std::int64_t>(queries.size()),
      effective_workers(options.threads, queries.size()), [&] {
        return [&](std::int64_t i) {
          const auto k = static_cast<std::size_t>(i);
          results[k] = serve(queries[k].src, queries[k].dst);
        };
      });
  return results;
}

StretchReport QueryEngine::run_batch(const std::vector<RoundtripQuery>& queries,
                                     const BatchOptions& options) const {
  const auto start = std::chrono::steady_clock::now();
  const std::vector<ServingResult> results = serve_batch(queries, options);
  // Serial fold in batch order: the first failure met is the lowest-index
  // one, and the report cannot depend on how serve_batch sharded the batch.
  StretchReport report;
  report.pairs = static_cast<std::int64_t>(results.size());
  Summary stretch;
  stretch.reserve(results.size());
  for (std::size_t i = 0; i < results.size(); ++i) {
    const ServingResult& served = results[i];
    if (!served.ok()) {
      if (served.error == ServingError::kInvalidQuery) ++report.invalid;
      if (report.failures++ == 0) report.first_error = served.message;
      continue;
    }
    const RouteResult& res = served.route;
    report.max_header_bits =
        std::max(report.max_header_bits, res.max_header_bits);
    if (metric_ == nullptr) continue;
    const Dist r = metric_->r(queries[i].src, queries[i].dst);
    if (r > 0) {
      stretch.add(static_cast<double>(res.roundtrip_length()) /
                  static_cast<double>(r));
    }
  }
  if (stretch.count() > 0) {
    report.mean_stretch = stretch.stable_mean();
    report.p99_stretch = stretch.percentile(0.99);
    report.max_stretch = stretch.max();
  }
  report.wall_seconds = elapsed_seconds(start);
  return report;
}

std::vector<RoundtripQuery> QueryEngine::sample_pairs(NodeId n,
                                                      std::int64_t pair_budget,
                                                      std::uint64_t seed) {
  std::vector<RoundtripQuery> queries;
  const auto nodes = static_cast<std::int64_t>(n);
  if (nodes < 2 || pair_budget <= 0) return queries;
  const std::int64_t all = nodes * (nodes - 1);
  if (all <= pair_budget) {
    // Exhaustive: enumerate every ordered pair once.
    queries.reserve(static_cast<std::size_t>(all));
    for (NodeId s = 0; s < n; ++s) {
      for (NodeId t = 0; t < n; ++t) {
        if (s != t) queries.push_back({s, t});
      }
    }
    return queries;
  }
  // Rejection sampling: a draw that collides (s == t) is thrown away and the
  // whole pair redrawn, so the sample is uniform over ordered pairs.  (The
  // previous remap `t = (t + 1) % n` double-weighted every pair
  // (s, s+1 mod n).)  Expected redraws per pair are 1/(n-1), negligible next
  // to routing the packet.
  queries.reserve(static_cast<std::size_t>(pair_budget));
  Rng rng(seed);
  for (std::int64_t i = 0; i < pair_budget; ++i) {
    NodeId s, t;
    do {
      s = static_cast<NodeId>(rng.index(nodes));
      t = static_cast<NodeId>(rng.index(nodes));
    } while (s == t);
    queries.push_back({s, t});
  }
  return queries;
}

StretchReport QueryEngine::run_sampled(const BatchOptions& options) const {
  // The pair list is drawn from one Rng(seed) up front, then run like any
  // explicit batch.  Sampling this way is what makes the report a
  // function of (budget, seed) alone -- the same pairs are routed no matter
  // how many workers the pool has.
  return run_batch(
      sample_pairs(graph_->node_count(), options.pair_budget, options.seed),
      options);
}

}  // namespace rtr
