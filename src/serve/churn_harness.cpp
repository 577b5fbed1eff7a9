#include "serve/churn_harness.h"

#include <algorithm>
#include <atomic>
#include <chrono>
#include <thread>
#include <utility>
#include <vector>

namespace rtr {

namespace {

double seconds_since(std::chrono::steady_clock::time_point start) {
  return std::chrono::duration<double>(std::chrono::steady_clock::now() - start)
      .count();
}

}  // namespace

ChurnRunResult run_churn_workload(Digraph initial, NameAssignment names,
                                  const ChurnRunOptions& options) {
  const auto run_start = std::chrono::steady_clock::now();
  const NodeId n = initial.node_count();
  Digraph g = std::move(initial);
  EpochManager mgr(options.scheme, std::move(names), Digraph(g),
                   options.manager);

  // Client threads hammering name-keyed roundtrips for the whole run; the
  // control flow below churns the topology underneath them.
  std::atomic<bool> stop{false};
  std::vector<std::thread> hammers;
  const int workers = std::max(1, options.hammer_threads);
  hammers.reserve(static_cast<std::size_t>(workers));
  for (int w = 0; w < workers; ++w) {
    hammers.emplace_back([&mgr, &stop, n, &options, w] {
      Rng rng(options.seed + 100 + static_cast<std::uint64_t>(w));
      while (!stop.load(std::memory_order_relaxed)) {
        auto a = static_cast<NodeName>(rng.index(n));
        auto b = static_cast<NodeName>(rng.index(n));
        if (a == b) continue;
        (void)mgr.roundtrip_by_name(a, b);
      }
    });
  }

  ChurnRunResult result;
  const std::int64_t stretch_pairs = std::min<std::int64_t>(
      options.stretch_pairs, static_cast<std::int64_t>(n) * (n - 1));
  JsonArray epoch_rows;
  // Per-epoch stretch continuity: a deterministic sampled batch against each
  // epoch as it becomes current.
  auto append_epoch_row = [&](const Epoch& epoch, double rebuild_seconds,
                              std::uint64_t served_during) {
    BatchOptions stretch_opts;
    stretch_opts.pair_budget = stretch_pairs;
    stretch_opts.seed = options.seed + 2;
    StretchReport rep = epoch.engine->run_sampled(stretch_opts);
    result.stretch_failures += rep.failures;
    if (result.first_error.empty()) result.first_error = rep.first_error;
    if (result.stretch_pairs == 0) {
      // Keep the epoch-0 batch as the run's headline stretch figures.
      result.stretch_pairs = rep.pairs;
      result.mean_stretch = rep.mean_stretch;
      result.p99_stretch = rep.p99_stretch;
      result.max_stretch = rep.max_stretch;
    }
    Json row{JsonObject{}};
    row.set("epoch", static_cast<std::int64_t>(epoch.seq));
    row.set("pairs", rep.pairs);
    row.set("failures", rep.failures);
    row.set("mean_stretch", rep.mean_stretch);
    row.set("p99_stretch", rep.p99_stretch);
    row.set("max_stretch", rep.max_stretch);
    row.set("rebuild_seconds", rebuild_seconds);
    row.set("served_during_rebuild", static_cast<std::int64_t>(served_during));
    row.set("from_cache", epoch.loaded_from_cache);
    epoch_rows.push_back(std::move(row));
  };
  append_epoch_row(*mgr.current(), mgr.current()->build_seconds, 0);

  Rng churn_rng(options.seed + 3);
  for (int e = 0; e < options.epochs; ++e) {
    g = churn_step(g, options.churn, churn_rng);
    const auto before = mgr.counters();
    const auto start = std::chrono::steady_clock::now();
    if (!mgr.begin_rebuild(Digraph(g))) {
      result.last_error = "rebuild unexpectedly in flight";
      break;
    }
    mgr.wait_for_rebuild();
    const double rebuild_seconds = seconds_since(start);
    result.last_error = mgr.last_error();
    if (!result.last_error.empty()) break;
    const std::uint64_t served = mgr.counters().queries - before.queries;
    result.served_during_rebuilds += served;
    append_epoch_row(*mgr.current(), rebuild_seconds, served);
  }

  stop.store(true);
  for (auto& t : hammers) t.join();

  const auto c = mgr.counters();
  result.wall_seconds = seconds_since(run_start);
  result.queries = c.queries;
  result.failures = c.failures;
  result.epochs_completed = mgr.epoch();
  result.repairs = c.repairs;
  result.repair_fallbacks = c.repair_fallbacks;
  result.last_rebuild_ms = c.last_rebuild_ms;
  result.last_repair_ms = c.last_repair_ms;
  result.availability =
      c.queries > 0
          ? 1.0 - static_cast<double>(c.failures) / static_cast<double>(c.queries)
          : 1.0;
  Json& json = result.json;
  json.set("scheme", options.scheme);
  json.set("n", static_cast<std::int64_t>(n));
  json.set("epochs", static_cast<std::int64_t>(result.epochs_completed));
  json.set("query_threads", workers);
  json.set("queries", static_cast<std::int64_t>(result.queries));
  json.set("failures", static_cast<std::int64_t>(result.failures));
  json.set("served_during_rebuilds",
           static_cast<std::int64_t>(result.served_during_rebuilds));
  json.set("availability", result.availability);
  json.set("stretch_batch_failures", result.stretch_failures);
  json.set("repairs", static_cast<std::int64_t>(result.repairs));
  json.set("repair_fallbacks",
           static_cast<std::int64_t>(result.repair_fallbacks));
  json.set("last_rebuild_ms", result.last_rebuild_ms);
  json.set("last_repair_ms", result.last_repair_ms);
  json.set("last_error", result.last_error);
  json.set("per_epoch", std::move(epoch_rows));
  return result;
}

}  // namespace rtr
