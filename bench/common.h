// Shared harness for the experiment binaries (the per-bench header comments
// name the paper artifact each one reproduces).
//
// Each bench builds graph instances, runs roundtrip simulations over sampled
// (or exhaustive) pairs, and prints the rows the corresponding paper artifact
// reports.  Binaries take no arguments and bound their own runtime.
#ifndef RTR_BENCH_COMMON_H
#define RTR_BENCH_COMMON_H

#include <chrono>
#include <map>
#include <memory>
#include <string>
#include <vector>

#include "bench_harness/bench_harness.h"
#include "core/names.h"
#include "graph/generators.h"
#include "net/query_engine.h"
#include "net/scheme.h"
#include "net/scheme_adapter.h"
#include "net/simulator.h"
#include "rt/metric.h"
#include "util/rng.h"
#include "util/stats.h"
#include "util/text_table.h"

namespace rtr::bench {

/// Aggregated stretch measurements for one (scheme, instance) cell -- the
/// engine's report type, shared with the serving layer.
using StretchReport = ::rtr::StretchReport;

struct ExperimentInstance {
  std::shared_ptr<const Digraph> graph_ptr;
  NameAssignment names = NameAssignment::identity(0);
  std::shared_ptr<const RoundtripMetric> metric;

  [[nodiscard]] const Digraph& graph() const { return *graph_ptr; }
  [[nodiscard]] NodeId n() const { return graph_ptr->node_count(); }

  /// The instance as a registry BuildContext (scheme randomness from `seed`).
  [[nodiscard]] BuildContext context(
      std::uint64_t seed, std::map<std::string, std::string> options = {}) const {
    return BuildContext::wrap(graph_ptr, metric, names, seed,
                              std::move(options));
  }
};

/// Builds a family instance with adversarial ports and names.
[[nodiscard]] ExperimentInstance build_instance(Family family, NodeId n,
                                                Weight max_weight,
                                                std::uint64_t seed);

/// Builds a registered scheme over the instance by name.
[[nodiscard]] std::shared_ptr<const Scheme> build_scheme(
    const ExperimentInstance& inst, const std::string& scheme_name,
    std::uint64_t seed, std::map<std::string, std::string> options = {});

/// Registry/engine measurement path: runs `pair_budget` sampled ordered pairs
/// (all pairs if the budget covers them) through the scheme across `threads`
/// workers (0: hardware concurrency) and aggregates stretch.
[[nodiscard]] StretchReport measure_stretch(const ExperimentInstance& inst,
                                            std::shared_ptr<const Scheme> scheme,
                                            std::int64_t pair_budget,
                                            std::uint64_t seed,
                                            int threads = 0);

/// Exit-code gate: notes `failures` measured failures (with a context label
/// for the first diagnostic).  Every measure_stretch call reports into this
/// automatically, so a bench binary whose main returns finish() exits
/// non-zero as soon as any query fails.
void gate_failures(std::int64_t failures, const std::string& context);

/// Records a measured cell in the shared BENCH_<rev>.json schema; written by
/// finish() when RTR_BENCH_JSON names an output path.
void record_cell(bench_harness::CellResult cell);

/// The bench main's return value: 0 iff no gated failure was noted.  When
/// the RTR_BENCH_JSON environment variable is set, first writes all recorded
/// cells there as an rtr-bench/1 document ("tool" = `tool`, rev from
/// RTR_BENCH_REV or "dev"), so the experiment binaries' numbers land in the
/// same machine-readable schema the rtr_bench orchestrator emits.
[[nodiscard]] int finish(const std::string& tool);

/// Concrete-scheme overload: wraps `scheme` (non-owning; the caller keeps it
/// alive) as an rtr::Scheme and measures it on one worker through the
/// engine overload above.
template <TemplatedScheme S>
StretchReport measure_stretch(const ExperimentInstance& inst, const S& scheme,
                              std::int64_t pair_budget, std::uint64_t seed) {
  return measure_stretch(
      inst, adapt_scheme(std::shared_ptr<const S>(&scheme, [](const S*) {})),
      pair_budget, seed, /*threads=*/1);
}

/// Pretty banner for a bench section.
void print_banner(const std::string& experiment, const std::string& artifact,
                  const std::string& what);

}  // namespace rtr::bench

#endif  // RTR_BENCH_COMMON_H
