// Shared driver for the live-churn serving workload.
//
// `rtr_cli churn` and bench/churn_serving.cpp run the same experiment --
// hammer threads issuing name-keyed roundtrips nonstop while the control
// thread churns the topology through background epoch rebuilds, with a
// deterministic sampled stretch batch against each epoch as it becomes
// current.  This harness is that experiment, once, so the two front ends
// cannot drift; they differ only in how they pick parameters and what they
// wrap around the JSON row.
#ifndef RTR_SERVE_CHURN_HARNESS_H
#define RTR_SERVE_CHURN_HARNESS_H

#include <cstdint>
#include <string>

#include "core/names.h"
#include "graph/churn.h"
#include "graph/digraph.h"
#include "serve/epoch_manager.h"
#include "util/json.h"

namespace rtr {

struct ChurnRunOptions {
  std::string scheme = "stretch6";
  int epochs = 3;          ///< background rebuilds after epoch 0
  int hammer_threads = 4;  ///< client threads querying nonstop
  std::uint64_t seed = 1;  ///< hammer traffic + stretch batch + churn draws
  /// Budget for the per-epoch stretch-continuity batch (clamped to n(n-1)).
  std::int64_t stretch_pairs = 2000;
  ChurnOptions churn;                  ///< per-step topology mutation
  EpochManagerOptions manager;         ///< cache_dir, engine threads, ...
};

struct ChurnRunResult {
  Json json;                 ///< the report row (front ends may add keys)
  std::uint64_t queries = 0;
  std::uint64_t failures = 0;           ///< hammer roundtrips not delivered
  std::int64_t stretch_failures = 0;    ///< failures across the epoch batches
  std::uint64_t epochs_completed = 0;   ///< rebuilds that published
  std::uint64_t served_during_rebuilds = 0;
  double availability = 1.0;
  double wall_seconds = 0;             ///< whole-run serving wall time
  /// Epoch-0 deterministic stretch batch (the BENCH-schema cell the bench
  /// front end records).
  std::int64_t stretch_pairs = 0;
  double mean_stretch = 0;
  double p99_stretch = 0;
  double max_stretch = 0;
  std::string first_error;  ///< earliest stretch-batch error message
  std::string last_error;   ///< rebuild failure, "" when none
  /// Incremental-repair accounting (all zero unless the manager options
  /// enabled repair): epochs published via SchemeRegistry::repair(),
  /// non-empty deltas that fell back to a full build, and the wall ms of
  /// the most recent full/background preprocess and successful repair.
  std::uint64_t repairs = 0;
  std::uint64_t repair_fallbacks = 0;
  double last_rebuild_ms = 0;
  double last_repair_ms = 0;

  /// The acceptance bar: every rebuild published and nothing ever failed.
  [[nodiscard]] bool ok(int expected_epochs) const {
    return failures == 0 && stretch_failures == 0 && last_error.empty() &&
           epochs_completed == static_cast<std::uint64_t>(expected_epochs);
  }
};

/// Runs the workload over `initial` with the fixed `names`.  Blocks until
/// all epochs are published (or a rebuild fails) and the hammers are joined.
[[nodiscard]] ChurnRunResult run_churn_workload(Digraph initial,
                                                NameAssignment names,
                                                const ChurnRunOptions& options);

}  // namespace rtr

#endif  // RTR_SERVE_CHURN_HARNESS_H
