// The churn script every workload publishes through an EpochManager, and
// the staleness measurement of one published step: the time from
// begin_rebuild until current() returns the new epoch.
//
// Step kinds, each about 1% of the edges:
//   * slack jitter   -- weight increases on strictly slack edges; the
//                       repairable kind (staleness_repair_ms);
//   * rewire         -- port-stable rewire + perturb; repair is attempted
//                       and may fall back;
//   * relabel        -- a global adversarial port relabel; always a full
//                       rebuild (staleness_rebuild_ms).
#ifndef PERFBENCH_EPOCH_SCRIPT_H
#define PERFBENCH_EPOCH_SCRIPT_H

#include <cstdint>
#include <string>
#include <vector>

#include "graph/digraph.h"
#include "report.h"
#include "serve/epoch_manager.h"
#include "util/rng.h"

namespace perfbench {

enum class StepKind { kSlackJitter, kRewire, kRelabel };

[[nodiscard]] const char* step_kind_name(StepKind kind);

/// The next topology of the script: `kind` applied to `g` with `rng`.
[[nodiscard]] rtr::Digraph churn_topology(StepKind kind, const rtr::Digraph& g,
                                          rtr::Rng& rng);

struct StepOutcome {
  StepKind kind = StepKind::kSlackJitter;
  std::uint64_t seq = 0;
  double staleness_ms = 0;
  bool repaired = false;
  bool fell_back = false;
  /// EpochManager::counters().last_rebuild_ms for this step.
  double manager_ms = 0;
};

/// Publishes `next` and waits for it.  A failed rebuild, or a full build
/// whose snapshot did not reach `cache_dir`, is a failed operation counted
/// in `out`; the outcome is still returned when an epoch was published.
[[nodiscard]] bool publish_step(rtr::EpochManager& manager, rtr::Digraph next,
                                StepKind kind, const std::string& cache_dir,
                                WorkloadResult& out, StepOutcome& outcome);

/// Median staleness of the steps of one kind (0 when there are none).
[[nodiscard]] double median_staleness(const std::vector<StepOutcome>& steps,
                                      StepKind kind);

/// A short publish-only script for the workloads whose main loop is not
/// churn: `rounds` x (slack jitter, relabel) through a fresh EpochManager
/// for `scheme` on `initial` plus 5% shadowed links, with repair enabled and the snapshot cache
/// under `cache_dir`.  Gives every workload its own staleness figures.
[[nodiscard]] std::vector<StepOutcome> run_update_probe(
    const std::string& scheme, const rtr::Digraph& initial,
    const rtr::NameAssignment& names, const RunConfig& config, int rounds,
    const std::string& cache_dir, WorkloadResult& out);

}  // namespace perfbench

#endif  // PERFBENCH_EPOCH_SCRIPT_H
