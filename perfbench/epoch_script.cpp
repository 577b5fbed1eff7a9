#include "epoch_script.h"

#include <filesystem>
#include <thread>

#include "graph/churn.h"
#include "graph/churn_delta.h"
#include "host.h"
#include "stats.h"

namespace perfbench {

namespace {

/// Share of the edges one script step touches.
constexpr double kChurnFraction = 0.01;

}  // namespace

const char* step_kind_name(StepKind kind) {
  switch (kind) {
    case StepKind::kSlackJitter:
      return "slack_jitter";
    case StepKind::kRewire:
      return "rewire";
    case StepKind::kRelabel:
      return "relabel";
  }
  return "?";
}

rtr::Digraph churn_topology(StepKind kind, const rtr::Digraph& g,
                            rtr::Rng& rng) {
  switch (kind) {
    case StepKind::kSlackJitter:
      return rtr::slack_jitter_step(g, kChurnFraction, rng);
    case StepKind::kRewire: {
      rtr::ChurnOptions churn;
      churn.rewire_fraction = kChurnFraction / 2;
      churn.perturb_fraction = kChurnFraction / 2;
      churn.reassign_ports = false;
      return rtr::churn_step(g, churn, rng);
    }
    case StepKind::kRelabel: {
      rtr::GraphBuilder builder(g);
      builder.assign_adversarial_ports(rng);
      return builder.freeze();
    }
  }
  return rtr::Digraph(g);
}

bool publish_step(rtr::EpochManager& manager, rtr::Digraph next, StepKind kind,
                  const std::string& cache_dir, WorkloadResult& out,
                  StepOutcome& outcome) {
  ++out.attempted;
  const rtr::EpochManager::Counters before = manager.counters();
  const std::uint64_t target = manager.epoch() + 1;
  const Stopwatch clock;
  if (!manager.begin_rebuild(std::move(next))) {
    out.fail("begin_rebuild refused: a rebuild is already in flight");
    return false;
  }
  // Poll until the new epoch is served; the rebuild thread finishing
  // without publishing it is a failed step.
  while (manager.current()->seq != target) {
    if (!manager.rebuild_in_flight() && manager.current()->seq != target) break;
    std::this_thread::sleep_for(std::chrono::microseconds(20));
  }
  const bool published = manager.current()->seq == target;
  outcome.staleness_ms = clock.ms();
  manager.wait_for_rebuild();
  if (!published) {
    out.fail(std::string(step_kind_name(kind)) +
             " step not published: " + manager.last_error());
    return false;
  }
  const rtr::EpochManager::Counters after = manager.counters();
  outcome.kind = kind;
  outcome.seq = target;
  outcome.repaired = after.repairs > before.repairs;
  outcome.fell_back = after.repair_fallbacks > before.repair_fallbacks;
  outcome.manager_ms = after.last_rebuild_ms;
  if (!outcome.repaired) {
    // Full builds save a snapshot to the cache; the manager swallows a
    // failed save, so its absence is the only visible trace of one.
    const std::string path = cache_dir + "/" + manager.scheme_name() +
                             "_epoch" + std::to_string(target) + ".rtrsnap";
    if (!std::filesystem::exists(path)) {
      out.fail("epoch " + std::to_string(target) +
               ": snapshot save failed (no cache file)");
    }
  }
  return true;
}

double median_staleness(const std::vector<StepOutcome>& steps, StepKind kind) {
  std::vector<double> values;
  for (const StepOutcome& s : steps) {
    if (s.kind == kind) values.push_back(s.staleness_ms);
  }
  return median(std::move(values));
}

std::vector<StepOutcome> run_update_probe(const std::string& scheme,
                                          const rtr::Digraph& initial,
                                          const rtr::NameAssignment& names,
                                          const RunConfig& config, int rounds,
                                          const std::string& cache_dir,
                                          WorkloadResult& out) {
  std::vector<StepOutcome> steps;
  rtr::EpochManagerOptions options;
  options.cache_dir = cache_dir;
  options.query_threads = config.widths.query_threads;
  options.scheme_seed = config.seed;
  options.enable_repair = true;
  ++out.attempted;
  try {
    std::filesystem::create_directories(cache_dir);
    rtr::Rng rng(config.seed + 17);
    // Shadowed links give slack jitter edges to re-price (see churn.h).
    rtr::Digraph topology = rtr::add_shadowed_links(initial, 0.05, rng);
    rtr::EpochManager manager(scheme, names, rtr::Digraph(topology), options);
    for (int r = 0; r < rounds; ++r) {
      for (const StepKind kind : {StepKind::kSlackJitter, StepKind::kRelabel}) {
        rtr::Digraph next = churn_topology(kind, topology, rng);
        if (rtr::diff_graphs(topology, next).empty()) continue;  // a no-op
        topology = std::move(next);
        StepOutcome outcome;
        if (publish_step(manager, rtr::Digraph(topology), kind, cache_dir, out,
                         outcome)) {
          steps.push_back(outcome);
        }
      }
    }
  } catch (const std::exception& e) {
    out.fail("update probe (" + scheme + "): " + e.what());
  }
  std::error_code ignored;
  std::filesystem::remove_all(cache_dir, ignored);
  return steps;
}

}  // namespace perfbench
