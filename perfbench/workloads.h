// The benchmark's workloads.  Each takes its seed (and every other input)
// from RunConfig, builds its inputs from that seed alone, and returns either
// its end-to-end metrics (untraced run) or its per-layer metrics (traced
// replay), with every operation attempted and every failure counted.
#ifndef PERFBENCH_WORKLOADS_H
#define PERFBENCH_WORKLOADS_H

#include "client.h"
#include "report.h"
#include "util/types.h"

namespace perfbench {

/// Instance sizes; tests shrink them to keep the determinism checks fast.
struct Sizes {
  rtr::NodeId serve_nodes = 1024;
  rtr::NodeId churn_nodes = 2048;
  rtr::NodeId build_nodes = 1024;
  /// Distinct requests the serve clients cycle through.
  std::size_t serve_requests = 4096;
};

/// RouteServer over a StaticServingSource mapping a stretch6 v2 snapshot;
/// one HTTP/1.1 keep-alive client, or three rtr-wire/1 clients.
[[nodiscard]] WorkloadResult run_serve(const RunConfig& config,
                                       const Sizes& sizes, Protocol protocol);

/// EpochManager (rtz3, incremental repair, sparse metric, snapshot cache)
/// under a fixed three-step churn script with one in-process reader.
[[nodiscard]] WorkloadResult run_epoch_churn(const RunConfig& config,
                                             const Sizes& sizes);

/// Every registered scheme on one grid instance: metric, build, save, map,
/// load, and a verified sample of routes on built and mapped handles.
[[nodiscard]] WorkloadResult run_build_snapshot(const RunConfig& config,
                                                const Sizes& sizes);

}  // namespace perfbench

#endif  // PERFBENCH_WORKLOADS_H
