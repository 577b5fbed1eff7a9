// warm_start_ms: how long a snapshot takes to answer again -- map_snapshot,
// bind a QueryEngine, answer one query.
#ifndef PERFBENCH_WARM_START_H
#define PERFBENCH_WARM_START_H

#include <string>

#include "net/serving.h"
#include "report.h"

namespace perfbench {

/// One warm start of `path`, in ms: map + bind + serve(src, dst).  The
/// answer must equal `want`; a failed map or a differing answer is a failed
/// operation in `out`.
[[nodiscard]] double measure_warm_start(const std::string& path,
                                        const std::string& scheme,
                                        rtr::NodeId src, rtr::NodeId dst,
                                        const rtr::ServingResult& want,
                                        const RunConfig& config,
                                        WorkloadResult& out);

/// Same delivered route: length, hops and header bits.
[[nodiscard]] bool same_route(const rtr::ServingResult& a,
                              const rtr::ServingResult& b);

}  // namespace perfbench

#endif  // PERFBENCH_WARM_START_H
