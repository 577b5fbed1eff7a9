#include "warm_start.h"

#include "host.h"
#include "io/snapshot.h"
#include "net/query_engine.h"

namespace perfbench {

bool same_route(const rtr::ServingResult& a, const rtr::ServingResult& b) {
  return a.ok() && b.ok() &&
         a.route.roundtrip_length() == b.route.roundtrip_length() &&
         a.route.out_hops == b.route.out_hops &&
         a.route.back_hops == b.route.back_hops &&
         a.route.max_header_bits == b.route.max_header_bits;
}

double measure_warm_start(const std::string& path, const std::string& scheme,
                          rtr::NodeId src, rtr::NodeId dst,
                          const rtr::ServingResult& want,
                          const RunConfig& config, WorkloadResult& out) {
  rtr::QueryEngineOptions options;
  options.threads = config.widths.query_threads;
  ++out.attempted;
  try {
    const Stopwatch clock;
    const rtr::SchemeHandle view = rtr::map_snapshot(path, scheme);
    const rtr::QueryEngine engine(view.graph_ptr(), nullptr, view.names(),
                                  view.scheme_ptr(), options);
    const rtr::ServingResult got = engine.serve(src, dst);
    const double ms = clock.ms();
    if (!same_route(got, want)) {
      out.fail("warm start " + scheme + ": mapped answer differs");
    }
    return ms;
  } catch (const std::exception& e) {
    out.fail("map " + scheme + ": " + e.what());
    return 0;
  }
}

}  // namespace perfbench
