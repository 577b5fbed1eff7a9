// The benchmark's own closed-loop client for rtr_routed's two protocols,
// written against docs/protocol.md rather than the library's codecs or its
// load generator, so a change to either cannot move the client's numbers or
// hide a framing defect behind a symmetric one.
//
// One thread drives every connection (poll over the sockets); each
// connection keeps exactly one request in flight and sends the next only
// when the previous answer has arrived.  Requests are taken in order from a
// fixed list, cycled in whole passes: the run stops issuing once its time is
// up AND the list has been completed, so every pass answers the same set.
#ifndef PERFBENCH_CLIENT_H
#define PERFBENCH_CLIENT_H

#include <cstdint>
#include <functional>
#include <string>
#include <utility>
#include <vector>

namespace perfbench {

enum class Protocol { kHttp, kWire };

/// One route answer as it came off the wire.
struct Answer {
  std::uint32_t error = 0;  ///< serving error value (0 = delivered)
  int http_status = 0;      ///< 0 on rtr-wire/1
  std::uint64_t epoch = 0;
  std::int64_t roundtrip_length = 0;
  std::int64_t out_hops = 0;
  std::int64_t back_hops = 0;
  std::int64_t max_header_bits = 0;
};

/// Request bytes exactly as the client sends them (one request).
[[nodiscard]] std::string http_route_request(std::int32_t src,
                                             std::int32_t dst);
[[nodiscard]] std::string wire_route_request(std::int32_t src,
                                             std::int32_t dst);
inline constexpr char kWirePreamble[] = "RTRWIRE1";

enum class ParseStatus { kNeedMore, kOk, kMalformed };

/// Parses one response from the front of `buffer`, consuming it on kOk.
[[nodiscard]] ParseStatus parse_http_answer(std::string& buffer, Answer& out);
[[nodiscard]] ParseStatus parse_wire_answer(std::string& buffer, Answer& out);

struct ClientOptions {
  Protocol protocol = Protocol::kHttp;
  int port = 0;
  int connections = 1;
  /// (src name, dst name) pairs, cycled in whole passes.
  const std::vector<std::pair<std::int32_t, std::int32_t>>* requests = nullptr;
  /// Send requests until this much time has passed (then finish the pass).
  double seconds = 0;
};

struct ClientRun {
  std::vector<double> latency_us;  ///< one per answered request
  std::int64_t sent = 0;
  std::int64_t answered = 0;
  std::int64_t transport_errors = 0;
  std::string first_error;
  double wall_seconds = 0;
};

/// Runs the closed loop.  `on_answer(request_index, answer)` is called for
/// every answer outside the latency timing (the benchmark's correctness
/// check).  Connection failures are counted, never thrown.
[[nodiscard]] ClientRun run_closed_loop(
    const ClientOptions& options,
    const std::function<void(std::size_t, const Answer&)>& on_answer);

}  // namespace perfbench

#endif  // PERFBENCH_CLIENT_H
