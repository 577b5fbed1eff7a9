// The rtr_routed serving core: a TCP front end over the epoch serving stack.
//
// Connections speak either HTTP/1.1 (GET /route, /healthz, /stats --
// keep-alive and pipelining supported) or the rtr-wire/1 binary framing; the
// protocol is sniffed from the first byte of the connection (binary sessions
// open with the "RTRWIRE1" preamble, and no HTTP method starts with 'R').
//
// Request flow: `acceptor_threads` event loops share the listening socket
// (EPOLLEXCLUSIVE); each owns the non-blocking sessions it accepted.  On
// every wake-up a loop reads each ready session once, parses every complete
// request into one query vector, pins ONE epoch for ONE inline
// QueryEngine::serve_batch call (so an epoch swap never straddles a batch
// and pipelined requests batch too), encodes the answers in each session's
// request order -- /healthz, /stats, 4xx and invalid names answer inline in
// that order -- and writes each session's output with one send.  The
// server's thread count is `acceptor_threads` whatever the number of
// connections; intake is bounded by max_connections, idle_timeout_ms and a
// fixed cap on a session's unsent output, each with a /stats counter.
//
// The server reads its epochs through the ServingSource interface: the
// EpochManager adapter serves live-churn traffic (queries keep completing
// against the pinned epoch while the next one builds -- the availability
// property the net_serving bench gates at 1.0), and the static adapter
// serves one fixed epoch (e.g. rtr_routed --snapshot).
#ifndef RTR_SERVER_ROUTE_SERVER_H
#define RTR_SERVER_ROUTE_SERVER_H

#include <atomic>
#include <cstdint>
#include <memory>
#include <string>
#include <thread>
#include <vector>

#include "serve/epoch_manager.h"
#include "server/http.h"
#include "util/json.h"

namespace rtr {

/// Where the server gets the epoch it serves.  Implementations must be
/// thread-safe: every event-loop thread calls these.
class ServingSource {
 public:
  /// Epoch preprocessing counters surfaced through /stats: how the epochs
  /// this source serves came to be (full rebuilds vs incremental repairs)
  /// and what the most recent preprocess cost.
  struct RebuildStats {
    std::uint64_t epochs_built = 0;
    std::uint64_t repairs = 0;
    std::uint64_t repair_fallbacks = 0;
    std::uint64_t repair_failures = 0;
    std::uint64_t shm_publish_failures = 0;
    double last_rebuild_ms = 0.0;
    double last_repair_ms = 0.0;
  };

  virtual ~ServingSource() = default;
  /// The epoch to answer from; nullptr means kEpochUnavailable.
  [[nodiscard]] virtual std::shared_ptr<const Epoch> current_epoch() const = 0;
  /// The fixed TINN naming queries are keyed by.
  [[nodiscard]] virtual const NameAssignment& names() const = 0;
  [[nodiscard]] virtual const std::string& scheme_name() const = 0;
  /// All-zero default: a static source never rebuilds.
  [[nodiscard]] virtual RebuildStats rebuild_stats() const { return {}; }
};

/// Serves whatever epoch the manager currently publishes (live churn).
class ManagerServingSource final : public ServingSource {
 public:
  explicit ManagerServingSource(const EpochManager& manager)
      : manager_(manager) {}
  [[nodiscard]] std::shared_ptr<const Epoch> current_epoch() const override {
    return manager_.current();
  }
  [[nodiscard]] const NameAssignment& names() const override {
    return manager_.names();
  }
  [[nodiscard]] const std::string& scheme_name() const override {
    return manager_.scheme_name();
  }
  [[nodiscard]] RebuildStats rebuild_stats() const override {
    const EpochManager::Counters c = manager_.counters();
    return RebuildStats{c.epochs_built,         c.repairs,
                        c.repair_fallbacks,     c.repair_failures,
                        c.shm_publish_failures, c.last_rebuild_ms,
                        c.last_repair_ms};
  }

 private:
  const EpochManager& manager_;
};

/// Serves one fixed epoch forever (snapshot serving, tests).
class StaticServingSource final : public ServingSource {
 public:
  StaticServingSource(std::shared_ptr<const Epoch> epoch,
                      std::string scheme_name)
      : epoch_(std::move(epoch)), scheme_name_(std::move(scheme_name)) {}
  [[nodiscard]] std::shared_ptr<const Epoch> current_epoch() const override {
    return epoch_;
  }
  [[nodiscard]] const NameAssignment& names() const override {
    return epoch_->engine->names();
  }
  [[nodiscard]] const std::string& scheme_name() const override {
    return scheme_name_;
  }

 private:
  std::shared_ptr<const Epoch> epoch_;
  std::string scheme_name_;
};

struct RouteServerOptions {
  /// Loopback by default; the server is a trusted-network component.
  std::string bind_address = "127.0.0.1";
  /// 0 binds an ephemeral port; RouteServer::port() reports the actual one.
  int port = 0;
  /// Event-loop threads sharing one listening socket; each accepts and
  /// serves its own sessions.  The server runs this many threads whatever
  /// the number of connections; serve_batch adds transient workers only
  /// when its width (below) exceeds 1.
  int acceptor_threads = 1;
  /// Per-batch worker cap handed to QueryEngine::serve_batch (0 = the
  /// engine's configured width).  Each loop calls it inline.
  int batch_threads = 0;
  /// Open sessions across all loops.  A connection past it is accepted,
  /// answered 503 {"error":"overloaded"} (HTTP) or closed (rtr-wire/1), and
  /// counted in refused_connections.
  int max_connections = 512;
  /// A session that completes no request and drains no output for this
  /// long is closed and counted in idle_closed.
  int idle_timeout_ms = 60000;
  HttpLimits http_limits;
};

struct RouteServerStats {
  std::uint64_t connections = 0;
  std::uint64_t http_requests = 0;
  std::uint64_t wire_requests = 0;
  std::uint64_t queries_ok = 0;
  /// Indexed by ServingError enumerator value (0 unused -- that's kNone).
  std::uint64_t errors[6] = {0, 0, 0, 0, 0, 0};
  std::uint64_t batches = 0;
  std::uint64_t batched_queries = 0;
  std::uint64_t max_batch = 0;
  std::uint64_t protocol_errors = 0;  ///< malformed HTTP/wire inputs
  std::uint64_t refused_connections = 0;  ///< past max_connections
  std::uint64_t idle_closed = 0;          ///< closed at idle_timeout_ms
  std::uint64_t accept_errors = 0;        ///< accept() failures (EMFILE, ...)
};

class RouteServer {
 public:
  /// Binds and starts serving immediately (every event loop running when
  /// the constructor returns).  Throws std::runtime_error when the
  /// socket cannot be bound.  `source` must outlive the server.
  RouteServer(const ServingSource& source, RouteServerOptions options = {});
  ~RouteServer();

  RouteServer(const RouteServer&) = delete;
  RouteServer& operator=(const RouteServer&) = delete;

  /// The bound TCP port (resolves option `port` 0 to the actual ephemeral
  /// port via getsockname).
  [[nodiscard]] int port() const { return port_; }

  /// Wakes every loop through the stop eventfd, joins them and closes every
  /// session; returns at once.  Idempotent; also run by the destructor.
  void stop();

  [[nodiscard]] RouteServerStats stats() const;

  /// The /stats JSON document (also what the endpoint serves).
  [[nodiscard]] Json stats_json() const;

 private:
  /// One event loop and the sessions it owns (defined in route_server.cpp).
  class Loop;

  const ServingSource& source_;
  RouteServerOptions options_;
  int listen_fd_ = -1;
  int stop_fd_ = -1;  ///< eventfd, readable once stop() has run
  int port_ = 0;
  std::atomic<bool> stopped_{false};
  std::atomic<std::int64_t> open_sessions_{0};
  /// The live counters; every loop updates them through std::atomic_ref.
  mutable RouteServerStats counters_;
  std::vector<std::unique_ptr<Loop>> loops_;
  std::vector<std::thread> threads_;  ///< one per loop, joined by stop()
};

/// The JSON body for one /route answer ({"ok", "error", "epoch", ...});
/// shared by the server and the golden-response tests.
[[nodiscard]] Json route_response_json(NodeName src, NodeName dst,
                                       const ServingResult& result);

/// HTTP status for a ServingResult: 200 for delivered AND for unreachable
/// (a valid query whose answer is "no route"), 400 for the caller's bad
/// input, 500 for a scheme failure, 503 when no epoch is available.
[[nodiscard]] int http_status_for(const ServingResult& result);

}  // namespace rtr

#endif  // RTR_SERVER_ROUTE_SERVER_H
