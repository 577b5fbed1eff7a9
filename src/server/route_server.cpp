#include "server/route_server.h"

#include <arpa/inet.h>
#include <netinet/in.h>
#include <sys/epoll.h>
#include <sys/eventfd.h>
#include <sys/socket.h>
#include <unistd.h>

#include <algorithm>
#include <cerrno>
#include <charconv>
#include <chrono>
#include <stdexcept>
#include <unordered_map>
#include <utility>

#include "server/wire.h"

namespace rtr {

namespace {

using Clock = std::chrono::steady_clock;

/// Bytes read from one session per loop turn; bounds one turn's batch.
constexpr std::size_t kReadChunk = 16 * 1024;
/// Backpressure: a session whose unsent output exceeds this is not read
/// again until the peer drains it.
constexpr std::size_t kMaxUnsentBytes = 256 * 1024;
/// Connections past max_connections are held only until they can be refused
/// in their own protocol; past this many more, one is closed on accept.
constexpr std::int64_t kRefusalSlots = 64;
constexpr int kMaxEvents = 64;

/// The RouteServerStats counters with their /stats keys, in /stats order.
constexpr std::pair<const char*, std::uint64_t RouteServerStats::*>
    kCounters[] = {
        {"connections", &RouteServerStats::connections},
        {"http_requests", &RouteServerStats::http_requests},
        {"wire_requests", &RouteServerStats::wire_requests},
        {"queries_ok", &RouteServerStats::queries_ok},
        {"batches", &RouteServerStats::batches},
        {"batched_queries", &RouteServerStats::batched_queries},
        {"max_batch", &RouteServerStats::max_batch},
        {"protocol_errors", &RouteServerStats::protocol_errors},
        {"refused_connections", &RouteServerStats::refused_connections},
        {"idle_closed", &RouteServerStats::idle_closed},
        {"accept_errors", &RouteServerStats::accept_errors},
};

void bump(std::uint64_t& counter, std::uint64_t n = 1) {
  std::atomic_ref<std::uint64_t>(counter).fetch_add(n,
                                                    std::memory_order_relaxed);
}

void count_result(RouteServerStats& counters, const ServingResult& result) {
  const auto code = static_cast<std::size_t>(result.error);
  bump(result.ok() ? counters.queries_ok : counters.errors[code < 6 ? code : 0]);
}

/// Full-consumption integer parse for query parameters; rejects "", "12x",
/// and values outside NodeName's 32-bit range.
[[nodiscard]] bool parse_name(const std::string& s, NodeName& out) {
  std::int64_t v = 0;
  const char* begin = s.data();
  const char* end = begin + s.size();
  const auto [ptr, ec] = std::from_chars(begin, end, v);
  if (ec != std::errc{} || ptr != end) return false;
  if (v < INT32_MIN || v > INT32_MAX) return false;
  out = static_cast<NodeName>(v);
  return true;
}

/// {"error": token}, the body of every HTTP answer that is not a route.
[[nodiscard]] std::string error_body(const char* token) {
  Json body{JsonObject{}};
  body.set("error", token);
  return body.dump();
}

/// Adds `fd` to (or, with EPOLL_CTL_MOD, re-arms it in) an epoll set.
[[nodiscard]] bool watch(int epoll_fd, int op, int fd, std::uint32_t events) {
  epoll_event ev{};
  ev.events = events;
  ev.data.fd = fd;
  return ::epoll_ctl(epoll_fd, op, fd, &ev) == 0;
}

}  // namespace

int http_status_for(const ServingResult& result) {
  switch (result.error) {
    case ServingError::kNone:
    case ServingError::kUnreachable:
      return 200;
    case ServingError::kInvalidName:
    case ServingError::kInvalidQuery:
      return 400;
    case ServingError::kSchemeFailure:
      return 500;
    case ServingError::kEpochUnavailable:
      return 503;
  }
  return 500;
}

Json route_response_json(NodeName src, NodeName dst,
                         const ServingResult& result) {
  Json body{JsonObject{}};
  body.set("ok", result.ok());
  body.set("error", serving_error_name(result.error));
  body.set("epoch", static_cast<std::int64_t>(result.epoch));
  body.set("src", static_cast<std::int64_t>(src));
  body.set("dst", static_cast<std::int64_t>(dst));
  if (result.ok()) {
    body.set("roundtrip_length",
             static_cast<std::int64_t>(result.route.roundtrip_length()));
    body.set("out_hops", static_cast<std::int64_t>(result.route.out_hops));
    body.set("back_hops", static_cast<std::int64_t>(result.route.back_hops));
    body.set("max_header_bits",
             static_cast<std::int64_t>(result.route.max_header_bits));
  } else {
    body.set("message", result.message);
  }
  return body;
}

/// An epoll set over the shared listening socket, the stop eventfd and the
/// sessions this loop accepted.  Only the loop's own thread touches it once
/// the server is constructed.
class RouteServer::Loop {
 public:
  /// Takes ownership of `epoll_fd`.
  Loop(RouteServer& server, int epoll_fd)
      : server_(server), counters_(server.counters_), epoll_fd_(epoll_fd) {}
  ~Loop() {
    for (const auto& entry : sessions_) release(entry.first);
    ::close(epoll_fd_);
  }
  Loop(const Loop&) = delete;
  Loop& operator=(const Loop&) = delete;

  /// One turn per wake-up: read and parse every ready session, answer the
  /// turn's queries from one pinned epoch, write each session's answers.
  /// Returns when the stop eventfd fires.
  void run() {
    epoll_event events[kMaxEvents];
    while (true) {
      const int ready =
          ::epoll_wait(epoll_fd_, events, kMaxEvents, timeout_ms());
      if (ready < 0 && errno != EINTR) return;
      now_ = Clock::now();
      for (int i = 0; i < ready; ++i) {
        const int fd = events[i].data.fd;
        if (fd == server_.stop_fd_) return;
        if (fd == server_.listen_fd_) {
          accept_all();
          continue;
        }
        const auto it = sessions_.find(fd);
        if (it == sessions_.end()) continue;
        touched_.push_back(&it->second);  // flushed below, whatever woke it
        if ((events[i].events & (EPOLLIN | EPOLLERR | EPOLLHUP)) != 0) {
          read(it->second);
        }
      }
      answer_turn();
      for (Session* s : touched_) flush(*s);
      touched_.clear();
      queries_.clear();
      answers_.clear();
      if (now_ >= next_expiry_) expire();
    }
  }

 private:
  enum class Protocol { kUnknown, kHttp, kWire };

  struct Session {
    int fd = -1;
    Protocol protocol = Protocol::kUnknown;
    std::string in;   ///< bytes read but not yet parsed
    std::string out;  ///< encoded answers; out[sent..] is unsent
    std::size_t sent = 0;
    Clock::time_point deadline;
    std::uint32_t watched = EPOLLIN;  ///< epoll events registered
    bool refused = false;  ///< past max_connections: refuse, then close
    bool closing = false;  ///< parse no more; close once `out` drains
    bool dead = false;     ///< peer gone or socket error: close now
  };

  /// One answer owed this turn, in its session's request order: encoded
  /// already (`bytes`), or the `query`th result of the turn's batch.
  struct Answer {
    Session* session = nullptr;
    std::string bytes;
    std::size_t query = kNoQuery;
    NodeName src = 0;
    NodeName dst = 0;
    bool http = false;
    bool keep_alive = true;

    [[nodiscard]] std::string encode(const ServingResult& result) const {
      if (!http) return encode_wire_response(result);
      return make_http_response(http_status_for(result),
                                route_response_json(src, dst, result).dump(),
                                keep_alive);
    }
  };
  static constexpr std::size_t kNoQuery = static_cast<std::size_t>(-1);

  /// Drains the accept queue.  The listener is edge-triggered, so a failing
  /// accept() (EMFILE and the like) is counted and retried at the next
  /// connection instead of being spun on.
  void accept_all() {
    const RouteServerOptions& options = server_.options_;
    while (true) {
      const int fd = ::accept4(server_.listen_fd_, nullptr, nullptr,
                               SOCK_NONBLOCK | SOCK_CLOEXEC);
      if (fd < 0 && (errno == EINTR || errno == ECONNABORTED)) continue;
      if (fd < 0) {
        if (errno != EAGAIN && errno != EWOULDBLOCK) {
          bump(counters_.accept_errors);
        }
        return;
      }
      bump(counters_.connections);
      const std::int64_t open =
          server_.open_sessions_.fetch_add(1, std::memory_order_relaxed);
      const bool refused = open >= options.max_connections;
      if (refused) bump(counters_.refused_connections);
      const bool overflow = open >= options.max_connections + kRefusalSlots;
      if (overflow || !watch(epoll_fd_, EPOLL_CTL_ADD, fd, EPOLLIN)) {
        if (!overflow) bump(counters_.accept_errors);
        release(fd);
        continue;
      }
      Session& s = sessions_[fd];
      s.fd = fd;
      s.refused = refused;
      s.deadline = deadline();
      next_expiry_ = std::min(next_expiry_, s.deadline);
    }
  }

  void read(Session& s) {
    const ssize_t n = ::recv(s.fd, chunk_, sizeof(chunk_), 0);
    if (n == 0) s.closing = true;  // requests before the FIN are answered
    if (n < 0 && errno != EAGAIN && errno != EWOULDBLOCK && errno != EINTR) {
      s.dead = true;
    }
    if (n <= 0) return;
    s.in.append(chunk_, static_cast<std::size_t>(n));
    while (!s.closing && parse_one(s)) {
    }
  }

  /// Parses one request off the front of `s.in` and queues its answer;
  /// false when no complete request is buffered or the session must close.
  [[nodiscard]] bool parse_one(Session& s) {
    if (s.protocol == Protocol::kUnknown) {
      if (s.in.empty()) return false;
      if (s.in[0] != kWirePreamble[0]) {
        s.protocol = Protocol::kHttp;
      } else {
        if (s.in.size() < kWirePreambleBytes) return false;
        if (s.in.compare(0, kWirePreambleBytes, kWirePreamble,
                         kWirePreambleBytes) != 0) {
          return protocol_error(s);
        }
        s.in.erase(0, kWirePreambleBytes);
        s.protocol = Protocol::kWire;
        // rtr-wire/1 has no refusal frame: a refused session is closed.
        s.closing = s.refused;
        return !s.closing;
      }
    }
    if (s.protocol == Protocol::kWire) {
      WireRequest request;
      const WireParseStatus status = parse_wire_request(s.in, request);
      if (status == WireParseStatus::kNeedMore) return false;
      if (status == WireParseStatus::kMalformed) return protocol_error(s);
      bump(counters_.wire_requests);
      s.deadline = deadline();
      submit(Answer{&s, {}, kNoQuery, request.src, request.dst});
      return true;
    }
    HttpRequest request;
    const HttpParseStatus status =
        parse_http_request(s.in, request, server_.options_.http_limits);
    if (status == HttpParseStatus::kNeedMore) return false;
    if (status != HttpParseStatus::kOk) {
      const int code = status == HttpParseStatus::kUriTooLong        ? 414
                       : status == HttpParseStatus::kHeadersTooLarge ? 431
                                                                     : 400;
      reply(s, code, error_body("malformed_request"), false);
      return protocol_error(s);
    }
    s.deadline = deadline();
    if (s.refused) {
      reply(s, 503, error_body("overloaded"), false);
      s.closing = true;
      return false;
    }
    handle_http(s, request);
    s.closing = !request.keep_alive;
    return !s.closing;
  }

  [[nodiscard]] bool protocol_error(Session& s) {
    bump(counters_.protocol_errors);
    s.closing = true;
    return false;
  }

  void handle_http(Session& s, const HttpRequest& request) {
    bump(counters_.http_requests);
    const ServingSource& source = server_.source_;
    const bool keep_alive = request.keep_alive;
    if (request.method != "GET") {
      reply(s, 405, error_body("method_not_allowed"), keep_alive);
    } else if (request.path == "/healthz") {
      const auto epoch = source.current_epoch();
      Json body{JsonObject{}};
      body.set("status", epoch != nullptr ? "ok" : "unavailable");
      body.set("scheme", source.scheme_name());
      body.set("nodes",
               static_cast<std::int64_t>(source.names().node_count()));
      if (epoch != nullptr) {
        body.set("epoch", static_cast<std::int64_t>(epoch->seq));
      }
      reply(s, epoch != nullptr ? 200 : 503, body.dump(), keep_alive);
    } else if (request.path == "/stats") {
      reply(s, 200, server_.stats_json().dump(), keep_alive);
    } else if (request.path == "/route") {
      const std::string* src_raw = find_query_param(request, "src");
      const std::string* dst_raw = find_query_param(request, "dst");
      // An explicit scheme selector must match what this process serves --
      // epochs of a different scheme live in a different rtr_routed.
      const std::string* scheme = find_query_param(request, "scheme");
      Answer a{&s, {}, kNoQuery, 0, 0, /*http=*/true, keep_alive};
      if (src_raw == nullptr || dst_raw == nullptr ||
          !parse_name(*src_raw, a.src) || !parse_name(*dst_raw, a.dst)) {
        a.src = a.dst = 0;
        answer(std::move(a), ServingResult::failure(
                                 ServingError::kInvalidQuery,
                                 "src and dst must be integer node names"));
      } else if (scheme != nullptr && *scheme != source.scheme_name()) {
        answer(std::move(a), ServingResult::failure(
                                 ServingError::kEpochUnavailable,
                                 "scheme " + *scheme + " not served (serving " +
                                     source.scheme_name() + ")"));
      } else {
        submit(std::move(a));
      }
    } else {
      reply(s, 404, error_body("not_found"), keep_alive);
    }
  }

  /// Queues a route query for the turn's batch, or answers it now when a
  /// name is unknown to the fixed naming (as EpochManager::roundtrip_by_name
  /// does); the batch works in node ids.
  void submit(Answer a) {
    const NameAssignment& names = server_.source_.names();
    const NodeName n = names.node_count();
    if (a.src < 0 || a.src >= n || a.dst < 0 || a.dst >= n) {
      const NodeName bad = (a.src < 0 || a.src >= n) ? a.src : a.dst;
      answer(std::move(a),
             ServingResult::failure(ServingError::kInvalidName,
                                    "unknown name " + std::to_string(bad)));
      return;
    }
    a.query = queries_.size();
    queries_.push_back(RoundtripQuery{names.id_of(a.src), names.id_of(a.dst)});
    answers_.push_back(std::move(a));
  }

  /// Queues `a` answered now with `result`.
  void answer(Answer a, const ServingResult& result) {
    count_result(counters_, result);
    a.bytes = a.encode(result);
    answers_.push_back(std::move(a));
  }

  void reply(Session& s, int status, const std::string& body,
             bool keep_alive) {
    answers_.push_back(
        Answer{&s, make_http_response(status, body, keep_alive)});
  }

  void answer_turn() {
    std::vector<ServingResult> results;
    if (!queries_.empty()) {
      // ONE epoch pin for the whole turn: every query in it is answered by
      // the same (graph, scheme, names) triple even if an epoch swap lands
      // mid-batch.
      const auto epoch = server_.source_.current_epoch();
      if (epoch == nullptr) {
        results.assign(queries_.size(),
                       ServingResult::failure(ServingError::kEpochUnavailable,
                                              "no epoch available"));
      } else {
        BatchOptions batch_options;
        batch_options.threads = server_.options_.batch_threads;
        results = epoch->engine->serve_batch(queries_, batch_options);
        for (ServingResult& r : results) r.epoch = epoch->seq;
        const std::uint64_t size = queries_.size();
        bump(counters_.batches);
        bump(counters_.batched_queries, size);
        std::atomic_ref<std::uint64_t> max_batch(counters_.max_batch);
        std::uint64_t seen = max_batch.load(std::memory_order_relaxed);
        while (size > seen && !max_batch.compare_exchange_weak(
                                  seen, size, std::memory_order_relaxed)) {
        }
      }
    }
    for (const Answer& a : answers_) {
      if (a.query == kNoQuery) {
        a.session->out += a.bytes;
      } else {
        count_result(counters_, results[a.query]);
        a.session->out += a.encode(results[a.query]);
      }
    }
  }

  /// One send of the session's unsent output; then close it, or re-arm its
  /// epoll events: EPOLLOUT while output is pending, EPOLLIN unless closing
  /// or over the unsent-output cap (backpressure).
  void flush(Session& s) {
    if (!s.dead && s.sent < s.out.size()) {
      const ssize_t n = ::send(s.fd, s.out.data() + s.sent,
                               s.out.size() - s.sent, MSG_NOSIGNAL);
      if (n > 0) {
        s.sent += static_cast<std::size_t>(n);
        s.deadline = deadline();
      } else if (errno != EAGAIN && errno != EWOULDBLOCK && errno != EINTR) {
        s.dead = true;
      }
      if (s.sent == s.out.size()) {
        s.out.clear();
        s.sent = 0;
      }
    }
    const std::size_t unsent = s.out.size() - s.sent;
    if (s.dead || (s.closing && unsent == 0)) return close(s);
    const std::uint32_t want =
        (s.closing || unsent > kMaxUnsentBytes ? 0u : std::uint32_t{EPOLLIN}) |
        (unsent > 0 ? std::uint32_t{EPOLLOUT} : 0u);
    if (want == s.watched) return;
    if (!watch(epoll_fd_, EPOLL_CTL_MOD, s.fd, want)) return close(s);
    s.watched = want;
  }

  /// Closes every session past its deadline (counted in idle_closed).
  void expire() {
    next_expiry_ = Clock::time_point::max();
    for (auto it = sessions_.begin(); it != sessions_.end();) {
      if (it->second.deadline > now_) {
        next_expiry_ = std::min(next_expiry_, it->second.deadline);
        ++it;
        continue;
      }
      bump(counters_.idle_closed);
      release(it->first);
      it = sessions_.erase(it);
    }
  }

  [[nodiscard]] int timeout_ms() const {
    if (next_expiry_ == Clock::time_point::max()) return -1;
    const auto left =
        std::chrono::ceil<std::chrono::milliseconds>(next_expiry_ - now_);
    return static_cast<int>(std::max<std::int64_t>(left.count(), 0));
  }

  [[nodiscard]] Clock::time_point deadline() const {
    return now_ + std::chrono::milliseconds(server_.options_.idle_timeout_ms);
  }

  void release(int fd) {
    ::close(fd);  // also drops it from the epoll set
    server_.open_sessions_.fetch_sub(1, std::memory_order_relaxed);
  }

  void close(Session& s) {
    const int fd = s.fd;
    release(fd);
    sessions_.erase(fd);
  }

  RouteServer& server_;
  RouteServerStats& counters_;
  const int epoll_fd_;
  std::unordered_map<int, Session> sessions_;
  Clock::time_point now_;
  /// No session's deadline is earlier: sessions are scanned only once it
  /// passes, since activity only ever moves a deadline later.
  Clock::time_point next_expiry_ = Clock::time_point::max();
  std::vector<Session*> touched_;
  std::vector<RoundtripQuery> queries_;
  std::vector<Answer> answers_;
  char chunk_[kReadChunk];
};

RouteServer::RouteServer(const ServingSource& source,
                         RouteServerOptions options)
    : source_(source), options_(std::move(options)) {
  const auto fail = [this](const std::string& why) {
    if (listen_fd_ >= 0) ::close(listen_fd_);
    if (stop_fd_ >= 0) ::close(stop_fd_);
    throw std::runtime_error("RouteServer: " + why);
  };
  listen_fd_ = ::socket(AF_INET, SOCK_STREAM | SOCK_NONBLOCK | SOCK_CLOEXEC, 0);
  if (listen_fd_ < 0) fail("socket() failed");
  const int one = 1;
  (void)::setsockopt(listen_fd_, SOL_SOCKET, SO_REUSEADDR, &one, sizeof(one));

  sockaddr_in addr{};
  addr.sin_family = AF_INET;
  addr.sin_port = htons(static_cast<std::uint16_t>(options_.port));
  if (::inet_pton(AF_INET, options_.bind_address.c_str(), &addr.sin_addr) !=
      1) {
    fail("bad bind address " + options_.bind_address);
  }
  if (::bind(listen_fd_, reinterpret_cast<const sockaddr*>(&addr),
             sizeof(addr)) != 0 ||
      ::listen(listen_fd_, 128) != 0) {
    fail("cannot bind " + options_.bind_address + ":" +
         std::to_string(options_.port));
  }
  sockaddr_in bound{};
  socklen_t bound_len = sizeof(bound);
  if (::getsockname(listen_fd_, reinterpret_cast<sockaddr*>(&bound),
                    &bound_len) == 0) {
    port_ = static_cast<int>(ntohs(bound.sin_port));
  }
  stop_fd_ = ::eventfd(0, EFD_NONBLOCK | EFD_CLOEXEC);
  if (stop_fd_ < 0) fail("eventfd() failed");

  // Every loop watches the stop eventfd and the listening socket: edge-
  // triggered (see Loop::accept_all) and EPOLLEXCLUSIVE, so a connection
  // wakes one loop, not all of them.
  for (int i = 0; i < std::max(options_.acceptor_threads, 1); ++i) {
    const int epoll_fd = ::epoll_create1(EPOLL_CLOEXEC);
    if (epoll_fd < 0) fail("epoll_create1() failed");
    loops_.push_back(std::make_unique<Loop>(*this, epoll_fd));
    if (!watch(epoll_fd, EPOLL_CTL_ADD, stop_fd_, EPOLLIN) ||
        !watch(epoll_fd, EPOLL_CTL_ADD, listen_fd_,
               EPOLLIN | EPOLLET | EPOLLEXCLUSIVE)) {
      fail("epoll_ctl() failed");
    }
  }
  try {
    for (auto& loop : loops_) {
      threads_.emplace_back([l = loop.get()] { l->run(); });
    }
  } catch (...) {
    stop();  // joins the loops already running before their state goes
    throw;
  }
}

RouteServer::~RouteServer() { stop(); }

void RouteServer::stop() {
  if (stopped_.exchange(true)) return;
  // The eventfd is never read, so it stays readable: every loop wakes,
  // leaves its turn and exits.
  const std::uint64_t one = 1;
  const ssize_t wrote = ::write(stop_fd_, &one, sizeof(one));
  (void)wrote;
  for (auto& t : threads_) t.join();
  loops_.clear();  // closes every session and epoll set
  ::close(listen_fd_);
  ::close(stop_fd_);
  listen_fd_ = -1;
  stop_fd_ = -1;
}

RouteServerStats RouteServer::stats() const {
  const auto load = [](std::uint64_t& counter) {
    return std::atomic_ref<std::uint64_t>(counter).load(
        std::memory_order_relaxed);
  };
  RouteServerStats s;
  for (const auto& [key, field] : kCounters) s.*field = load(counters_.*field);
  for (std::size_t i = 0; i < 6; ++i) s.errors[i] = load(counters_.errors[i]);
  return s;
}

Json RouteServer::stats_json() const {
  const RouteServerStats s = stats();
  Json doc{JsonObject{}};
  doc.set("schema", "rtr-stats/1");
  doc.set("scheme", source_.scheme_name());
  for (const auto& [key, field] : kCounters) {
    doc.set(key, static_cast<std::int64_t>(s.*field));
  }
  Json errors{JsonObject{}};
  for (std::size_t i = 1; i < 6; ++i) {
    errors.set(serving_error_name(static_cast<ServingError>(i)),
               static_cast<std::int64_t>(s.errors[i]));
  }
  doc.set("errors", std::move(errors));
  const ServingSource::RebuildStats r = source_.rebuild_stats();
  doc.set("epochs_built", static_cast<std::int64_t>(r.epochs_built));
  doc.set("repairs", static_cast<std::int64_t>(r.repairs));
  doc.set("repair_fallbacks", static_cast<std::int64_t>(r.repair_fallbacks));
  doc.set("repair_failures", static_cast<std::int64_t>(r.repair_failures));
  doc.set("shm_publish_failures",
          static_cast<std::int64_t>(r.shm_publish_failures));
  doc.set("last_rebuild_ms", r.last_rebuild_ms);
  doc.set("last_repair_ms", r.last_repair_ms);
  const auto epoch = source_.current_epoch();
  if (epoch != nullptr) {
    doc.set("epoch", static_cast<std::int64_t>(epoch->seq));
  }
  return doc;
}

}  // namespace rtr
