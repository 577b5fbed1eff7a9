#include "client.h"

#include <arpa/inet.h>
#include <netinet/in.h>
#include <netinet/tcp.h>
#include <poll.h>
#include <sys/socket.h>
#include <unistd.h>

#include <cctype>
#include <cerrno>
#include <charconv>
#include <cstring>

#include "host.h"
#include "trace.h"

namespace perfbench {

namespace {

/// Serving error tokens in value order (docs/protocol.md, error taxonomy).
constexpr const char* kErrorTokens[] = {"none",        "invalid_name",
                                        "invalid_query", "unreachable",
                                        "scheme_failure", "epoch_unavailable"};

/// A poll with no answer for this long is a stalled server.
constexpr int kStallTimeoutMs = 10000;

void put_u32le(std::string& out, std::uint32_t v) {
  for (int i = 0; i < 4; ++i) {
    out.push_back(static_cast<char>((v >> (8 * i)) & 0xFFu));
  }
}

std::uint64_t get_le(const std::string& in, std::size_t offset, int bytes) {
  std::uint64_t v = 0;
  for (int i = bytes - 1; i >= 0; --i) {
    v = (v << 8) |
        static_cast<unsigned char>(in[offset + static_cast<std::size_t>(i)]);
  }
  return v;
}

/// Integer value of "key": in a flat JSON object; false when absent.
bool json_int(const std::string& body, const char* key, std::int64_t& out) {
  const std::string quoted = std::string("\"") + key + "\"";
  std::size_t at = body.find(quoted);
  if (at == std::string::npos) return false;
  at = body.find(':', at + quoted.size());
  if (at == std::string::npos) return false;
  ++at;
  while (at < body.size() && std::isspace(static_cast<unsigned char>(body[at]))) {
    ++at;
  }
  const char* begin = body.data() + at;
  const char* end = body.data() + body.size();
  return std::from_chars(begin, end, out).ec == std::errc{};
}

/// String value of "key": in a flat JSON object (no escapes expected).
bool json_string(const std::string& body, const char* key, std::string& out) {
  const std::string quoted = std::string("\"") + key + "\"";
  std::size_t at = body.find(quoted);
  if (at == std::string::npos) return false;
  at = body.find('"', body.find(':', at + quoted.size()));
  if (at == std::string::npos) return false;
  const std::size_t close = body.find('"', at + 1);
  if (close == std::string::npos) return false;
  out = body.substr(at + 1, close - at - 1);
  return true;
}

bool send_all(int fd, const std::string& data) {
  std::size_t sent = 0;
  while (sent < data.size()) {
    const ssize_t n =
        ::send(fd, data.data() + sent, data.size() - sent, MSG_NOSIGNAL);
    if (n < 0) {
      if (errno == EINTR) continue;
      return false;
    }
    sent += static_cast<std::size_t>(n);
  }
  return true;
}

int connect_loopback(int port, std::string& error) {
  const int fd = ::socket(AF_INET, SOCK_STREAM, 0);
  if (fd < 0) {
    error = "socket(): " + std::string(std::strerror(errno));
    return -1;
  }
  const int one = 1;
  (void)::setsockopt(fd, IPPROTO_TCP, TCP_NODELAY, &one, sizeof(one));
  sockaddr_in addr{};
  addr.sin_family = AF_INET;
  addr.sin_port = htons(static_cast<std::uint16_t>(port));
  addr.sin_addr.s_addr = htonl(INADDR_LOOPBACK);
  if (::connect(fd, reinterpret_cast<const sockaddr*>(&addr), sizeof(addr)) !=
      0) {
    error = "connect(): " + std::string(std::strerror(errno));
    ::close(fd);
    return -1;
  }
  return fd;
}

}  // namespace

std::string http_route_request(std::int32_t src, std::int32_t dst) {
  return "GET /route?src=" + std::to_string(src) +
         "&dst=" + std::to_string(dst) +
         " HTTP/1.1\r\nHost: 127.0.0.1\r\n\r\n";
}

std::string wire_route_request(std::int32_t src, std::int32_t dst) {
  std::string out;
  put_u32le(out, 8);
  put_u32le(out, static_cast<std::uint32_t>(src));
  put_u32le(out, static_cast<std::uint32_t>(dst));
  return out;
}

ParseStatus parse_http_answer(std::string& buffer, Answer& out) {
  const std::size_t head_end = buffer.find("\r\n\r\n");
  if (head_end == std::string::npos) return ParseStatus::kNeedMore;
  // Status line: "HTTP/1.1 200 OK".
  if (buffer.compare(0, 9, "HTTP/1.1 ") != 0 || head_end < 12) {
    return ParseStatus::kMalformed;
  }
  int status = 0;
  if (std::from_chars(buffer.data() + 9, buffer.data() + 12, status).ec !=
      std::errc{}) {
    return ParseStatus::kMalformed;
  }
  // Content-Length, matched case-insensitively.
  std::string head = buffer.substr(0, head_end);
  for (char& c : head) c = static_cast<char>(std::tolower(static_cast<unsigned char>(c)));
  const std::size_t cl = head.find("\r\ncontent-length:");
  if (cl == std::string::npos) return ParseStatus::kMalformed;
  std::size_t at = cl + 17;
  while (at < head.size() && head[at] == ' ') ++at;
  std::size_t length = 0;
  if (std::from_chars(head.data() + at, head.data() + head.size(), length).ec !=
      std::errc{}) {
    return ParseStatus::kMalformed;
  }
  const std::size_t body_begin = head_end + 4;
  if (buffer.size() < body_begin + length) return ParseStatus::kNeedMore;
  const std::string body = buffer.substr(body_begin, length);
  buffer.erase(0, body_begin + length);

  out = Answer{};
  out.http_status = status;
  std::string token;
  if (!json_string(body, "error", token)) return ParseStatus::kMalformed;
  bool known = false;
  for (std::uint32_t v = 0; v < std::size(kErrorTokens); ++v) {
    if (token == kErrorTokens[v]) {
      out.error = v;
      known = true;
    }
  }
  if (!known) return ParseStatus::kMalformed;
  std::int64_t epoch = 0;
  if (!json_int(body, "epoch", epoch)) return ParseStatus::kMalformed;
  out.epoch = static_cast<std::uint64_t>(epoch);
  if (out.error == 0 &&
      (!json_int(body, "roundtrip_length", out.roundtrip_length) ||
       !json_int(body, "out_hops", out.out_hops) ||
       !json_int(body, "back_hops", out.back_hops) ||
       !json_int(body, "max_header_bits", out.max_header_bits))) {
    return ParseStatus::kMalformed;
  }
  return ParseStatus::kOk;
}

ParseStatus parse_wire_answer(std::string& buffer, Answer& out) {
  constexpr std::size_t kPayload = 36;
  if (buffer.size() < 4) return ParseStatus::kNeedMore;
  if (get_le(buffer, 0, 4) != kPayload) return ParseStatus::kMalformed;
  if (buffer.size() < 4 + kPayload) return ParseStatus::kNeedMore;
  out = Answer{};
  out.error = static_cast<std::uint32_t>(get_le(buffer, 4, 4));
  out.epoch = get_le(buffer, 8, 8);
  out.roundtrip_length = static_cast<std::int64_t>(get_le(buffer, 16, 8));
  out.out_hops = static_cast<std::int32_t>(get_le(buffer, 24, 4));
  out.back_hops = static_cast<std::int32_t>(get_le(buffer, 28, 4));
  out.max_header_bits = static_cast<std::int64_t>(get_le(buffer, 32, 8));
  buffer.erase(0, 4 + kPayload);
  return ParseStatus::kOk;
}

ClientRun run_closed_loop(
    const ClientOptions& options,
    const std::function<void(std::size_t, const Answer&)>& on_answer) {
  struct Conn {
    int fd = -1;
    std::string buffer;
    std::size_t request = 0;
    std::int64_t sent_ns = 0;
    bool busy = false;
  };
  ClientRun run;
  const auto& requests = *options.requests;
  const std::size_t n = requests.size();
  if (n == 0) return run;

  const auto fail = [&run](Conn& c, const std::string& why) {
    ++run.transport_errors;
    if (run.first_error.empty()) run.first_error = why;
    if (c.fd >= 0) ::close(c.fd);
    c.fd = -1;
    c.busy = false;
  };

  std::vector<Conn> conns(static_cast<std::size_t>(options.connections));
  for (Conn& c : conns) {
    std::string error;
    c.fd = connect_loopback(options.port, error);
    if (c.fd < 0) {
      fail(c, error);
    } else if (options.protocol == Protocol::kWire &&
               !send_all(c.fd, std::string(kWirePreamble, 8))) {
      fail(c, "preamble send failed");
    }
  }

  const Stopwatch clock;
  std::size_t next = 0;
  const auto send_next = [&](Conn& c) {
    // Whole passes: keep going until the time is up and a pass has ended.
    if (next >= n && clock.seconds() >= options.seconds && next % n == 0) {
      return;
    }
    c.request = next % n;
    ++next;
    const auto [src, dst] = requests[c.request];
    const std::string bytes = options.protocol == Protocol::kHttp
                                  ? http_route_request(src, dst)
                                  : wire_route_request(src, dst);
    c.sent_ns = Tracer::now_ns();
    ++run.sent;
    if (!send_all(c.fd, bytes)) {
      fail(c, "request send failed");
      return;
    }
    c.busy = true;
  };
  for (Conn& c : conns) {
    if (c.fd >= 0) send_next(c);
  }

  std::vector<pollfd> fds;
  std::vector<Conn*> polled;
  char chunk[4096];
  while (true) {
    fds.clear();
    polled.clear();
    for (Conn& c : conns) {
      if (!c.busy) continue;
      fds.push_back(pollfd{c.fd, POLLIN, 0});
      polled.push_back(&c);
    }
    if (fds.empty()) break;
    const int ready = ::poll(fds.data(), fds.size(), kStallTimeoutMs);
    if (ready < 0 && errno == EINTR) continue;
    if (ready <= 0) {
      for (Conn* c : polled) fail(*c, "no answer within the stall timeout");
      continue;
    }
    for (std::size_t i = 0; i < fds.size(); ++i) {
      if (fds[i].revents == 0) continue;
      Conn& c = *polled[i];
      const ssize_t got = ::recv(c.fd, chunk, sizeof(chunk), 0);
      if (got <= 0) {
        if (got < 0 && errno == EINTR) continue;
        fail(c, "connection closed by the server");
        continue;
      }
      c.buffer.append(chunk, static_cast<std::size_t>(got));
      Answer answer;
      const ParseStatus status = options.protocol == Protocol::kHttp
                                     ? parse_http_answer(c.buffer, answer)
                                     : parse_wire_answer(c.buffer, answer);
      if (status == ParseStatus::kNeedMore) continue;
      if (status == ParseStatus::kMalformed) {
        fail(c, "malformed response");
        continue;
      }
      run.latency_us.push_back(
          static_cast<double>(Tracer::now_ns() - c.sent_ns) / 1e3);
      ++run.answered;
      c.busy = false;
      on_answer(c.request, answer);
      send_next(c);
    }
  }
  run.wall_seconds = clock.seconds();
  for (Conn& c : conns) {
    if (c.fd >= 0) ::close(c.fd);
  }
  return run;
}

}  // namespace perfbench
