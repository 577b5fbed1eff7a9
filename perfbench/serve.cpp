// serve_http / serve_wire: the read path through the network front end.
//
// Inputs (untimed): a random n=1024 instance, a stretch6 build saved as a
// v2 snapshot, and a seeded list of name pairs.  Set-up (timed, repeated):
// map_snapshot, bind a QueryEngine and a RouteServer over a
// StaticServingSource, connect, and receive the first answer.  The run
// drives the server with the closed-loop client and checks every answer
// against QueryEngine::serve on the same epoch.  The traced run replays the
// run's own request stream on one thread through the public calls the
// server makes for each request, and charges the rest of the measured mean
// latency (socket I/O, thread handoffs, batcher queue wait) to
// server.unattributed_us.
#include <charconv>
#include <filesystem>
#include <fstream>
#include <memory>
#include <optional>
#include <thread>

#include "epoch_script.h"
#include "graph/generators.h"
#include "host.h"
#include "io/snapshot.h"
#include "net/query_engine.h"
#include "server/http.h"
#include "server/route_server.h"
#include "server/wire.h"
#include "stats.h"
#include "trace.h"
#include "warm_start.h"
#include "workloads.h"

namespace perfbench {

namespace {

using rtr::NodeId;
using rtr::NodeName;

constexpr const char* kScheme = "stretch6";
constexpr rtr::Weight kMaxWeight = 4;
/// Set-ups per run (the sessions' included); setup_s is their median.
constexpr int kSetups = 31;
/// Independent server sessions per run, each a share of the run's time.
constexpr int kSessions = 10;
/// Cold builds per run; build_s is their median.
constexpr int kBuilds = 7;
/// Update-probe rounds (slack jitter + relabel) on stretch6.
constexpr int kProbeRounds = 6;
/// Warm starts per run and the pause before each; warm_start_ms is their
/// median.
constexpr int kWarmStarts = 31;
constexpr std::chrono::milliseconds kWarmStartGap{20};
/// Requests the traced run replays (a prefix of the run's stream).
constexpr std::size_t kReplayRequests = 20000;

struct Served {
  std::shared_ptr<const rtr::Epoch> epoch;
  std::unique_ptr<rtr::StaticServingSource> source;
  std::unique_ptr<rtr::RouteServer> server;
};

bool same_route(const Answer& a, const rtr::ServingResult& ref) {
  return ref.ok() && a.error == 0 &&
         a.roundtrip_length == ref.route.roundtrip_length() &&
         a.out_hops == ref.route.out_hops &&
         a.back_hops == ref.route.back_hops &&
         a.max_header_bits == ref.route.max_header_bits;
}

double per_request_us(double ns, std::size_t requests) {
  return requests == 0 ? 0 : ns / 1e3 / static_cast<double>(requests);
}

}  // namespace

WorkloadResult run_serve(const RunConfig& config, const Sizes& sizes,
                         Protocol protocol) {
  WorkloadResult out;
  const bool http = protocol == Protocol::kHttp;
  const int connections = http ? 1 : 3;
  const NodeId n = sizes.serve_nodes;
  rtr::set_default_apsp_threads(config.widths.build_threads);

  // ---- inputs: the instance (untimed), then its served tables ----
  rtr::Rng rng(config.seed);
  rtr::GraphBuilder builder =
      rtr::make_family(rtr::Family::kRandom, n, kMaxWeight, rng);
  builder.assign_adversarial_ports(rng);
  const auto graph = std::make_shared<const rtr::Digraph>(builder.freeze());
  const rtr::NameAssignment names = rtr::NameAssignment::random(n, rng);
  const std::string path = config.work_dir + "/serve_stretch6.rtrsnap";
  // build_s: metric + stretch6 build + v2 save, the cold path to the file
  // the server maps (median of kBuilds).
  std::vector<double> build_s;
  std::shared_ptr<const rtr::RoundtripMetric> metric;
  for (int i = 0; i < kBuilds; ++i) {
    ++out.attempted;
    try {
      const Stopwatch clock;
      metric = rtr::make_roundtrip_metric(graph, rtr::MetricMode::kDense,
                                          config.widths.build_threads);
      const rtr::SchemeHandle built(
          graph, names,
          rtr::SchemeRegistry::global().build(
              kScheme, rtr::BuildContext::wrap(graph, metric, names, config.seed)));
      rtr::save_snapshot(path, kScheme, built);
      build_s.push_back(clock.seconds());
    } catch (const std::exception& e) {
      out.fail(std::string("build/save stretch6: ") + e.what());
      return out;
    }
  }
  std::vector<std::pair<std::int32_t, std::int32_t>> requests;
  rtr::Rng pair_rng(config.seed + 1);
  while (requests.size() < sizes.serve_requests) {
    const auto src = static_cast<NodeName>(pair_rng.uniform(0, n - 1));
    const auto dst = static_cast<NodeName>(pair_rng.uniform(0, n - 1));
    if (src != dst) requests.emplace_back(src, dst);
  }

  // ---- set-up (timed): map, bind, start, first answer over the socket ----
  rtr::RouteServerOptions server_options;
  server_options.batch_threads = config.widths.batch_threads;
  std::vector<double> setups;
  const std::vector<std::pair<std::int32_t, std::int32_t>> first{requests[0]};
  const auto set_up = [&](Served& served) {
    ++out.attempted;
    const Stopwatch clock;
    try {
      rtr::SchemeHandle handle = rtr::map_snapshot(path, kScheme);
      rtr::QueryEngineOptions engine_options;
      engine_options.threads = config.widths.query_threads;
      auto engine = std::make_shared<const rtr::QueryEngine>(
          handle.graph_ptr(), nullptr, handle.names(), handle.scheme_ptr(),
          engine_options);
      served.epoch = std::make_shared<const rtr::Epoch>(
          0, std::move(handle), nullptr, std::move(engine), true, 0.0);
      served.source =
          std::make_unique<rtr::StaticServingSource>(served.epoch, kScheme);
      served.server =
          std::make_unique<rtr::RouteServer>(*served.source, server_options);
    } catch (const std::exception& e) {
      out.fail(std::string("map/serve snapshot: ") + e.what());
      return false;
    }
    const ClientOptions probe{protocol, served.server->port(), 1, &first, 0};
    bool answered = false;
    const ClientRun run = run_closed_loop(
        probe, [&](std::size_t, const Answer& a) { answered = a.error == 0; });
    setups.push_back(clock.seconds());
    if (!answered) out.fail("set-up probe not answered: " + run.first_error);
    return answered;
  };
  // Server and client share one CPU from here to the end of the sessions.
  // On a shared VM a wake-up that crosses CPUs waits for the other vCPU to
  // be scheduled, and in a busy spell that wait set the figures: under the
  // same load, 5-11k qps and a p99 of 0.2-1.8 ms on all CPUs, against
  // 28-29k qps and a p99 of about 50 us on one.
  std::optional<CpuPin> pin(std::in_place, usable_cores() - 1);
  for (int i = kSessions; i < kSetups; ++i) {
    Served served;
    if (!set_up(served)) return out;
  }

  // ---- sessions: a fresh server each, driven by the closed-loop client;
  // the run's figures are taken across sessions, so one noisy spell does
  // not set them ----
  std::vector<rtr::ServingResult> refs;
  double stretch_sum = 0;
  std::int64_t hops_sum = 0;
  std::int64_t header_bits_max = 0;
  std::vector<double> session_p50, session_p99, session_qps, all_latency;
  std::uint64_t batches = 0;
  std::uint64_t batched = 0;
  std::uint64_t max_batch = 0;
  std::int64_t sent = 0;
  std::shared_ptr<const rtr::Epoch> last_epoch;
  for (int session = 0; session < kSessions; ++session) {
    Served served;
    if (!set_up(served)) return out;
    if (session == 0) {
      // References: QueryEngine::serve on the served epoch.
      refs.reserve(requests.size());
      for (const auto& [src, dst] : requests) {
        const NodeId s = names.id_of(src);
        const NodeId t = names.id_of(dst);
        refs.push_back(served.epoch->engine->serve(s, t));
        const rtr::ServingResult& ref = refs.back();
        if (!ref.ok()) {
          out.fail("reference serve failed: " + ref.message);
          return out;
        }
        stretch_sum += static_cast<double>(ref.route.roundtrip_length()) /
                       static_cast<double>(metric->r(s, t));
        hops_sum += ref.route.out_hops + ref.route.back_hops;
        header_bits_max = std::max(header_bits_max, ref.route.max_header_bits);
      }
    }
    const rtr::RouteServerStats before = served.server->stats();
    const ClientOptions load{protocol, served.server->port(), connections,
                             &requests, config.seconds / kSessions};
    ClientRun run = run_closed_loop(load, [&](std::size_t i, const Answer& a) {
      const bool status_ok = !http || a.http_status == 200;
      if (!status_ok || a.epoch != 0 || !same_route(a, refs[i])) {
        out.fail("request " + std::to_string(i) + " (" +
                 std::to_string(requests[i].first) + " -> " +
                 std::to_string(requests[i].second) +
                 "): answer differs from QueryEngine::serve (error " +
                 std::to_string(a.error) + ")");
      }
    });
    const rtr::RouteServerStats after = served.server->stats();
    sent += run.sent;
    for (std::int64_t i = 0; i < run.transport_errors; ++i) {
      out.fail("transport: " + run.first_error);
    }
    batches += after.batches - before.batches;
    batched += after.batched_queries - before.batched_queries;
    max_batch = std::max(max_batch, after.max_batch);
    all_latency.insert(all_latency.end(), run.latency_us.begin(),
                       run.latency_us.end());
    const LatencySummary s = summarize(run.latency_us);
    session_p50.push_back(s.p50);
    session_p99.push_back(s.p99);
    session_qps.push_back(run.wall_seconds > 0
                              ? static_cast<double>(run.answered) / run.wall_seconds
                              : 0);
    last_epoch = served.epoch;
  }
  // warm_start_ms: map + bind + one verified query, spaced out.  Back to
  // back, repeated map/unmap of one file ran at a speed that changed from
  // run to run (spread across runs 45% on a shared 4-core VM).
  std::vector<double> warm_ms;
  for (int i = 0; i < kWarmStarts; ++i) {
    std::this_thread::sleep_for(kWarmStartGap);
    warm_ms.push_back(measure_warm_start(path, kScheme,
                                         names.id_of(requests[0].first),
                                         names.id_of(requests[0].second),
                                         refs[0], config, out));
  }
  pin.reset();
  out.attempted += sent;
  const double batch_mean =
      batches > 0 ? static_cast<double>(batched) / static_cast<double>(batches)
                  : 0;
  LatencySummary latency = summarize(all_latency);
  const rtr::QueryEngine& engine = *last_epoch->engine;

  rtr::JsonObject info;
  info.emplace_back("latency_samples", latency.samples);
  info.emplace_back("latency_mean_us", latency.mean);
  info.emplace_back("latency_tail_percentile", latency.tail_q);
  info.emplace_back("latency_tail_us", latency.tail);
  info.emplace_back("requests_distinct",
                    static_cast<std::int64_t>(requests.size()));
  info.emplace_back("connections", connections);
  info.emplace_back("batch_mean", batch_mean);
  info.emplace_back("max_batch", static_cast<std::int64_t>(max_batch));
  info.emplace_back("sessions", kSessions);
  rtr::JsonArray p50s, p99s;
  for (const double v : session_p50) p50s.emplace_back(v);
  for (const double v : session_p99) p99s.emplace_back(v);
  info.emplace_back("session_latency_p50_us", rtr::Json(std::move(p50s)));
  info.emplace_back("session_latency_p99_us", rtr::Json(std::move(p99s)));

  if (!config.trace) {
    const std::vector<StepOutcome> steps = run_update_probe(
        kScheme, *graph, names, config, kProbeRounds, config.work_dir + "/probe",
        out);
    out.add("setup_s", median(setups), "s");
    out.add("qps", median(session_qps), "1/s");
    out.add("latency_p50_us", median(session_p50), "us");
    // The best session's p99: host noise only ever adds tail latency, and a
    // noisy spell spoils some sessions, not what the code costs.
    out.add("latency_p99_us",
            *std::min_element(session_p99.begin(), session_p99.end()), "us");
    out.add("stretch_mean", stretch_sum / static_cast<double>(requests.size()),
            "ratio");
    out.add("staleness_repair_ms",
            median_staleness(steps, StepKind::kSlackJitter), "ms");
    out.add("staleness_rebuild_ms", median_staleness(steps, StepKind::kRelabel),
            "ms");
    out.add("build_s", median(build_s), "s");
    out.add("warm_start_ms", median(warm_ms), "ms");
    out.add("snapshot_mb",
            static_cast<double>(std::filesystem::file_size(path)) /
                (1024.0 * 1024.0),
            "MiB");
    out.add("peak_rss_mb", peak_rss_mb(), "MiB");
    out.info = rtr::Json(std::move(info));
    return out;
  }

  // ---- traced replay: the server's per-request calls, one thread ----
  const std::size_t replayed =
      std::min<std::size_t>(static_cast<std::size_t>(sent), kReplayRequests);
  const auto replay = [&](Tracer& tracer) {
    for (std::size_t k = 0; k < replayed; ++k) {
      const std::size_t i = k % requests.size();
      const auto [src_name, dst_name] = requests[i];
      const auto id = static_cast<std::int64_t>(k);
      ScopedSpan root(tracer, "replay.request", -1, id);
      NodeName src = 0;
      NodeName dst = 0;
      rtr::HttpRequest request;
      std::string buffer = http ? http_route_request(src_name, dst_name)
                                : wire_route_request(src_name, dst_name);
      if (http) {
        const std::string* src_raw = nullptr;
        const std::string* dst_raw = nullptr;
        {
          ScopedSpan s(tracer, "server.http_parse", root.index(), id);
          if (rtr::parse_http_request(buffer, request) ==
              rtr::HttpParseStatus::kOk) {
            src_raw = rtr::find_query_param(request, "src");
            dst_raw = rtr::find_query_param(request, "dst");
          }
        }
        if (src_raw == nullptr || dst_raw == nullptr) {
          out.fail("replay: request " + std::to_string(i) + " did not parse");
          continue;
        }
        (void)std::from_chars(src_raw->data(), src_raw->data() + src_raw->size(), src);
        (void)std::from_chars(dst_raw->data(), dst_raw->data() + dst_raw->size(), dst);
      } else {
        rtr::WireRequest request_frame;
        rtr::WireParseStatus status;
        {
          ScopedSpan s(tracer, "server.wire_parse", root.index(), id);
          status = rtr::parse_wire_request(buffer, request_frame);
        }
        if (status != rtr::WireParseStatus::kOk) {
          out.fail("replay: frame " + std::to_string(i) + " did not parse");
          continue;
        }
        src = request_frame.src;
        dst = request_frame.dst;
      }
      NodeId s = 0;
      NodeId t = 0;
      {
        ScopedSpan span(tracer, "server.name_lookup", root.index(), id);
        s = names.id_of(src);
        t = names.id_of(dst);
      }
      rtr::ServingResult result;
      {
        ScopedSpan span(tracer, "net.serve", root.index(), id);
        result = engine.serve(s, t);
      }
      std::string response;
      if (http) {
        ScopedSpan span(tracer, "server.http_encode", root.index(), id);
        response = rtr::make_http_response(
            rtr::http_status_for(result),
            rtr::route_response_json(src, dst, result).dump(),
            request.keep_alive);
      } else {
        ScopedSpan span(tracer, "server.wire_encode", root.index(), id);
        response = rtr::encode_wire_response(result);
      }
      if (response.empty() || result.ok() != refs[i].ok() ||
          result.route.roundtrip_length() != refs[i].route.roundtrip_length()) {
        out.fail("replay: request " + std::to_string(i) + " differs");
      }
    }
  };

  // The same replay untraced first (its wall time is the overhead base),
  // then traced; on the sessions' CPU.
  pin.emplace(usable_cores() - 1);
  Tracer untraced(false);
  const Stopwatch plain_clock;
  replay(untraced);
  const double plain_us = plain_clock.us();
  Tracer tracer(true);
  const Stopwatch traced_clock;
  replay(tracer);
  const double traced_us = traced_clock.us();

  // net.serve_batch at the run's mean batch size and the pinned width.
  const std::size_t batch =
      std::max<std::size_t>(1, static_cast<std::size_t>(batch_mean + 0.5));
  rtr::BatchOptions batch_options;
  batch_options.threads = config.widths.batch_threads;
  std::vector<rtr::RoundtripQuery> queries;
  for (std::size_t k = 0; k + batch <= replayed; k += batch) {
    queries.clear();
    for (std::size_t j = k; j < k + batch; ++j) {
      const auto [src, dst] = requests[j % requests.size()];
      queries.push_back(rtr::RoundtripQuery{names.id_of(src), names.id_of(dst)});
    }
    ScopedSpan span(tracer, "net.serve_batch", -1, static_cast<std::int64_t>(k));
    const auto results = engine.serve_batch(queries, batch_options);
    if (results.size() != queries.size()) out.fail("serve_batch size mismatch");
  }

  std::string error;
  const auto layers = self_times(tracer.spans(), error);
  if (!error.empty()) {
    out.fail("trace: " + error);
    return out;
  }
  const auto self_us = [&](const char* name) {
    const auto it = layers.find(name);
    if (it == layers.end() || it->second.spans == 0) return 0.0;
    return it->second.self_ns / 1e3 / static_cast<double>(it->second.spans);
  };
  const char* parse_layer = http ? "server.http_parse" : "server.wire_parse";
  const char* encode_layer = http ? "server.http_encode" : "server.wire_encode";
  const Account account = make_account(
      latency.mean,
      {{parse_layer, self_us(parse_layer)},
       {"server.name_lookup", self_us("server.name_lookup")},
       {"net.serve", self_us("net.serve")},
       {encode_layer, self_us(encode_layer)}});
  if (!account.error.empty()) out.fail("accounting: " + account.error);

  for (const auto& [name, value] : account.layers) out.add(name + "_us", value, "us");
  out.add("server.unattributed_us", account.residual, "us");
  out.add("server.batch_mean", batch_mean, "count");
  out.add("net.serve_batch_us", self_us("net.serve_batch") / static_cast<double>(batch),
          "us");
  out.add("net.hops_mean",
          static_cast<double>(hops_sum) / static_cast<double>(requests.size()),
          "count");
  out.add("net.header_bits_max", static_cast<double>(header_bits_max), "bits");

  info.emplace_back("replayed_requests", static_cast<std::int64_t>(replayed));
  info.emplace_back("replay_untraced_us_per_request",
                    per_request_us(plain_us * 1e3, replayed));
  info.emplace_back("replay_traced_us_per_request",
                    per_request_us(traced_us * 1e3, replayed));
  info.emplace_back("trace_overhead_us_per_request",
                    per_request_us((traced_us - plain_us) * 1e3, replayed));
  info.emplace_back("account_end_to_end_us", account.end_to_end);
  out.info = rtr::Json(std::move(info));

  if (!config.spans_path.empty()) {
    std::ofstream spans(config.spans_path);
    tracer.write_jsonl(spans);
  }
  return out;
}

}  // namespace perfbench
