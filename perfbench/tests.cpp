// The benchmark's own tests: the percentile rule, self times and the
// layer-to-end-to-end account, failure counting (result, client, workload),
// the client's decoding of what the server really sends, and deterministic
// metrics repeating exactly for a fixed seed.
//
//   python3 perfbench/run.py --self-test
#include <gtest/gtest.h>

#include <filesystem>
#include <fstream>
#include <map>
#include <string>

#include "client.h"
#include "server/route_server.h"
#include "server/wire.h"
#include "stats.h"
#include "trace.h"
#include "workloads.h"

namespace perfbench {
namespace {

std::map<std::string, double> by_name(const WorkloadResult& r) {
  std::map<std::string, double> out;
  for (const Metric& m : r.metrics) out[m.name] = m.value;
  return out;
}

/// A fresh directory under the test's working directory.
std::string temp_dir(const std::string& name) {
  const auto dir = std::filesystem::current_path() / ("perfbench-test-" + name);
  std::filesystem::remove_all(dir);
  std::filesystem::create_directories(dir);
  return dir.string();
}

// ---- percentile rule -------------------------------------------------------

TEST(PercentileRule, NearestRank) {
  std::vector<double> v;
  for (int i = 1; i <= 100; ++i) v.push_back(i);
  EXPECT_EQ(percentile_sorted(v, 50), 50);
  EXPECT_EQ(percentile_sorted(v, 99), 99);
  EXPECT_EQ(percentile_sorted(v, 100), 100);
  EXPECT_EQ(percentile_sorted(v, 0), 1);
  EXPECT_EQ(samples_beyond(100, 90), 10);
  EXPECT_EQ(samples_beyond(100, 99), 1);
}

TEST(PercentileRule, TailNeedsTenSamplesBeyond) {
  EXPECT_EQ(tail_percentile(0), 0);
  EXPECT_EQ(tail_percentile(19), 0);  // median has only 9 beyond
  EXPECT_EQ(tail_percentile(20), 50);
  EXPECT_EQ(tail_percentile(99), 50);
  EXPECT_EQ(tail_percentile(100), 90);
  EXPECT_EQ(tail_percentile(999), 90);
  EXPECT_EQ(tail_percentile(1000), 99);
  EXPECT_EQ(tail_percentile(10000), 99.9);
  EXPECT_EQ(tail_percentile(100000), 99.99);
}

TEST(PercentileRule, SummaryReportsTheTailItCanSupport) {
  std::vector<double> v;
  for (int i = 1000; i >= 1; --i) v.push_back(i);
  const LatencySummary s = summarize(v);
  EXPECT_EQ(s.samples, 1000);
  EXPECT_EQ(s.p50, 500);
  EXPECT_EQ(s.p99, 990);
  EXPECT_EQ(s.tail_q, 99);
  EXPECT_EQ(s.tail, 990);
  EXPECT_DOUBLE_EQ(s.mean, 500.5);
  EXPECT_EQ(median({3, 1, 2}), 2);
  EXPECT_EQ(median({4, 1, 2, 3}), 2.5);
}

TEST(SampleBuffer, StaysBoundedAndKeepsAnEvenGrid) {
  SampleBuffer buffer(8);
  for (int i = 0; i < 100; ++i) buffer.add(i);
  EXPECT_EQ(buffer.offered(), 100);
  EXPECT_LE(buffer.kept().size(), 8u);
  ASSERT_GE(buffer.kept().size(), 4u);
  // Every kept value sits on one stride: 0, s, 2s, ...
  const double stride = buffer.kept()[1] - buffer.kept()[0];
  for (std::size_t i = 0; i < buffer.kept().size(); ++i) {
    EXPECT_EQ(buffer.kept()[i], static_cast<double>(i) * stride);
  }
  SampleBuffer roomy(1000);
  for (int i = 0; i < 100; ++i) roomy.add(i);
  EXPECT_EQ(roomy.kept().size(), 100u);
}

// ---- self times and the residual -------------------------------------------

Span span(const char* name, std::int64_t b, std::int64_t e, int parent) {
  Span s;
  s.name = name;
  s.start_ns = b;
  s.end_ns = e;
  s.parent = parent;
  return s;
}

TEST(Trace, SelfTimeSubtractsTheUnionOfChildren) {
  std::string error;
  const auto layers = self_times({span("root", 0, 100, -1),
                                  span("a", 10, 30, 0), span("b", 20, 50, 0),
                                  span("c", 60, 70, 0), span("d", 62, 65, 3)},
                                 error);
  ASSERT_TRUE(error.empty()) << error;
  EXPECT_EQ(layers.at("root").self_ns, 50);  // children cover [10,50)+[60,70)
  EXPECT_EQ(layers.at("a").self_ns, 20);
  EXPECT_EQ(layers.at("b").self_ns, 30);
  EXPECT_EQ(layers.at("c").self_ns, 7);
  EXPECT_EQ(layers.at("d").self_ns, 3);
}

TEST(Trace, SameNameSpansAccumulate) {
  std::string error;
  const auto layers = self_times(
      {span("x", 0, 10, -1), span("x", 20, 25, -1)}, error);
  ASSERT_TRUE(error.empty());
  EXPECT_EQ(layers.at("x").self_ns, 15);
  EXPECT_EQ(layers.at("x").spans, 2);
}

TEST(Trace, BrokenSpansAreRejected) {
  std::string error;
  (void)self_times({span("root", 0, 100, -1), span("late", 90, 120, 0)}, error);
  EXPECT_NE(error.find("outside its parent"), std::string::npos);
  (void)self_times({span("open", 0, -1, -1)}, error);
  EXPECT_NE(error.find("never closed"), std::string::npos);
}

TEST(Trace, DisabledTracerRecordsNothing) {
  Tracer t(false);
  { ScopedSpan s(t, "x", -1, 0); }
  EXPECT_TRUE(t.spans().empty());
  Tracer on(true);
  { ScopedSpan s(on, "x", -1, 7); }
  ASSERT_EQ(on.spans().size(), 1u);
  EXPECT_GE(on.spans()[0].end_ns, on.spans()[0].start_ns);
  EXPECT_EQ(on.spans()[0].id, 7);
}

TEST(Account, ResidualClosesTheSum) {
  const Account a = make_account(100, {{"a", 30}, {"b", 50}});
  EXPECT_TRUE(a.error.empty());
  EXPECT_DOUBLE_EQ(a.residual, 20);
  double sum = a.residual;
  for (const auto& [name, v] : a.layers) sum += v;
  EXPECT_DOUBLE_EQ(sum, a.end_to_end);
}

TEST(Account, NegativeSelfTimeFailsAndOvershootIsReported) {
  EXPECT_NE(make_account(100, {{"a", -1}}).error.find("negative"),
            std::string::npos);
  // A replayed layer above the measured figure: reported, not hidden.
  const Account over = make_account(100, {{"a", 104}});
  EXPECT_TRUE(over.error.empty());
  EXPECT_DOUBLE_EQ(over.residual, -4);
}

// ---- failure counting --------------------------------------------------------

TEST(Failures, ResultCountsEveryFailureAndKeepsTheFirstMessages) {
  WorkloadResult r;
  for (int i = 0; i < 40; ++i) r.fail("failure " + std::to_string(i));
  EXPECT_EQ(r.failed, 40);
  ASSERT_FALSE(r.errors.empty());
  EXPECT_LT(r.errors.size(), 40u);
  EXPECT_EQ(r.errors.front(), "failure 0");
}

TEST(Failures, ClientCountsRefusedConnections) {
  // Nothing listens on loopback port 1: every connect is refused.
  const std::vector<std::pair<std::int32_t, std::int32_t>> requests{{1, 2}};
  for (const Protocol p : {Protocol::kHttp, Protocol::kWire}) {
    const ClientOptions options{p, 1, 3, &requests, 0};
    const ClientRun run =
        run_closed_loop(options, [](std::size_t, const Answer&) {});
    EXPECT_EQ(run.transport_errors, 3);
    EXPECT_EQ(run.answered, 0);
    EXPECT_FALSE(run.first_error.empty());
  }
}

TEST(Failures, WorkloadCountsFailedSavesWithoutThrowing) {
  // A work directory that is a regular file: every snapshot save fails.
  const std::string dir = temp_dir("unwritable");
  const std::string file = dir + "/not-a-dir";
  std::ofstream(file) << "x";
  RunConfig config;
  config.seed = 3;
  config.seconds = 0;
  config.trace = true;  // skips the update probe; saves still fail
  config.work_dir = file;
  Sizes sizes;
  sizes.build_nodes = 64;
  const WorkloadResult r = run_build_snapshot(config, sizes);
  EXPECT_GE(r.failed, 7);
  ASSERT_FALSE(r.errors.empty());
  EXPECT_NE(r.errors.front().find("build/save"), std::string::npos);
  std::filesystem::remove_all(dir);
}

// ---- the client decodes what the server sends ------------------------------

TEST(Client, DecodesServerHttpAndWireResponses) {
  rtr::RouteResult route;
  route.delivered_out = route.delivered_back = true;
  route.out_length = 7;
  route.back_length = 5;
  route.out_hops = 3;
  route.back_hops = 2;
  route.max_header_bits = 91;
  const rtr::ServingResult ok = rtr::ServingResult::success(route, 4);

  std::string http = rtr::make_http_response(
      200, rtr::route_response_json(11, 12, ok).dump(), true);
  http += http;  // two pipelined answers
  Answer a;
  ASSERT_EQ(parse_http_answer(http, a), ParseStatus::kOk);
  EXPECT_EQ(a.error, 0u);
  EXPECT_EQ(a.http_status, 200);
  EXPECT_EQ(a.epoch, 4u);
  EXPECT_EQ(a.roundtrip_length, 12);
  EXPECT_EQ(a.out_hops, 3);
  EXPECT_EQ(a.back_hops, 2);
  EXPECT_EQ(a.max_header_bits, 91);
  ASSERT_EQ(parse_http_answer(http, a), ParseStatus::kOk);
  EXPECT_TRUE(http.empty());

  const rtr::ServingResult bad =
      rtr::ServingResult::failure(rtr::ServingError::kUnreachable, "lost", 2);
  std::string http_bad = rtr::make_http_response(
      200, rtr::route_response_json(1, 2, bad).dump(), true);
  ASSERT_EQ(parse_http_answer(http_bad, a), ParseStatus::kOk);
  EXPECT_EQ(a.error, 3u);

  std::string wire = rtr::encode_wire_response(ok);
  std::string partial = wire.substr(0, 10);
  EXPECT_EQ(parse_wire_answer(partial, a), ParseStatus::kNeedMore);
  ASSERT_EQ(parse_wire_answer(wire, a), ParseStatus::kOk);
  EXPECT_EQ(a.roundtrip_length, 12);
  EXPECT_EQ(a.max_header_bits, 91);
  EXPECT_EQ(a.epoch, 4u);
  std::string malformed = std::string("\x05\x00\x00\x00", 4) + "xxxxx";
  EXPECT_EQ(parse_wire_answer(malformed, a), ParseStatus::kMalformed);
}

TEST(Client, RequestsMatchTheServerParsers) {
  std::string http = http_route_request(5, 9);
  rtr::HttpRequest request;
  ASSERT_EQ(rtr::parse_http_request(http, request), rtr::HttpParseStatus::kOk);
  EXPECT_EQ(*rtr::find_query_param(request, "src"), "5");
  EXPECT_EQ(*rtr::find_query_param(request, "dst"), "9");
  std::string wire = wire_route_request(5, 9);
  rtr::WireRequest frame;
  ASSERT_EQ(rtr::parse_wire_request(wire, frame), rtr::WireParseStatus::kOk);
  EXPECT_EQ(frame.src, 5);
  EXPECT_EQ(frame.dst, 9);
  EXPECT_EQ(std::string(kWirePreamble), std::string(rtr::kWirePreamble));
}

// ---- deterministic metrics repeat exactly ----------------------------------

Sizes small_sizes() {
  Sizes s;
  s.serve_nodes = 256;
  s.churn_nodes = 256;
  s.build_nodes = 256;
  s.serve_requests = 512;
  return s;
}

RunConfig quick(const std::string& dir, bool trace) {
  RunConfig c;
  c.seed = 11;
  c.seconds = 0.2;
  c.trace = trace;
  c.work_dir = dir;
  return c;
}

void expect_same(const std::map<std::string, double>& a,
                 const std::map<std::string, double>& b,
                 const std::vector<std::string>& names) {
  for (const std::string& name : names) {
    ASSERT_TRUE(a.contains(name)) << name;
    ASSERT_TRUE(b.contains(name)) << name;
    EXPECT_EQ(a.at(name), b.at(name)) << name;
  }
}

TEST(Determinism, ServeMetricsRepeat) {
  const std::string dir = temp_dir("serve");
  for (const Protocol p : {Protocol::kHttp, Protocol::kWire}) {
    const WorkloadResult a = run_serve(quick(dir, false), small_sizes(), p);
    const WorkloadResult b = run_serve(quick(dir, false), small_sizes(), p);
    EXPECT_EQ(a.failed, 0) << (a.errors.empty() ? "" : a.errors[0]);
    EXPECT_EQ(b.failed, 0);
    expect_same(by_name(a), by_name(b), {"stretch_mean", "snapshot_mb"});
    const WorkloadResult c = run_serve(quick(dir, true), small_sizes(), p);
    const WorkloadResult d = run_serve(quick(dir, true), small_sizes(), p);
    EXPECT_EQ(c.failed, 0) << (c.errors.empty() ? "" : c.errors[0]);
    expect_same(by_name(c), by_name(d), {"net.header_bits_max", "net.hops_mean"});
  }
  std::filesystem::remove_all(dir);
}

TEST(Determinism, EpochChurnMetricsRepeat) {
  const std::string dir = temp_dir("churn");
  const WorkloadResult a = run_epoch_churn(quick(dir, false), small_sizes());
  const WorkloadResult b = run_epoch_churn(quick(dir, false), small_sizes());
  EXPECT_EQ(a.failed, 0) << (a.errors.empty() ? "" : a.errors[0]);
  EXPECT_EQ(b.failed, 0);
  expect_same(by_name(a), by_name(b), {"stretch_mean", "snapshot_mb"});
  const WorkloadResult c = run_epoch_churn(quick(dir, true), small_sizes());
  const WorkloadResult d = run_epoch_churn(quick(dir, true), small_sizes());
  EXPECT_EQ(c.failed, 0) << (c.errors.empty() ? "" : c.errors[0]);
  expect_same(by_name(c), by_name(d),
              {"net.header_bits_max", "net.hops_mean", "epoch.repair_ratio"});
  std::filesystem::remove_all(dir);
}

TEST(Determinism, BuildSnapshotMetricsRepeat) {
  const std::string dir = temp_dir("build");
  const WorkloadResult a = run_build_snapshot(quick(dir, false), small_sizes());
  const WorkloadResult b = run_build_snapshot(quick(dir, false), small_sizes());
  EXPECT_EQ(a.failed, 0) << (a.errors.empty() ? "" : a.errors[0]);
  expect_same(by_name(a), by_name(b), {"stretch_mean", "snapshot_mb"});
  const WorkloadResult c = run_build_snapshot(quick(dir, true), small_sizes());
  const WorkloadResult d = run_build_snapshot(quick(dir, true), small_sizes());
  EXPECT_EQ(c.failed, 0) << (c.errors.empty() ? "" : c.errors[0]);
  std::vector<std::string> names{"net.header_bits_max"};
  for (const std::string& s : rtr::SchemeRegistry::global().names()) {
    names.push_back("table." + s + "_bytes_per_node");
    names.push_back("snapshot." + s + "_bytes");
    names.push_back("stretch." + s + "_mean");
  }
  expect_same(by_name(c), by_name(d), names);
  std::filesystem::remove_all(dir);
}

}  // namespace
}  // namespace perfbench
