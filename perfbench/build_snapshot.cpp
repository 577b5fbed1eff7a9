// build_snapshot: cold build and warm start of every registered scheme on
// one grid n=1024 instance, with no serving.
//
// A pass computes the metric, builds and saves every scheme (build_s), maps
// each snapshot and answers one verified query from it (warm_start_ms),
// decodes each snapshot with CRCs (load_snapshot), and checks a fixed
// sample of routes: mapped and loaded handles must answer exactly as the
// built one.  Passes repeat until the run's time is up; timings are pass
// medians.  The traced run makes the same calls with a span around each;
// the build phase's own self time (what its children do not cover) is
// build.unattributed_ms, so the account is exact by construction.
#include <filesystem>
#include <fstream>
#include <map>

#include "epoch_script.h"
#include "graph/generators.h"
#include "host.h"
#include "io/snapshot.h"
#include "net/query_engine.h"
#include "stats.h"
#include "trace.h"
#include "warm_start.h"
#include "workloads.h"

namespace perfbench {

namespace {

using rtr::NodeId;

constexpr rtr::Weight kMaxWeight = 4;
/// Verified (src, dst) pairs per scheme and pass.
constexpr std::int64_t kSamplePairs = 1024;
/// Warm starts per scheme and pass; a pass's warm_start_ms sums the
/// schemes' medians.
constexpr int kWarmStarts = 3;
/// Set-ups per run; setup_s is their median.
constexpr int kSetups = 9;
/// Update-probe rounds (slack jitter + relabel) on fulltable, a scheme with
/// a repair hook.
constexpr int kProbeRounds = 5;

/// Span names per scheme; the tracer keeps pointers into these strings.
struct SchemeSpans {
  std::string build, save, map, load;
};

struct SchemeFacts {
  double bytes = 0;
  double bytes_per_node = 0;
  double stretch_mean = 0;
};

}  // namespace

WorkloadResult run_build_snapshot(const RunConfig& config, const Sizes& sizes) {
  WorkloadResult out;
  rtr::set_default_apsp_threads(config.widths.build_threads);
  const rtr::SchemeRegistry& registry = rtr::SchemeRegistry::global();
  const std::vector<std::string> schemes = registry.names();
  std::map<std::string, SchemeSpans> spans;
  for (const std::string& s : schemes) {
    spans[s] = SchemeSpans{"build." + s, "snapshot.save." + s,
                           "snapshot.map." + s, "snapshot.load." + s};
  }

  // ---- set-up (timed, repeated): the instance and its metric, everything
  // a scheme build needs ----
  std::vector<double> setup_s;
  std::shared_ptr<const rtr::Digraph> graph;
  rtr::NameAssignment names = rtr::NameAssignment::identity(0);
  for (int i = 0; i < kSetups; ++i) {
    const Stopwatch clock;
    rtr::Rng rng(config.seed);
    rtr::GraphBuilder builder = rtr::make_family(
        rtr::Family::kGrid, sizes.build_nodes, kMaxWeight, rng);
    builder.assign_adversarial_ports(rng);
    graph = std::make_shared<const rtr::Digraph>(builder.freeze());
    names = rtr::NameAssignment::random(graph->node_count(), rng);
    (void)rtr::make_roundtrip_metric(graph, rtr::MetricMode::kDense,
                                     config.widths.build_threads);
    setup_s.push_back(clock.seconds());
  }
  const NodeId n = graph->node_count();
  const std::vector<rtr::RoundtripQuery> sample =
      rtr::QueryEngine::sample_pairs(n, kSamplePairs, config.seed + 5);
  rtr::QueryEngineOptions engine_options;
  engine_options.threads = config.widths.query_threads;

  std::map<std::string, SchemeFacts> facts;
  std::vector<double> build_s, warm_ms, query_us;
  double stretch_sum = 0;
  std::int64_t stretch_count = 0;
  std::int64_t hops_sum = 0;
  std::int64_t header_bits_max = 0;
  Tracer tracer(config.trace);
  Tracer untraced(false);
  std::vector<double> traced_build_s;
  double untraced_build_s = 0;

  const int min_passes = config.trace ? 2 : 1;
  const Stopwatch run_clock;
  for (int pass = 0; pass < min_passes || run_clock.seconds() < config.seconds;
       ++pass) {
    // In the traced run the first pass is untraced: the overhead base.
    const bool traced = config.trace && pass > 0;
    Tracer& t = traced ? tracer : untraced;
    const auto id = static_cast<std::int64_t>(pass);

    // ---- cold build: metric, then build + save every scheme ----
    const Stopwatch build_clock;
    const int phase = t.open("build.phase", -1, id);
    std::shared_ptr<const rtr::RoundtripMetric> metric;
    {
      ScopedSpan s(t, "metric.build", phase, id);
      metric = rtr::make_roundtrip_metric(graph, rtr::MetricMode::kDense,
                                          config.widths.build_threads);
    }
    std::map<std::string, std::unique_ptr<rtr::SchemeHandle>> built;
    for (const std::string& scheme : schemes) {
      const std::string path = config.work_dir + "/" + scheme + ".rtrsnap";
      ++out.attempted;
      try {
        std::shared_ptr<const rtr::Scheme> tables;
        {
          ScopedSpan s(t, spans[scheme].build.c_str(), phase, id);
          tables = registry.build(
              scheme, rtr::BuildContext::wrap(graph, metric, names, config.seed));
        }
        auto handle = std::make_unique<rtr::SchemeHandle>(graph, names, tables);
        {
          ScopedSpan s(t, spans[scheme].save.c_str(), phase, id);
          rtr::save_snapshot(path, scheme, *handle);
        }
        built[scheme] = std::move(handle);
      } catch (const std::exception& e) {
        out.fail("build/save " + scheme + ": " + e.what());
      }
    }
    t.close(phase);
    build_s.push_back(build_clock.seconds());
    if (traced) traced_build_s.push_back(build_s.back());
    if (config.trace && !traced) untraced_build_s = build_s.back();

    // ---- per scheme: warm start (map + one verified query), owned decode
    // with CRCs, and the verified sample; each scheme's handles are dropped
    // before the next one is mapped, so only the built tables accumulate.
    double warm = 0;
    for (auto& [scheme, handle] : built) {
      const std::string path = config.work_dir + "/" + scheme + ".rtrsnap";
      const rtr::QueryEngine reference(graph, metric, names,
                                       handle->scheme_ptr(), engine_options);
      std::unique_ptr<rtr::QueryEngine> mapped;
      std::unique_ptr<rtr::QueryEngine> loaded;
      out.attempted += 1 + kWarmStarts;
      try {
        const rtr::ServingResult want =
            reference.serve(sample[0].src, sample[0].dst);
        std::vector<double> warm_reps;
        for (int rep = 0; rep < kWarmStarts; ++rep) {
          const Stopwatch clock;
          {
            ScopedSpan s(t, spans[scheme].map.c_str(), -1, id);
            const rtr::SchemeHandle view = rtr::map_snapshot(path, scheme);
            mapped = std::make_unique<rtr::QueryEngine>(
                view.graph_ptr(), nullptr, view.names(), view.scheme_ptr(),
                engine_options);
          }
          const rtr::ServingResult got =
              mapped->serve(sample[0].src, sample[0].dst);
          warm_reps.push_back(clock.ms());
          if (!same_route(got, want)) {
            out.fail("warm start " + scheme + ": first answer differs");
          }
        }
        warm += median(warm_reps);
        ScopedSpan s(t, spans[scheme].load.c_str(), -1, id);
        const rtr::SchemeHandle owned = rtr::load_snapshot(path, scheme);
        loaded = std::make_unique<rtr::QueryEngine>(
            owned.graph_ptr(), nullptr, owned.names(), owned.scheme_ptr(),
            engine_options);
      } catch (const std::exception& e) {
        out.fail("map/load " + scheme + ": " + e.what());
        continue;
      }

      double scheme_stretch = 0;
      for (const rtr::RoundtripQuery& q : sample) {
        ++out.attempted;
        const rtr::ServingResult want = reference.serve(q.src, q.dst);
        const Stopwatch clock;
        const rtr::ServingResult got = mapped->serve(q.src, q.dst);
        query_us.push_back(clock.us());
        if (!same_route(got, want) ||
            !same_route(loaded->serve(q.src, q.dst), want)) {
          out.fail(scheme + ": route (" + std::to_string(q.src) + ", " +
                   std::to_string(q.dst) + ") differs between built and " +
                   "mapped/loaded handles" +
                   (want.ok() ? "" : " (" + want.message + ")"));
          continue;
        }
        if (pass == 0) {
          const double stretch =
              static_cast<double>(want.route.roundtrip_length()) /
              static_cast<double>(metric->r(q.src, q.dst));
          scheme_stretch += stretch;
          stretch_sum += stretch;
          ++stretch_count;
          hops_sum += want.route.out_hops + want.route.back_hops;
          header_bits_max = std::max(header_bits_max, want.route.max_header_bits);
        }
      }
      if (pass == 0) {
        SchemeFacts& f = facts[scheme];
        f.stretch_mean = scheme_stretch / static_cast<double>(sample.size());
        f.bytes = static_cast<double>(std::filesystem::file_size(path));
        f.bytes_per_node = handle->table_stats().mean_bits() / 8.0;
      }
      handle.reset();
    }
    warm_ms.push_back(warm);
  }

  double snapshot_bytes = 0;
  for (const auto& [scheme, f] : facts) snapshot_bytes += f.bytes;
  LatencySummary latency = summarize(query_us);
  double query_seconds = 0;
  for (const double us : query_us) query_seconds += us / 1e6;

  rtr::JsonObject info;
  info.emplace_back("passes", static_cast<std::int64_t>(build_s.size()));
  rtr::JsonArray pass_build_s;
  for (const double v : build_s) pass_build_s.emplace_back(v);
  info.emplace_back("pass_build_s", rtr::Json(std::move(pass_build_s)));
  info.emplace_back("schemes", static_cast<std::int64_t>(schemes.size()));
  info.emplace_back("latency_samples", latency.samples);
  info.emplace_back("latency_tail_percentile", latency.tail_q);
  info.emplace_back("latency_tail_us", latency.tail);

  if (!config.trace) {
    const std::vector<StepOutcome> steps = run_update_probe(
        "fulltable", *graph, names, config, kProbeRounds,
        config.work_dir + "/probe", out);
    rtr::JsonArray probe;
    for (const StepOutcome& st : steps) {
      probe.emplace_back(std::string(step_kind_name(st.kind)) + ":" +
                         std::to_string(st.staleness_ms) +
                         (st.repaired ? ":repaired" : ""));
    }
    info.emplace_back("probe_steps", rtr::Json(std::move(probe)));
    out.add("setup_s", median(setup_s), "s");
    out.add("qps", query_seconds > 0
                       ? static_cast<double>(query_us.size()) / query_seconds
                       : 0,
            "1/s");
    out.add("latency_p50_us", latency.p50, "us");
    out.add("latency_p99_us", latency.p99, "us");
    out.add("stretch_mean",
            stretch_count > 0 ? stretch_sum / static_cast<double>(stretch_count)
                              : 0,
            "ratio");
    out.add("staleness_repair_ms",
            median_staleness(steps, StepKind::kSlackJitter), "ms");
    out.add("staleness_rebuild_ms", median_staleness(steps, StepKind::kRelabel),
            "ms");
    out.add("build_s", median(build_s), "s");
    out.add("warm_start_ms", median(warm_ms), "ms");
    out.add("snapshot_mb", snapshot_bytes / (1024.0 * 1024.0), "MiB");
    out.add("peak_rss_mb", peak_rss_mb(), "MiB");
    out.info = rtr::Json(std::move(info));
    return out;
  }

  // ---- per-layer: mean self time per pass of each span name ----
  std::string error;
  const auto layers = self_times(tracer.spans(), error);
  if (!error.empty()) {
    out.fail("trace: " + error);
    return out;
  }
  const auto per_pass_ms = [&](const std::string& name) {
    const auto it = layers.find(name);
    if (it == layers.end() || it->second.spans == 0) return 0.0;
    return it->second.self_ns / 1e6 / static_cast<double>(it->second.spans);
  };
  std::vector<std::pair<std::string, double>> build_layers;
  build_layers.emplace_back("metric.build_ms", per_pass_ms("metric.build"));
  for (const std::string& s : schemes) {
    build_layers.emplace_back(spans[s].build + "_ms", per_pass_ms(spans[s].build));
    build_layers.emplace_back(spans[s].save + "_ms", per_pass_ms(spans[s].save));
  }
  const Account account =
      make_account(mean(traced_build_s) * 1e3, build_layers);
  if (!account.error.empty()) out.fail("accounting: " + account.error);
  for (const auto& [name, value] : account.layers) out.add(name, value, "ms");
  out.add("build.unattributed_ms", account.residual, "ms");
  for (const std::string& s : schemes) {
    const SchemeFacts& f = facts[s];
    out.add(spans[s].map + "_ms", per_pass_ms(spans[s].map), "ms");
    out.add(spans[s].load + "_ms", per_pass_ms(spans[s].load), "ms");
    out.add("snapshot." + s + "_bytes", f.bytes, "bytes");
    out.add("table." + s + "_bytes_per_node", f.bytes_per_node, "bytes");
    out.add("stretch." + s + "_mean", f.stretch_mean, "ratio");
  }
  out.add("net.hops_mean",
          stretch_count > 0
              ? static_cast<double>(hops_sum) / static_cast<double>(stretch_count)
              : 0,
          "count");
  out.add("net.header_bits_max", static_cast<double>(header_bits_max), "bits");

  info.emplace_back("account_end_to_end_ms", account.end_to_end);
  info.emplace_back("untraced_build_s", untraced_build_s);
  info.emplace_back("traced_build_s_mean", mean(traced_build_s));
  info.emplace_back("trace_overhead_ms",
                    (mean(traced_build_s) - untraced_build_s) * 1e3);
  out.info = rtr::Json(std::move(info));
  if (!config.spans_path.empty()) {
    std::ofstream file(config.spans_path);
    tracer.write_jsonl(file);
  }
  return out;
}

}  // namespace perfbench
