// epoch_churn: the write path -- diff, repair or rebuild, metric, snapshot
// save, swap -- with one in-process reader beside it.  No server.
//
// Inputs: a random n=2048 instance plus 5% shadowed links, a random naming,
// and a seeded list of reader name pairs.  Set-up (timed, repeated): the
// EpochManager builds epoch 0 (rtz3, sparse metric, snapshot cache, repair
// enabled) and answers its first query.  The run repeats the script
// (slack jitter, rewire, relabel) until the time is up while the reader
// calls roundtrip_by_name in a closed loop.  Every answer is checked
// against QueryEngine::serve on the epoch that answered it; the per-epoch
// check runs on the control thread between steps, so the reader only pays
// an array compare.
//
// The traced run replays a prefix of the same script through the public
// calls the manager makes (diff_graphs, make_roundtrip_metric,
// SchemeRegistry::repair / build, save_snapshot) and charges the rest of the
// measured mean staleness (publish, swap, wake) to epoch.unattributed_ms.
#include <atomic>
#include <filesystem>
#include <fstream>
#include <map>
#include <mutex>
#include <thread>

#include "epoch_script.h"
#include "graph/churn.h"
#include "graph/churn_delta.h"
#include "graph/generators.h"
#include "host.h"
#include "io/snapshot.h"
#include "stats.h"
#include "trace.h"
#include "warm_start.h"
#include "workloads.h"

namespace perfbench {

namespace {

using rtr::NodeId;
using rtr::NodeName;

constexpr const char* kScheme = "rtz3";
constexpr rtr::Weight kMaxWeight = 4;
/// Set-ups per run; setup_s, build_s and warm_start_ms are their medians.
constexpr int kSetups = 5;
constexpr std::size_t kReaderPairs = 1024;
constexpr std::size_t kLatencySamples = std::size_t{1} << 20;
/// Steps every run completes, whatever its time: three whole script cycles,
/// and exactly what the traced run replays, so the replayed figures
/// (epoch.repair_ratio among them) are the same for every run of a seed.
constexpr int kMinSteps = 9;
/// stretch_mean averages run_sampled over this many first epochs (epoch 0
/// included), so it is the same for every run of a seed.
constexpr std::size_t kStretchEpochs = 7;
constexpr std::int64_t kStretchPairs = 128;
/// Matches EpochManagerOptions::repair_max_fraction's default.
constexpr double kRepairMaxFraction = 0.05;

constexpr StepKind kScript[] = {StepKind::kSlackJitter, StepKind::kRewire,
                                StepKind::kRelabel};

/// The first answer the reader saw for one pair in one epoch.
struct Seen {
  bool seen = false;
  std::int64_t length = 0;
  std::int64_t out_hops = 0;
  std::int64_t back_hops = 0;
  std::int64_t header_bits = 0;
};

struct EpochTable {
  std::uint64_t seq = 0;
  std::vector<Seen> answers;
};

/// The script's topologies are a pure function of (initial graph, seed).
class Script {
 public:
  Script(const rtr::Digraph& initial, std::uint64_t seed)
      : topology_(initial), rng_(seed) {}

  /// The next step's topology and kind; steps whose delta would be empty
  /// are skipped (they publish nothing).
  std::pair<StepKind, rtr::Digraph> next() {
    while (true) {
      const StepKind kind = kScript[step_++ % std::size(kScript)];
      rtr::Digraph g = churn_topology(kind, topology_, rng_);
      if (rtr::diff_graphs(topology_, g).empty()) continue;
      topology_ = rtr::Digraph(g);
      return {kind, std::move(g)};
    }
  }

 private:
  rtr::Digraph topology_;
  rtr::Rng rng_;
  std::size_t step_ = 0;
};

}  // namespace

WorkloadResult run_epoch_churn(const RunConfig& config, const Sizes& sizes) {
  WorkloadResult out;
  rtr::set_default_apsp_threads(config.widths.build_threads);

  // ---- inputs (untimed) ----
  rtr::Rng graph_rng(config.seed);
  const rtr::Digraph initial = rtr::add_shadowed_links(
      rtr::make_family(rtr::Family::kRandom, sizes.churn_nodes, kMaxWeight,
                       graph_rng)
          .freeze(),
      0.05, graph_rng);
  const NodeId n = initial.node_count();
  rtr::Rng name_rng(config.seed + 1);
  const rtr::NameAssignment names = rtr::NameAssignment::random(n, name_rng);
  std::vector<std::pair<NodeName, NodeName>> pairs;
  rtr::Rng pair_rng(config.seed + 2);
  while (pairs.size() < kReaderPairs) {
    const auto s = static_cast<NodeName>(pair_rng.uniform(0, n - 1));
    const auto t = static_cast<NodeName>(pair_rng.uniform(0, n - 1));
    if (s != t) pairs.emplace_back(s, t);
  }

  rtr::EpochManagerOptions options;
  options.query_threads = config.widths.query_threads;
  options.scheme_seed = config.seed;
  options.metric_mode = rtr::MetricMode::kSparse;
  options.enable_repair = true;
  options.repair_max_fraction = kRepairMaxFraction;

  // ---- set-up (timed, repeated; the last manager runs the script) ----
  std::vector<double> setups, build_s, warm_ms;
  std::unique_ptr<rtr::EpochManager> manager;
  for (int i = 0; i < kSetups; ++i) {
    manager.reset();  // joins and tears down outside the timing
    options.cache_dir = config.work_dir + "/epochs" + std::to_string(i);
    std::filesystem::remove_all(options.cache_dir);
    std::filesystem::create_directories(options.cache_dir);
    ++out.attempted;
    const Stopwatch clock;
    try {
      manager = std::make_unique<rtr::EpochManager>(kScheme, names,
                                                    rtr::Digraph(initial), options);
    } catch (const std::exception& e) {
      out.fail(std::string("epoch 0 build: ") + e.what());
      return out;
    }
    const rtr::ServingResult first =
        manager->roundtrip_by_name(pairs[0].first, pairs[0].second);
    setups.push_back(clock.seconds());
    if (!first.ok()) {
      out.fail("set-up probe: " + first.message);
      return out;
    }
    build_s.push_back(manager->current()->build_seconds);
    // Warm start of the same epoch, mapped back from its cache file.
    const NodeId s = names.id_of(pairs[0].first);
    const NodeId t = names.id_of(pairs[0].second);
    warm_ms.push_back(measure_warm_start(
        options.cache_dir + "/rtz3_epoch0.rtrsnap", kScheme, s, t,
        manager->current()->engine->serve(s, t), config, out));
  }
  const std::string epoch0_path = options.cache_dir + "/rtz3_epoch0.rtrsnap";
  std::error_code size_error;
  const double snapshot_bytes =
      static_cast<double>(std::filesystem::file_size(epoch0_path, size_error));
  if (size_error) out.fail("epoch 0 snapshot missing: " + size_error.message());

  // ---- the run: script on this thread, one reader beside it ----
  std::mutex handoff_mutex;
  std::vector<EpochTable> handoff;  // finished per-epoch answer tables
  std::atomic<bool> stop{false};
  // Latencies of the reads; bounded so the reader's rate cannot move the
  // peak RSS this workload reports.
  SampleBuffer read_us(kLatencySamples);
  std::int64_t read_failures = 0;
  std::int64_t read_mismatches = 0;
  std::string read_error;
  Stopwatch read_clock;
  double read_seconds = 0;
  std::thread reader([&] {
    EpochTable table{0, std::vector<Seen>(pairs.size())};
    const auto hand_off = [&] {
      std::lock_guard<std::mutex> lock(handoff_mutex);
      handoff.push_back(std::move(table));
    };
    read_clock.reset();
    for (std::size_t k = 0; !stop.load(std::memory_order_acquire); ++k) {
      const std::size_t i = k % pairs.size();
      const std::int64_t t0 = Tracer::now_ns();
      const rtr::ServingResult r =
          manager->roundtrip_by_name(pairs[i].first, pairs[i].second);
      read_us.add(static_cast<double>(Tracer::now_ns() - t0) / 1e3);
      if (!r.ok()) {
        if (read_failures++ == 0) read_error = r.message;
        continue;
      }
      if (r.epoch != table.seq) {
        hand_off();
        table = EpochTable{r.epoch, std::vector<Seen>(pairs.size())};
      }
      Seen& seen = table.answers[i];
      const Seen now{true, r.route.roundtrip_length(), r.route.out_hops,
                     r.route.back_hops, r.route.max_header_bits};
      if (!seen.seen) {
        seen = now;
      } else if (seen.length != now.length || seen.out_hops != now.out_hops ||
                 seen.back_hops != now.back_hops ||
                 seen.header_bits != now.header_bits) {
        ++read_mismatches;
      }
    }
    read_seconds = read_clock.seconds();
    hand_off();
  });

  // Epochs stay alive here until the reader's answers from them are checked.
  std::map<std::uint64_t, std::shared_ptr<const rtr::Epoch>> live;
  const std::shared_ptr<const rtr::Epoch> first_epoch = manager->current();
  live[0] = first_epoch;
  std::vector<double> stretch_means;
  std::int64_t stretch_failures = 0;
  const auto record_stretch = [&](const rtr::Epoch& epoch) {
    if (stretch_means.size() >= kStretchEpochs) return;
    rtr::BatchOptions batch;
    batch.pair_budget = kStretchPairs;
    batch.seed = config.seed + 3;
    batch.threads = config.widths.query_threads;
    const rtr::StretchReport report = epoch.engine->run_sampled(batch);
    stretch_failures += report.failures;
    if (report.failures > 0) out.fail("run_sampled: " + report.first_error);
    stretch_means.push_back(report.mean_stretch);
  };
  std::int64_t checked = 0;
  const auto check_tables = [&] {
    std::vector<EpochTable> done;
    {
      std::lock_guard<std::mutex> lock(handoff_mutex);
      done.swap(handoff);
    }
    for (const EpochTable& table : done) {
      const auto it = live.find(table.seq);
      if (it == live.end()) {
        out.fail("reader answered from unpublished epoch " +
                 std::to_string(table.seq));
        continue;
      }
      const rtr::QueryEngine& engine = *it->second->engine;
      for (std::size_t i = 0; i < table.answers.size(); ++i) {
        const Seen& seen = table.answers[i];
        if (!seen.seen) continue;
        ++checked;
        const rtr::ServingResult ref = engine.serve(
            names.id_of(pairs[i].first), names.id_of(pairs[i].second));
        if (!ref.ok() || ref.route.roundtrip_length() != seen.length ||
            ref.route.out_hops != seen.out_hops ||
            ref.route.back_hops != seen.back_hops ||
            ref.route.max_header_bits != seen.header_bits) {
          out.fail("epoch " + std::to_string(table.seq) + " pair " +
                   std::to_string(i) +
                   ": reader answer differs from QueryEngine::serve");
        }
      }
      live.erase(live.begin(), live.upper_bound(table.seq));
    }
  };

  std::vector<StepOutcome> steps;
  Script script(initial, config.seed + 4);
  try {
    record_stretch(*first_epoch);
    const Stopwatch run_clock;
    while (static_cast<int>(steps.size()) < kMinSteps ||
           run_clock.seconds() < config.seconds) {
      auto [kind, next] = script.next();
      StepOutcome outcome;
      if (!publish_step(*manager, std::move(next), kind, options.cache_dir, out,
                        outcome)) {
        break;
      }
      steps.push_back(outcome);
      const auto epoch = manager->current();
      live[epoch->seq] = epoch;
      record_stretch(*epoch);
      check_tables();
    }
  } catch (const std::exception& e) {
    // The reader must be joined on every path.
    out.fail(std::string("churn script: ") + e.what());
  }
  stop.store(true, std::memory_order_release);
  reader.join();
  check_tables();

  const std::int64_t read_count = read_us.offered();
  out.attempted += read_count;
  for (std::int64_t i = 0; i < read_failures; ++i) {
    out.fail("read: " + read_error);
  }
  for (std::int64_t i = 0; i < read_mismatches; ++i) {
    out.fail("read: answer differs from the epoch's first answer for the pair");
  }
  LatencySummary latency = summarize(read_us.kept());

  std::int64_t repairs = 0;
  std::int64_t fallbacks = 0;
  std::vector<double> rewire_ms;
  for (const StepOutcome& s : steps) {
    repairs += s.repaired ? 1 : 0;
    fallbacks += s.fell_back ? 1 : 0;
    if (s.kind == StepKind::kRewire) rewire_ms.push_back(s.staleness_ms);
  }
  rtr::JsonObject info;
  info.emplace_back("steps", static_cast<std::int64_t>(steps.size()));
  rtr::JsonArray setup_list, slack_list;
  for (const double v : setups) setup_list.emplace_back(v);
  for (const StepOutcome& st : steps) {
    if (st.kind == StepKind::kSlackJitter) slack_list.emplace_back(st.staleness_ms);
  }
  info.emplace_back("setups_s", rtr::Json(std::move(setup_list)));
  info.emplace_back("slack_steps_ms", rtr::Json(std::move(slack_list)));
  info.emplace_back("repairs", repairs);
  info.emplace_back("repair_fallbacks", fallbacks);
  info.emplace_back("staleness_rewire_ms", median(rewire_ms));
  info.emplace_back("reads_checked_against_reference", checked);
  info.emplace_back("reads", read_count);
  info.emplace_back("latency_samples", latency.samples);
  info.emplace_back("latency_mean_us", latency.mean);
  info.emplace_back("latency_tail_percentile", latency.tail_q);
  info.emplace_back("latency_tail_us", latency.tail);
  info.emplace_back("stretch_epochs", static_cast<std::int64_t>(stretch_means.size()));

  if (!config.trace) {
    out.add("setup_s", median(setups), "s");
    out.add("qps", read_seconds > 0 ? static_cast<double>(read_count) / read_seconds
                                    : 0,
            "1/s");
    out.add("latency_p50_us", latency.p50, "us");
    out.add("latency_p99_us", latency.p99, "us");
    out.add("stretch_mean", mean(stretch_means), "ratio");
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

  // ---- traced replay of the script's first steps ----
  manager.reset();
  const int replay_steps = std::min(kMinSteps, static_cast<int>(steps.size()));
  const rtr::SchemeRegistry& registry = rtr::SchemeRegistry::global();
  std::int64_t eligible = 0;
  std::int64_t eligible_repairs = 0;
  const auto replay = [&](Tracer& tracer, bool count) {
    auto prev_graph = std::make_shared<const rtr::Digraph>(initial);
    std::shared_ptr<const rtr::Scheme> prev_scheme = registry.build(
        kScheme,
        rtr::BuildContext::wrap(
            prev_graph,
            rtr::make_roundtrip_metric(prev_graph, rtr::MetricMode::kSparse),
            names, config.seed));
    Script replayed(initial, config.seed + 4);
    for (int k = 0; k < replay_steps; ++k) {
      auto [kind, next] = replayed.next();
      auto graph = std::make_shared<const rtr::Digraph>(std::move(next));
      const auto id = static_cast<std::int64_t>(k);
      ScopedSpan root(tracer, "epoch.step", -1, id);
      rtr::ChurnDelta delta;
      {
        ScopedSpan s(tracer, "epoch.diff", root.index(), id);
        delta = rtr::diff_graphs(*prev_graph, *graph);
      }
      std::shared_ptr<const rtr::Scheme> scheme;
      const bool is_eligible = delta.fraction() <= kRepairMaxFraction;
      if (is_eligible) {
        std::shared_ptr<const rtr::RoundtripMetric> metric;
        {
          ScopedSpan s(tracer, "metric.build", root.index(), id);
          metric = rtr::make_roundtrip_metric(graph, rtr::MetricMode::kSparse);
        }
        ScopedSpan s(tracer, "epoch.repair", root.index(), id);
        try {
          scheme = registry.repair(
              kScheme, *prev_scheme, *prev_graph,
              rtr::BuildContext::wrap(graph, metric, names, config.seed), delta);
        } catch (const std::exception& e) {
          if (count) out.fail(std::string("repair: ") + e.what());
        }
      }
      const bool repaired = scheme != nullptr;
      if (!repaired) {
        std::shared_ptr<const rtr::RoundtripMetric> metric;
        {
          ScopedSpan s(tracer, "metric.build", root.index(), id);
          metric = rtr::make_roundtrip_metric(graph, rtr::MetricMode::kSparse);
        }
        {
          ScopedSpan s(tracer, "epoch.rebuild", root.index(), id);
          scheme = registry.build(
              kScheme, rtr::BuildContext::wrap(graph, metric, names, config.seed));
        }
        ScopedSpan s(tracer, "epoch.snapshot_save", root.index(), id);
        try {
          rtr::save_snapshot(config.work_dir + "/replay.rtrsnap", kScheme,
                             rtr::SchemeHandle(graph, names, scheme));
        } catch (const std::exception& e) {
          if (count) out.fail(std::string("snapshot save: ") + e.what());
        }
      }
      if (count) {
        ++out.attempted;
        eligible += is_eligible ? 1 : 0;
        eligible_repairs += is_eligible && repaired ? 1 : 0;
        if (repaired != steps[static_cast<std::size_t>(k)].repaired) {
          out.fail("replay step " + std::to_string(k) +
                   ": repair decision differs from the EpochManager's");
        }
      }
      prev_graph = graph;
      prev_scheme = scheme;
    }
  };
  Tracer untraced(false);
  const Stopwatch plain_clock;
  replay(untraced, false);
  const double plain_ms = plain_clock.ms();
  Tracer tracer(true);
  const Stopwatch traced_clock;
  replay(tracer, true);
  const double traced_ms = traced_clock.ms();

  // Reads: the engine call behind roundtrip_by_name, on epoch 0 (the same
  // tables for every run of a seed, however many steps the run made).
  std::int64_t hops_sum = 0;
  std::int64_t header_bits_max = 0;
  for (std::size_t i = 0; i < pairs.size(); ++i) {
    const auto id = static_cast<std::int64_t>(i);
    const NodeId s = names.id_of(pairs[i].first);
    const NodeId t = names.id_of(pairs[i].second);
    rtr::ServingResult r;
    {
      ScopedSpan span(tracer, "net.serve", -1, id);
      r = first_epoch->engine->serve(s, t);
    }
    hops_sum += r.route.out_hops + r.route.back_hops;
    header_bits_max = std::max(header_bits_max, r.route.max_header_bits);
  }

  std::string error;
  const auto layers = self_times(tracer.spans(), error);
  if (!error.empty()) {
    out.fail("trace: " + error);
    return out;
  }
  const auto per_step_ms = [&](const char* name) {
    const auto it = layers.find(name);
    return it == layers.end() || replay_steps == 0
               ? 0.0
               : it->second.self_ns / 1e6 / static_cast<double>(replay_steps);
  };
  std::vector<double> run_staleness;
  std::vector<double> manager_ms;
  for (int k = 0; k < replay_steps; ++k) {
    run_staleness.push_back(steps[static_cast<std::size_t>(k)].staleness_ms);
    manager_ms.push_back(steps[static_cast<std::size_t>(k)].manager_ms);
  }
  const Account account = make_account(
      mean(run_staleness),
      {{"epoch.diff_ms", per_step_ms("epoch.diff")},
       {"metric.build_ms", per_step_ms("metric.build")},
       {"epoch.repair_ms", per_step_ms("epoch.repair")},
       {"epoch.rebuild_ms", per_step_ms("epoch.rebuild")},
       {"epoch.snapshot_save_ms", per_step_ms("epoch.snapshot_save")}});
  if (!account.error.empty()) out.fail("accounting: " + account.error);
  for (const auto& [name, value] : account.layers) out.add(name, value, "ms");
  out.add("epoch.unattributed_ms", account.residual, "ms");
  out.add("epoch.repair_ratio",
          eligible > 0 ? static_cast<double>(eligible_repairs) /
                             static_cast<double>(eligible)
                       : 0,
          "ratio");
  const auto serve = layers.find("net.serve");
  out.add("net.serve_us",
          serve == layers.end() ? 0
                                : serve->second.self_ns / 1e3 /
                                      static_cast<double>(serve->second.spans),
          "us");
  out.add("net.hops_mean",
          static_cast<double>(hops_sum) / static_cast<double>(pairs.size()),
          "count");
  out.add("net.header_bits_max", static_cast<double>(header_bits_max), "bits");

  info.emplace_back("replayed_steps", static_cast<std::int64_t>(replay_steps));
  info.emplace_back("account_end_to_end_ms", account.end_to_end);
  std::vector<double> replay_step_ms;
  for (const Span& span : tracer.spans()) {
    if (std::string(span.name) == "epoch.step") {
      replay_step_ms.push_back(static_cast<double>(span.end_ns - span.start_ns) / 1e6);
    }
  }
  // Cross-checks: the manager's own preprocess timing against the replay's
  // step time, and publish + swap + wake measured directly.
  info.emplace_back("manager_rebuild_ms_mean", mean(manager_ms));
  info.emplace_back("replay_step_ms_mean", mean(replay_step_ms));
  info.emplace_back("publish_swap_wake_ms_mean",
                    mean(run_staleness) - mean(manager_ms));
  info.emplace_back("trace_overhead_ms_per_step",
                    replay_steps > 0 ? (traced_ms - plain_ms) / replay_steps : 0.0);
  out.info = rtr::Json(std::move(info));
  if (!config.spans_path.empty()) {
    std::ofstream file(config.spans_path);
    tracer.write_jsonl(file);
  }
  return out;
}

}  // namespace perfbench
