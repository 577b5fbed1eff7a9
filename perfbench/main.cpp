// perfbench: the repository benchmark's entry point.
//
//   perfbench --workload NAME --seed N --seconds S --trace 0|1
//             --work-dir DIR [--spans FILE]
//
// Prints one info line (host block, pinned pool widths, workload details,
// failure messages) and then, as the last line, the result object:
// {"correct", "attempted", "failed", "metrics"}.  With --trace 0 the metrics
// are the end-to-end set, with --trace 1 the per-layer set; every workload
// reports every metric of the set, and a layer the workload does not
// exercise reports 0.
#include <cmath>
#include <filesystem>
#include <iostream>
#include <map>
#include <string>

#include "host.h"
#include "net/scheme.h"
#include "workloads.h"

namespace {

using perfbench::Metric;

struct Declared {
  std::string name;
  std::string unit;
};

std::vector<Declared> end_to_end_metrics() {
  return {{"setup_s", "s"},
          {"qps", "1/s"},
          {"latency_p50_us", "us"},
          {"latency_p99_us", "us"},
          {"stretch_mean", "ratio"},
          {"staleness_repair_ms", "ms"},
          {"staleness_rebuild_ms", "ms"},
          {"build_s", "s"},
          {"warm_start_ms", "ms"},
          {"snapshot_mb", "MiB"},
          {"peak_rss_mb", "MiB"}};
}

std::vector<Declared> per_layer_metrics() {
  std::vector<Declared> out = {
      {"server.http_parse_us", "us"},   {"server.http_encode_us", "us"},
      {"server.wire_parse_us", "us"},   {"server.wire_encode_us", "us"},
      {"server.name_lookup_us", "us"},  {"server.batch_mean", "count"},
      {"server.unattributed_us", "us"}, {"net.serve_us", "us"},
      {"net.serve_batch_us", "us"},     {"net.hops_mean", "count"},
      {"net.header_bits_max", "bits"},  {"metric.build_ms", "ms"},
      {"build.unattributed_ms", "ms"},
  };
  for (const std::string& s : rtr::SchemeRegistry::global().names()) {
    out.push_back({"build." + s + "_ms", "ms"});
    out.push_back({"table." + s + "_bytes_per_node", "bytes"});
    out.push_back({"stretch." + s + "_mean", "ratio"});
    out.push_back({"snapshot.save." + s + "_ms", "ms"});
    out.push_back({"snapshot.map." + s + "_ms", "ms"});
    out.push_back({"snapshot.load." + s + "_ms", "ms"});
    out.push_back({"snapshot." + s + "_bytes", "bytes"});
  }
  for (const char* name : {"epoch.diff_ms", "epoch.repair_ms", "epoch.rebuild_ms",
                           "epoch.snapshot_save_ms", "epoch.unattributed_ms"}) {
    out.push_back({name, "ms"});
  }
  out.push_back({"epoch.repair_ratio", "ratio"});
  return out;
}

int usage() {
  std::cerr << "usage: perfbench --workload serve_http|serve_wire|epoch_churn|"
               "build_snapshot --seed N --seconds S --trace 0|1 "
               "--work-dir DIR [--spans FILE]\n"
               "       perfbench --list-metrics\n";
  return 2;
}

}  // namespace

int main(int argc, char** argv) {
  std::map<std::string, std::string> args;
  for (int i = 1; i < argc; ++i) {
    const std::string flag = argv[i];
    if (flag == "--list-metrics") {
      for (const auto& m : end_to_end_metrics()) {
        std::cout << "end_to_end " << m.name << " " << m.unit << "\n";
      }
      for (const auto& m : per_layer_metrics()) {
        std::cout << "per_layer " << m.name << " " << m.unit << "\n";
      }
      return 0;
    }
    if (flag.rfind("--", 0) != 0 || i + 1 >= argc) return usage();
    args[flag.substr(2)] = argv[++i];
  }
  for (const char* required : {"workload", "seed", "seconds", "trace", "work-dir"}) {
    if (!args.contains(required)) return usage();
  }

  perfbench::RunConfig config;
  perfbench::WorkloadResult result;
  const std::string workload = args["workload"];
  try {
    config.seed = std::stoull(args["seed"]);
    config.seconds = std::stod(args["seconds"]);
    config.trace = args["trace"] == "1";
    config.work_dir = args["work-dir"];
    if (args.contains("spans")) config.spans_path = args["spans"];
    std::filesystem::create_directories(config.work_dir);
    const perfbench::Sizes sizes;
    if (workload == "serve_http") {
      result = perfbench::run_serve(config, sizes, perfbench::Protocol::kHttp);
    } else if (workload == "serve_wire") {
      result = perfbench::run_serve(config, sizes, perfbench::Protocol::kWire);
    } else if (workload == "epoch_churn") {
      result = perfbench::run_epoch_churn(config, sizes);
    } else if (workload == "build_snapshot") {
      result = perfbench::run_build_snapshot(config, sizes);
    } else {
      return usage();
    }
  } catch (const std::exception& e) {
    std::cerr << "perfbench: " << e.what() << "\n";
    return 1;
  }
  std::error_code ignored;
  std::filesystem::remove_all(config.work_dir, ignored);

  // Every declared metric of the requested kind, in declaration order.
  std::map<std::string, Metric> measured;
  for (const Metric& m : result.metrics) measured[m.name] = m;
  bool correct = result.failed == 0;
  rtr::Json metrics{rtr::JsonObject{}};
  for (const auto& d : config.trace ? per_layer_metrics() : end_to_end_metrics()) {
    const auto it = measured.find(d.name);
    double value = 0;
    if (it != measured.end()) {
      value = it->second.value;
      measured.erase(it);
    } else if (!config.trace) {
      result.fail("end-to-end metric " + d.name + " was not measured");
    }
    if (!std::isfinite(value) || (!config.trace && value <= 0)) {
      result.fail("metric " + d.name + " is not a positive finite number");
    }
    rtr::Json entry{rtr::JsonObject{}};
    entry.set("value", value);
    entry.set("unit", d.unit);
    metrics.set(d.name, std::move(entry));
  }
  for (const auto& [name, m] : measured) {
    result.fail("undeclared metric " + name);
  }
  correct = correct && result.failed == 0;

  rtr::Json host{rtr::JsonObject{}};
  host.set("cpu_model", perfbench::cpu_model());
  host.set("nproc", perfbench::usable_cores());
  rtr::Json widths{rtr::JsonObject{}};
  widths.set("apsp_and_build_threads", config.widths.build_threads);
  widths.set("query_engine_threads", config.widths.query_threads);
  widths.set("epoch_query_threads", config.widths.query_threads);
  widths.set("route_server_batch_threads", config.widths.batch_threads);
  host.set("pool_widths", std::move(widths));
  rtr::JsonArray errors;
  for (const std::string& e : result.errors) errors.emplace_back(e);
  rtr::Json info{rtr::JsonObject{}};
  info.set("workload", workload);
  info.set("seed", static_cast<std::int64_t>(config.seed));
  info.set("trace", config.trace);
  info.set("host", std::move(host));
  info.set("workload_info", std::move(result.info));
  info.set("errors", rtr::Json(std::move(errors)));
  rtr::Json info_line{rtr::JsonObject{}};
  info_line.set("info", std::move(info));
  std::cout << info_line.dump() << "\n";

  rtr::Json line{rtr::JsonObject{}};
  line.set("correct", correct);
  line.set("attempted", std::max<std::int64_t>(result.attempted, 1));
  line.set("failed", result.failed);
  line.set("metrics", std::move(metrics));
  std::cout << line.dump() << std::endl;
  return 0;
}
