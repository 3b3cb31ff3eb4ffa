// perfbench: runs one workload of the repository benchmark and prints every
// metric of its table by name and unit, then one JSON result line.
//
//   perfbench --workload tune|serve-single --seed N
//             --seconds S --trace 0|1 --shard-bin PATH --out-dir DIR
//             [--commit ID]
//
// --trace 0 reports the end-to-end metrics; --trace 1 records spans, reports
// the per-layer metrics and writes the spans to DIR/trace-<workload>.tsv.
// Exit status: 0 = result printed and outputs correct, 1 = output check or
// ledger failed (result still printed), 2 = usage error, 3 = the workload
// could not run (no result).

#include <cmath>
#include <cstdio>
#include <cstdlib>
#include <exception>
#include <filesystem>
#include <map>
#include <string>

#include "bench.hpp"
#include "host.hpp"

namespace {

using namespace perfbench;

[[noreturn]] void usage(const std::string& why) {
  std::fprintf(stderr, "perfbench: %s\n", why.c_str());
  std::exit(2);
}

Options parse(int argc, char** argv) {
  std::map<std::string, std::string> args;
  for (int i = 1; i < argc; ++i) {
    const std::string key = argv[i];
    if (key.rfind("--", 0) != 0 || i + 1 >= argc) usage("bad argument " + key);
    args[key.substr(2)] = argv[++i];
  }
  const auto get = [&](const char* key, const char* fallback) {
    const auto it = args.find(key);
    return it != args.end() ? it->second : std::string(fallback);
  };
  Options options;
  try {
    options.workload = get("workload", "");
    options.seed = std::stoull(get("seed", "1"));
    options.seconds = std::stod(get("seconds", "10"));
    options.trace = get("trace", "0") == "1";
    options.shard_bin = get("shard-bin", "");
    options.out_dir = get("out-dir", ".bench_out");
    options.commit = get("commit", "");
  } catch (const std::exception&) {
    usage("unparseable option value");
  }
  if (options.seconds <= 0.0) usage("--seconds must be > 0");
  return options;
}

void run_workload(const Options& options, Report& report) {
  if (options.workload == "tune") return run_tune(options, report);
  if (options.workload == "serve-single") {
    if (options.trace && options.shard_bin.empty()) {
      usage("serve-single --trace 1 needs --shard-bin");
    }
    return run_serve_single(options, report);
  }
  usage("unknown workload '" + options.workload + "'");
}

}  // namespace

int main(int argc, char** argv) {
  const Options options = parse(argc, argv);
  tighten_timer_slack();
  std::printf("%s\n", host_fingerprint(options.commit).c_str());
  std::printf("workload=%s seed=%llu seconds=%.3g trace=%d\n",
              options.workload.c_str(),
              static_cast<unsigned long long>(options.seed), options.seconds,
              options.trace ? 1 : 0);
  std::fflush(stdout);

  Report report;
  const CpuSample cpu_start = CpuSample::now();
  try {
    std::filesystem::create_directories(options.out_dir);
    run_workload(options, report);
  } catch (const std::exception& e) {
    std::fflush(stdout);
    std::fprintf(stderr, "perfbench: %s\n", e.what());
    return 3;
  }
  std::printf("host: cpu_steal_frac=%.4f over the run\n",
              CpuSample::now().steal_frac_since(cpu_start));

  // Every metric of the table, by name and unit. Per-layer metrics of layers
  // the workload never called are 0; an end-to-end metric must be measured.
  const auto& table =
      options.trace ? per_layer_metrics() : end_to_end_metrics();
  std::string metrics_json;
  for (const MetricSpec& spec : table) {
    auto it = report.metrics.find(spec.name);
    if (it == report.metrics.end()) {
      if (!options.trace) {
        std::fprintf(stderr, "perfbench: %s was not measured\n", spec.name);
        return 3;
      }
      it = report.metrics.emplace(spec.name, 0.0).first;
    }
    if (!std::isfinite(it->second)) {
      std::fprintf(stderr, "perfbench: %s is not finite\n", spec.name);
      return 3;
    }
    std::printf("metric %-30s %18.6f %-8s %s\n", spec.name, it->second,
                spec.unit, spec.moves);
    char entry[256];
    std::snprintf(entry, sizeof(entry),
                  "%s\"%s\": {\"value\": %.17g, \"unit\": \"%s\"}",
                  metrics_json.empty() ? "" : ", ", spec.name, it->second,
                  spec.unit);
    metrics_json += entry;
  }
  for (const std::string& why : report.check_failures) {
    std::printf("CHECK FAILED: %s\n", why.c_str());
  }
  std::printf("{\"correct\": %s, \"attempted\": %llu, \"failed\": %llu, "
              "\"metrics\": {%s}}\n",
              report.correct ? "true" : "false",
              static_cast<unsigned long long>(report.attempted),
              static_cast<unsigned long long>(report.failed),
              metrics_json.c_str());
  return report.correct ? 0 : 1;
}
