#pragma once
// Shared vocabulary of the perfbench workloads: run options, the metric
// tables every run reports, and the small statistics helpers they use.
//
// Every run reports every metric of its table (end-to-end with --trace 0,
// per-layer with --trace 1). A layer a workload never calls reports 0 work.

#include <algorithm>
#include <chrono>
#include <cstdint>
#include <cstring>
#include <map>
#include <string>
#include <vector>

namespace perfbench {

using Clock = std::chrono::steady_clock;

inline double us_between(Clock::time_point from, Clock::time_point to) {
  return std::chrono::duration<double, std::micro>(to - from).count();
}

inline double seconds_since(Clock::time_point from) {
  return std::chrono::duration<double>(Clock::now() - from).count();
}

struct Options {
  std::string workload;
  std::uint64_t seed = 1;
  double seconds = 10.0;
  bool trace = false;
  std::string shard_bin;  // dfr_shard binary (the tier in serve-single)
  std::string out_dir;    // working files + trace output, relative to cwd
  std::string commit;     // source identity for the host fingerprint
};

struct MetricSpec {
  const char* name;
  const char* unit;
  const char* moves;  // per-layer: the end-to-end metric it should move
};

// End-to-end metrics, all measured with tracing off. Work is timed in CPU
// time (unit cpu_s / cpu_us), from which the kernel keeps the time the
// hypervisor stole: this host's CPU steal swings from 0% to 30% within
// minutes and for minutes at a time, which moved tuning wall time by up to
// 2x, serving capacity by 30% and p50/p99 by 2-10x, wider than any bound.
// Wall times and capacity are printed with every run; latency percentiles
// are per-layer request.* figures of the traced run.
inline const std::vector<MetricSpec>& end_to_end_metrics() {
  static const std::vector<MetricSpec> specs = {
      {"setup_s", "s", ""},
      {"tune_bp_cpu_s", "cpu_s", ""},
      {"tune_grid_cpu_s", "cpu_s", ""},
      {"tune_acc", "fraction", ""},
      {"ok_frac", "fraction", ""},
      {"cpu_us_per_request", "cpu_us", ""},
      {"rss_mb", "MB", ""},
  };
  return specs;
}

// Per-layer metrics, from the traced run, with the end-to-end metric (and
// workload) each should move.
inline const std::vector<MetricSpec>& per_layer_metrics() {
  static const std::vector<MetricSpec> specs = {
      {"dfr.forward_us", "us", "tune_bp_cpu_s, tune_grid_cpu_s (tune)"},
      {"dfr.backprop_us", "us",
       "tune_bp_cpu_s (tune); not tune_grid_cpu_s"},
      {"dfr.features_ms", "ms", "tune_grid_cpu_s (tune)"},
      {"dfr.ridge_sweep_ms", "ms", "tune_grid_cpu_s (tune)"},
      {"dfr.grid_candidate_ms", "ms", "tune_grid_cpu_s (tune)"},
      {"dfr.sgd_s", "s", "tune_bp_cpu_s (tune)"},
      {"dfr.refit_s", "s", "tune_bp_cpu_s (tune)"},
      {"dfr.stored_state_values", "count", "rss_mb, tune_acc (tune)"},
      {"dfr.skipped_updates", "count", "tune_acc (tune)"},
      {"engine.infer_us", "us", "cpu_us_per_request (serve-single)"},
      {"engine.batched_us_per_series", "us", "none end to end: fleet tier"},
      {"server.submit_us", "us", "cpu_us_per_request, ok_frac (serve-single)"},
      {"server.latency_p50_us", "us", "ok_frac (serve-single)"},
      {"server.latency_p99_us", "us", "ok_frac (serve-single)"},
      {"server.queue_wait_us", "us", "ok_frac (serve-single)"},
      {"server.shed_frac", "fraction", "ok_frac (serve-single)"},
      {"server.overload_goodput_qps", "1/s",
       "none end to end: overload, host-bound"},
      {"store.get_p50_us", "us", "none end to end: fleet tier"},
      {"store.get_p99_us", "us", "none end to end: fleet tier"},
      {"store.hit_frac", "fraction", "none end to end: fleet tier"},
      {"store.cold_fault_frac", "fraction", "none end to end: fleet tier"},
      {"store.evictions", "count", "none end to end: fleet tier"},
      {"store.prefetches", "count", "none end to end: fleet tier"},
      {"store.error_frac", "fraction", "none end to end: fleet tier"},
      {"wire.encode_us", "us", "router.infer_p50_us (tier, serve-single)"},
      {"wire.decode_us", "us", "router.infer_p50_us (tier, serve-single)"},
      {"wire.request_bytes", "bytes", "router.infer_p50_us (tier)"},
      {"router.infer_p50_us", "us", "none end to end: tier only"},
      {"router.infer_p99_us", "us", "none end to end: tier only"},
      {"router.overhead_us", "us", "router.infer_p50_us (tier)"},
      {"router.retried", "count", "router.infer_p99_us (tier)"},
      {"router.io_failures", "count", "router.infer_p99_us (tier)"},
      {"router.p2c_alternate_frac", "fraction", "router.infer_p99_us (tier)"},
      {"shard.latency_us", "us", "router.infer_p50_us (tier)"},
      {"request.p50_us", "us", "none: end-to-end latency, host-bound"},
      {"request.p99_us", "us", "none: end-to-end latency, host-bound"},
      {"loadgen.lag_p50_us", "us", "none: run validity"},
      {"loadgen.lag_p99_us", "us", "none: run validity"},
      {"loadgen.cpu_steal_frac", "fraction", "none: run validity"},
      {"trace.overhead_frac", "fraction", "none: run validity"},
  };
  return specs;
}

/// What one run reports: metric values by name, the output check, and the
/// number of operations attempted / failed (requests, or tuning calls).
struct Report {
  std::map<std::string, double> metrics;
  bool correct = true;
  std::vector<std::string> check_failures;
  std::uint64_t attempted = 0;
  std::uint64_t failed = 0;

  void fail_check(std::string why) {
    correct = false;
    if (check_failures.size() < 16) check_failures.push_back(std::move(why));
  }
};

/// Nearest-rank-interpolated percentile (p in [0, 100]) of an unsorted sample;
/// 0 for an empty one.
inline double percentile(std::vector<double> values, double p) {
  if (values.empty()) return 0.0;
  std::sort(values.begin(), values.end());
  const double rank = p / 100.0 * static_cast<double>(values.size() - 1);
  const auto lo = static_cast<std::size_t>(rank);
  const std::size_t hi = std::min(lo + 1, values.size() - 1);
  const double frac = rank - static_cast<double>(lo);
  return values[lo] + (values[hi] - values[lo]) * frac;
}

inline double median(std::vector<double> values) {
  return percentile(std::move(values), 50.0);
}

/// Run `timed_once()` (which returns the seconds it measured) until
/// `budget_s` has passed, at least five times, and return every time.
template <class TimedOnce>
std::vector<double> repeat_timed(double budget_s, TimedOnce&& timed_once) {
  std::vector<double> times;
  const Clock::time_point start = Clock::now();
  while (times.size() < 5 || seconds_since(start) < budget_s) {
    times.push_back(timed_once());
  }
  return times;
}

/// Every workload repeats its set-up for this long and reports the median
/// (setup_s): one set-up takes milliseconds, too short to time once.
inline constexpr double kSetupBudgetS = 1.0;

/// Index of the largest logit (the first on ties), as the engines label.
inline int argmax(const std::vector<double>& logits) {
  return static_cast<int>(std::max_element(logits.begin(), logits.end()) -
                          logits.begin());
}

/// A served response matches its reference: same label, bit-identical logits.
inline bool same_output(const std::vector<double>& logits, int label,
                        const std::vector<double>& reference) {
  return logits.size() == reference.size() &&
         std::memcmp(logits.data(), reference.data(),
                     reference.size() * sizeof(double)) == 0 &&
         label == argmax(reference);
}

// Workload entry points; each fills the metric table its --trace selects.
void run_tune(const Options& options, Report& report);
void run_serve_single(const Options& options, Report& report);

// Every untraced run reports every end-to-end metric, so a workload measures
// the other family's metrics with a short probe after its own timed phases:
// `tune` ends with a serve-single probe (ok_frac, cpu_us_per_request) and
// each serving workload with a tune probe (tune_bp_cpu_s, tune_grid_cpu_s,
// tune_acc). A probe runs the same measuring code as the workload, on a
// smaller budget.
// Traced runs skip the probes, so the per-layer numbers show only the
// workload's own layers.
void measure_tune_probe(const Options& options, double budget_s,
                        Report& report);
void measure_serving_probe(const Options& options, double budget_s,
                           Report& report);

class Tracer;
/// Router, wire and shard layers through a 2-shard tier (serve-single's
/// traced run, like the fleet's store layers).
void measure_routed_layers(const Options& options, double seconds,
                           Tracer& tracer, Report& report);

}  // namespace perfbench
