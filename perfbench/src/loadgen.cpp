#include "loadgen.hpp"

#include <algorithm>
#include <atomic>
#include <cmath>
#include <cstdio>
#include <exception>
#include <mutex>
#include <sstream>
#include <thread>

#include "host.hpp"
#include "util/rng.hpp"

namespace perfbench {

using dfr::serve::RequestStatus;
using dfr::serve::wire::WireStatus;

Outcome classify(RequestStatus status) {
  switch (status) {
    case RequestStatus::kOk: return Outcome::kOk;
    case RequestStatus::kDeadlineExceeded: return Outcome::kShed;
    case RequestStatus::kQueueFull:
    case RequestStatus::kShutdown: return Outcome::kRejected;
    default: return Outcome::kError;
  }
}

Outcome classify(WireStatus status) {
  switch (status) {
    case WireStatus::kUnavailable:
    case WireStatus::kTimeout:
    case WireStatus::kBreakerOpen: return Outcome::kRejected;
    default:
      // 0..6 mirror RequestStatus (static_assert in serve/wire.hpp).
      return classify(static_cast<RequestStatus>(status));
  }
}

void Ledger::count(Outcome outcome, const char* status_name) {
  ++sent;
  switch (outcome) {
    case Outcome::kOk: ++ok; break;
    case Outcome::kShed: ++shed; break;
    case Outcome::kRejected: ++rejected; break;
    case Outcome::kError: ++error; break;
  }
  ++by_status[status_name];
}

void Ledger::merge(const Ledger& other) {
  sent += other.sent;
  ok += other.ok;
  shed += other.shed;
  rejected += other.rejected;
  error += other.error;
  for (const auto& [name, n] : other.by_status) by_status[name] += n;
}

bool Ledger::balanced() const {
  std::uint64_t by_name = 0;
  for (const auto& [name, n] : by_status) by_name += n;
  return sent == ok + shed + rejected + error && by_name == sent;
}

double Ledger::fail_frac() const {
  return sent > 0 ? static_cast<double>(shed + rejected + error) /
                        static_cast<double>(sent)
                  : 0.0;
}

std::string Ledger::describe() const {
  std::ostringstream os;
  os << "sent=" << sent << " ok=" << ok << " shed=" << shed
     << " rejected=" << rejected << " error=" << error << " [";
  bool first = true;
  for (const auto& [name, n] : by_status) {
    os << (first ? "" : " ") << name << '=' << n;
    first = false;
  }
  os << "] " << (balanced() ? "balanced" : "UNBALANCED");
  return os.str();
}

Schedule make_schedule(double qps, double duration_s, std::size_t models,
                       double zipf_s, std::size_t series_pool,
                       std::uint64_t seed) {
  Schedule schedule;
  schedule.qps = qps;
  schedule.duration_s = duration_s;
  dfr::Rng rng(seed);
  std::vector<double> cdf(models);
  double total = 0.0;
  for (std::size_t k = 0; k < models; ++k) {
    total += zipf_s > 0.0 ? 1.0 / std::pow(static_cast<double>(k + 1), zipf_s)
                          : 1.0;
    cdf[k] = total;
  }
  for (double t = 0.0;;) {
    // Inverse-CDF exponential gap; 1 - u keeps log() finite.
    t += -std::log(1.0 - rng.uniform()) / qps;
    if (t >= duration_s) break;
    schedule.arrival_s.push_back(t);
    const double u = rng.uniform() * total;
    const auto pick = static_cast<std::size_t>(
        std::lower_bound(cdf.begin(), cdf.end(), u) - cdf.begin());
    schedule.model.push_back(std::min(pick, models - 1));
    schedule.series.push_back(rng.uniform_index(series_pool));
  }
  return schedule;
}

dfr::serve::RequestOptions remaining_budget(Clock::time_point due,
                                            Clock::time_point now) {
  const double left = static_cast<double>(kSloUs) - us_between(due, now);
  dfr::serve::RequestOptions options;
  options.deadline_us = left >= 1.0 ? static_cast<std::uint64_t>(left) : 1;
  return options;
}

namespace {

/// Median over `windows` of each window's p-th percentile of `values`.
double median_of_windows(const std::vector<double>& values,
                         const std::vector<std::uint32_t>& window_of,
                         const std::vector<std::uint32_t>& windows, double p) {
  std::map<std::uint32_t, std::vector<double>> by_window;
  for (std::uint32_t w : windows) by_window[w];
  for (std::size_t i = 0; i < values.size(); ++i) {
    const auto it = by_window.find(window_of[i]);
    if (it != by_window.end()) it->second.push_back(values[i]);
  }
  std::vector<double> per_window;
  for (auto& [window, samples] : by_window) {
    if (!samples.empty()) {
      per_window.push_back(percentile(std::move(samples), p));
    }
  }
  return median(std::move(per_window));
}

std::string join(const std::vector<double>& values, const char* format) {
  std::string out;
  char cell[32];
  for (double v : values) {
    std::snprintf(cell, sizeof(cell), format, v);
    out += (out.empty() ? "" : " ") + std::string(cell);
  }
  return out;
}

}  // namespace

std::vector<std::uint32_t> PhaseResult::calm_windows() const {
  const std::size_t complete = std::min(
      window_steal.size(), static_cast<std::size_t>(duration_s / kWindowS));
  std::vector<std::uint32_t> order;
  for (std::uint32_t w = 0; w < complete; ++w) order.push_back(w);
  std::stable_sort(order.begin(), order.end(), [&](auto a, auto b) {
    return window_steal[a] < window_steal[b];
  });
  order.resize(std::max<std::size_t>(1, (order.size() + 1) / 2));
  return order;
}

double PhaseResult::calm_latency(double p) const {
  return median_of_windows(latency_us, latency_window, calm_windows(), p);
}

double PhaseResult::window_goodput_qps(std::uint32_t w) const {
  return w < window_good.size() ? window_good[w] / kWindowS : 0.0;
}

double PhaseResult::calm_goodput_qps() const {
  std::vector<double> per_window;
  for (std::uint32_t w : calm_windows()) {
    per_window.push_back(window_goodput_qps(w));
  }
  return median(std::move(per_window));
}

double PhaseResult::doomed_frac() const {
  const auto doomed = std::count_if(lag_us.begin(), lag_us.end(), [](double l) {
    return l > static_cast<double>(kSloUs);
  });
  return lag_us.empty() ? 0.0
                        : static_cast<double>(doomed) /
                              static_cast<double>(lag_us.size());
}

namespace {

void print_phase(const char* label, const PhaseResult& phase) {
  char offered[32] = "closed loop";
  if (phase.qps > 0.0) {
    std::snprintf(offered, sizeof(offered), "offered=%.0fqps", phase.qps);
  }
  std::printf(
      "%s: %s for %.2fs  ok=%llu  all windows: p50=%.1fus "
      "p99=%.1fus fail_frac=%.5f  lag p50=%.1fus p99=%.1fus max=%.1fus "
      "doomed=%.5f  calm windows: p50=%.1fus p99=%.1fus goodput=%.0f/s\n",
      label, offered, phase.duration_s,
      static_cast<unsigned long long>(phase.ledger.ok),
      percentile(phase.latency_us, 50.0), percentile(phase.latency_us, 99.0),
      phase.ledger.fail_frac(), percentile(phase.lag_us, 50.0),
      percentile(phase.lag_us, 99.0), percentile(phase.lag_us, 100.0),
      phase.doomed_frac(), phase.calm_latency(50.0),
      phase.calm_latency(99.0), phase.calm_goodput_qps());
  std::vector<double> tails;
  std::vector<double> lags;
  std::vector<double> goodput;
  for (std::uint32_t w = 0; w < phase.window_steal.size(); ++w) {
    goodput.push_back(phase.window_goodput_qps(w));
    tails.push_back(median_of_windows(phase.latency_us, phase.latency_window,
                                      {w}, 99.0));
    lags.push_back(
        median_of_windows(phase.lag_us, phase.lag_window, {w}, 99.0));
  }
  std::printf("%s windows: steal [%s] p99_us [%s] lag_p99_us [%s] "
              "goodput [%s]\n",
              label, join(phase.window_steal, "%.3f").c_str(),
              join(tails, "%.0f").c_str(), join(lags, "%.0f").c_str(),
              join(goodput, "%.0f").c_str());
  std::printf("%s ledger: %s%s\n", label, phase.ledger.describe().c_str(),
              phase.generator_late ? "  (GENERATOR LATE)" : "");
}

}  // namespace

void account_phase(const char* label, const PhaseResult& phase,
                   Report& report) {
  print_phase(label, phase);
  report.attempted += phase.ledger.sent;
  report.failed += phase.ledger.error;
  if (!phase.ledger.balanced()) {
    report.fail_check(std::string(label) + ": outcome ledger does not balance");
  }
}

PhaseResult run_punctual(const char* label,
                         const std::function<PhaseResult()>& attempt) {
  for (int k = 1;; ++k) {
    PhaseResult phase = attempt();
    const double doomed = phase.doomed_frac();
    if (doomed <= kMaxDoomedFrac) return phase;
    if (k == kPhaseAttempts) {
      std::printf("%s: GENERATOR LATE in every attempt; reporting the last "
                  "(%.4f doomed by the generator)\n",
                  label, doomed);
      phase.generator_late = true;
      return phase;
    }
    print_phase(label, phase);
    std::printf("%s: attempt %d of %d late, %.4f of requests handed off "
                "after the %llu us limit (> %.2f)\n",
                label, k, kPhaseAttempts, doomed,
                static_cast<unsigned long long>(kSloUs), kMaxDoomedFrac);
  }
}

void report_serving_metrics(const PhaseResult& operating,
                            const PhaseResult& capacity, Report& report) {
  report.metrics["ok_frac"] = 1.0 - operating.ledger.fail_frac();
  const double cpu_us_per_request =
      capacity.cpu_s * 1e6 / static_cast<double>(capacity.ledger.ok);
  report.metrics["cpu_us_per_request"] = cpu_us_per_request;
  std::printf("capacity: %.0f/s  cpu_us_per_request=%.3f\n",
              capacity.calm_goodput_qps(), cpu_us_per_request);
}

void dispatch(PhaseResult& phase, const Schedule& schedule,
              const std::function<void(std::size_t, Clock::time_point)>& send) {
  const std::size_t n = schedule.arrival_s.size();
  phase.lag_us.assign(n, 0.0);
  phase.lag_window.resize(n);
  for (std::size_t i = 0; i < n; ++i) {
    phase.lag_window[i] =
        static_cast<std::uint32_t>(schedule.arrival_s[i] / kWindowS);
  }
  std::atomic<std::size_t> next{0};
  std::atomic<bool> failed{false};
  std::exception_ptr error;
  std::mutex mutex;  // guards marks and error
  std::vector<CpuSample> marks{CpuSample::now()};  // one per window start
  const Clock::time_point start = Clock::now();

  // Two threads walk the schedule: each sleeps until the next unclaimed
  // arrival is due, and whichever wakes first claims and sends it. When the
  // hypervisor stalls one thread's CPU for milliseconds, the other keeps the
  // schedule instead of every arrival in the stall going out late.
  const auto walk = [&] {
    try {
      for (std::size_t i = next.load(); i < n && !failed.load();
           i = next.load()) {
        const Clock::time_point due =
            start + std::chrono::duration_cast<Clock::duration>(
                        std::chrono::duration<double>(schedule.arrival_s[i]));
        if (Clock::now() < due) std::this_thread::sleep_until(due);
        if (!next.compare_exchange_strong(i, i + 1)) continue;
        // Lateness of every request: how far past its due time it is handed
        // off, whether the dispatcher overslept, was preempted, or is still
        // catching up after a slow hand-off.
        phase.lag_us[i] = us_between(due, Clock::now());
        {
          std::lock_guard<std::mutex> lock(mutex);
          while (marks.size() <= phase.lag_window[i]) {
            marks.push_back(CpuSample::now());
          }
        }
        send(i, due);
      }
    } catch (...) {
      std::lock_guard<std::mutex> lock(mutex);
      if (!error) error = std::current_exception();
      failed.store(true);
    }
  };
  // The second walker stays on the system's CPUs; the first takes the
  // generator's own.
  std::thread second;
  if (generator_cpu_reserved()) second = std::thread(walk);
  {
    const GeneratorCpu pin;
    walk();
  }
  if (second.joinable()) second.join();
  if (error) std::rethrow_exception(error);
  marks.push_back(CpuSample::now());
  for (std::size_t w = 0; w + 1 < marks.size(); ++w) {
    phase.window_steal.push_back(marks[w + 1].steal_frac_since(marks[w]));
  }
}

}  // namespace perfbench
