#pragma once
// The benchmark's own open-loop generator and outcome ledger.
//
// Arrivals follow a Poisson schedule fixed by the seed. The dispatcher sleeps
// until each arrival is due (it never spins a core) and hands the request to
// the target; how late each hand-off is gets recorded, and the request still
// counts from its scheduled arrival, so a stall in the generator or the
// system is charged to latency rather than hidden. Two dispatcher threads on
// different CPUs share the schedule, so that one stalled CPU does not stall
// the whole schedule.

#include <cstddef>
#include <cstdint>
#include <functional>
#include <map>
#include <string>
#include <vector>

#include "bench.hpp"
#include "serve/server.hpp"
#include "serve/wire.hpp"

namespace perfbench {

enum class Outcome { kOk, kShed, kRejected, kError };

[[nodiscard]] Outcome classify(dfr::serve::RequestStatus status);
[[nodiscard]] Outcome classify(dfr::serve::wire::WireStatus status);

/// sent = ok + shed + rejected + error, with the count of every status name.
struct Ledger {
  std::uint64_t sent = 0;
  std::uint64_t ok = 0;
  std::uint64_t shed = 0;
  std::uint64_t rejected = 0;
  std::uint64_t error = 0;
  std::map<std::string, std::uint64_t> by_status;

  void count(Outcome outcome, const char* status_name);
  void merge(const Ledger& other);
  [[nodiscard]] bool balanced() const;
  [[nodiscard]] double fail_frac() const;
  [[nodiscard]] std::string describe() const;
};

/// One phase's schedule: arrival offsets, model picks, series picks.
struct Schedule {
  double qps = 0.0;
  double duration_s = 0.0;
  std::vector<double> arrival_s;
  std::vector<std::size_t> model;
  std::vector<std::size_t> series;
};

/// Poisson arrivals at `qps` for `duration_s`; models drawn i.i.d. uniform
/// (zipf_s == 0) or Zipf(zipf_s) with model 0 hottest; series uniform over a
/// pool of `series_pool`. Deterministic in `seed`.
[[nodiscard]] Schedule make_schedule(double qps, double duration_s,
                                     std::size_t models, double zipf_s,
                                     std::size_t series_pool,
                                     std::uint64_t seed);

/// Latency limit and per-request deadline of every serving request.
inline constexpr std::uint64_t kSloUs = 5000;

/// Request options carrying what is left of the latency limit at `now` for a
/// request due at `due`: the deadline runs from the scheduled arrival, so a
/// request that waited in the client arrives with less budget (at least 1 us,
/// since 0 would mean no deadline).
[[nodiscard]] dfr::serve::RequestOptions remaining_budget(
    Clock::time_point due, Clock::time_point now);

/// Latency and goodput are taken per window of this many scheduled seconds.
/// The host's CPU steal is sampled per window too, and the figures reported
/// come from the calmer half of the windows (median over them), so that a
/// neighbour's burst on a shared host does not read as a change of the
/// system. Every window's steal, tail and lateness are printed with the phase.
inline constexpr double kWindowS = 0.5;

/// The generator is trusted only while it keeps to its schedule. A request
/// it hands off later than the latency limit is shed whatever the system
/// does, so a phase in which more than this share of requests went out that
/// late is measured again on the same schedule: the generator alone would
/// then move ok_frac by more than a fifth of its 0.25 bound. (With a 1%
/// share, runs on a 4-vCPU VM at 10-25% CPU steal were late more often than
/// not.)
inline constexpr double kMaxDoomedFrac = 0.05;

/// Attempts at one phase: one repeat at most, so that a run's length stays
/// bounded. When both ran late, the second is reported and flagged
/// (PhaseResult::generator_late): the run still ends with a result, and its
/// lateness shows in loadgen.* and the printed phase.
inline constexpr int kPhaseAttempts = 2;

/// Everything one phase measured. Samples carry the window of their
/// scheduled arrival (a closed loop's, their completion).
struct PhaseResult {
  double qps = 0.0;  // offered rate; 0 for a closed loop
  double duration_s = 0.0;
  Ledger ledger;
  std::vector<double> latency_us;  // OK requests, scheduled arrival -> done
  std::vector<std::uint32_t> latency_window;
  std::vector<std::uint32_t> window_good;  // OK within the limit, per window
  std::vector<double> lag_us;      // hand-off lateness, every request
  std::vector<std::uint32_t> lag_window;
  std::vector<double> window_steal;  // host CPU steal share of each window
  bool generator_late = false;  // every attempt exceeded kMaxDoomedFrac
  double cpu_s = 0.0;  // process CPU time over a closed-loop phase

  /// Room for `requests` latency samples, written once so that the pages
  /// are resident: peak RSS then does not depend on how many succeed.
  void reserve_latencies(std::size_t requests) {
    latency_us.resize(requests);
    latency_us.clear();
    latency_window.resize(requests);
    latency_window.clear();
  }
  void add_latency(double us, double arrival_s) {
    latency_us.push_back(us);
    latency_window.push_back(static_cast<std::uint32_t>(arrival_s / kWindowS));
    count_good(us, arrival_s);
  }
  /// Count an OK request toward its window's goodput without keeping its
  /// sample (the closed loop, whose request count follows throughput).
  void count_good(double us, double at_s) {
    if (us > static_cast<double>(kSloUs)) return;
    const auto w = static_cast<std::size_t>(at_s / kWindowS);
    if (window_good.size() <= w) window_good.resize(w + 1);
    ++window_good[w];
  }
  /// The complete windows with the least steal: the lower half, at least 1.
  [[nodiscard]] std::vector<std::uint32_t> calm_windows() const;
  /// Median over the calm windows of each window's p-th percentile latency.
  [[nodiscard]] double calm_latency(double p) const;
  /// OK-within-limit completions per second of window `w`.
  [[nodiscard]] double window_goodput_qps(std::uint32_t w) const;
  /// Median over the calm windows of OK-within-limit completions per second.
  [[nodiscard]] double calm_goodput_qps() const;
  /// Share of requests handed off later than the latency limit.
  [[nodiscard]] double doomed_frac() const;
};

/// Walk the schedule from now: sleep until arrival i is due, then call
/// send(i, scheduled), from whichever of the two dispatcher threads claims
/// arrival i first (so `send` must be thread-safe). Records in `phase` how
/// late each hand-off was and the host's CPU steal over each window.
void dispatch(PhaseResult& phase, const Schedule& schedule,
              const std::function<void(std::size_t, Clock::time_point)>& send);

/// Run `attempt` (one measurement of a phase, on its fixed schedule) until
/// the generator kept to the schedule (kMaxDoomedFrac), at most
/// kPhaseAttempts times. A late attempt is printed and dropped before the
/// next starts (its responses are checked all the same, and peak RSS does
/// not grow with repeats); if all were late, the last is returned with
/// generator_late set. A host stall of a few seconds costs a repeat.
PhaseResult run_punctual(const char* label,
                         const std::function<PhaseResult()>& attempt);

/// Print the phase (rate, samples, latency, lateness, ledger) and add its
/// requests to the run's attempted/failed counts (failed = error outcomes;
/// shed and rejected requests are admission control working as designed and
/// show in ok_frac instead). An unbalanced ledger fails the output check.
void account_phase(const char* label, const PhaseResult& phase,
                   Report& report);

/// ok_frac from the operating phase, cpu_us_per_request from the closed-loop
/// phase (whose completions per second, median over its calm windows, are
/// printed as its capacity).
void report_serving_metrics(const PhaseResult& operating,
                            const PhaseResult& capacity, Report& report);

}  // namespace perfbench
