// `tune`: the paper's claim. Each round tunes three dataset shapes — ECG
// (T=151, V=2, Ny=2), JPVOW (T=28, V=12, Ny=9) and LIB (T=44, V=2, Ny=15) at
// a reduced per-split cap — first by backprop (Trainer::fit_multistart, the
// paper protocol with window 1 and the default restarts), then by one
// fixed-divs grid level (run_grid_level, no escalation, so the work per
// round is constant). Rounds repeat for the time budget; CPU and wall times
// are medians over rounds.

#include <algorithm>
#include <cmath>
#include <cstdio>
#include <string>
#include <thread>
#include <vector>

#include "bench.hpp"
#include "data/preprocess.hpp"
#include "data/specs.hpp"
#include "data/synth.hpp"
#include "dfr/backprop.hpp"
#include "dfr/features.hpp"
#include "dfr/grid_search.hpp"
#include "dfr/ridge.hpp"
#include "dfr/trainer.hpp"
#include "host.hpp"
#include "trace.hpp"

namespace perfbench {
namespace {

constexpr const char* kShapes[] = {"ECG", "JPVOW", "LIB"};
constexpr std::size_t kCap = 60;       // per-split sample cap
constexpr std::size_t kGridDivs = 4;   // 16 (A, B) candidates per level
constexpr std::size_t kNodes = 30;     // Nx, the paper's setting

unsigned tune_threads() {
  return std::max(1u, std::min(4u, std::thread::hardware_concurrency()));
}

std::vector<dfr::DatasetPair> make_datasets(std::uint64_t seed) {
  std::vector<dfr::DatasetPair> out;
  for (const char* id : kShapes) {
    dfr::DatasetSpec spec = *dfr::find_spec(id);
    spec.train_size = std::min(spec.train_size, kCap);
    spec.test_size = std::min(spec.test_size, kCap);
    dfr::SynthConfig config;
    config.seed = seed;
    dfr::DatasetPair pair = dfr::generate_synthetic(spec, config);
    dfr::standardize_pair(pair);
    out.push_back(std::move(pair));
  }
  return out;
}

/// setup_s: median time of the dataset syntheses repeated for
/// kSetupBudgetS; the last one is kept.
std::vector<dfr::DatasetPair> set_up(std::uint64_t seed, double& setup_s) {
  std::vector<dfr::DatasetPair> data;
  const std::vector<double> times = repeat_timed(kSetupBudgetS, [&] {
    const Clock::time_point t0 = Clock::now();
    data = make_datasets(seed);
    return seconds_since(t0);
  });
  setup_s = median(times);
  std::printf("tune: setup_s=%.6f (median of %zu syntheses; quartiles %.6f "
              "%.6f), threads=%u, cap=%zu\n",
              setup_s, times.size(), percentile(times, 25.0),
              percentile(times, 75.0), tune_threads(), kCap);
  return data;
}

struct Round {
  double bp_s = 0.0;
  double grid_s = 0.0;
  double bp_cpu_s = 0.0;
  double grid_cpu_s = 0.0;
  double acc = 0.0;  // mean test accuracy of the bp models
  double steal = 0.0;  // host CPU steal share while the round ran (printed)
  std::vector<dfr::TrainResult> models;
  std::vector<dfr::GridLevelResult> levels;
};

bool all_finite(const dfr::TrainResult& model) {
  return std::isfinite(model.params.a) && std::isfinite(model.params.b) &&
         model.readout.weights().all_finite() &&
         dfr::all_finite(model.readout.bias());
}

Round run_round(const std::vector<dfr::DatasetPair>& data, std::uint64_t seed,
                Tracer& tracer, Report& report) {
  Round round;
  dfr::TrainerConfig tconfig;
  tconfig.nodes = kNodes;
  tconfig.seed = seed;
  tconfig.threads = tune_threads();
  const dfr::Trainer trainer(tconfig);
  dfr::GridSearchConfig gconfig;
  gconfig.nodes = kNodes;
  gconfig.seed = seed;
  gconfig.threads = tune_threads();

  const std::uint64_t round_span = tracer.new_id();
  const Clock::time_point round_start = Clock::now();
  const CpuSample cpu_start = CpuSample::now();
  for (std::size_t d = 0; d < data.size(); ++d) {
    const double cpu0 = process_cpu_s();
    const Clock::time_point t0 = Clock::now();
    dfr::TrainResult model = trainer.fit_multistart(
        data[d].train, dfr::Trainer::default_restarts());
    const Clock::time_point t1 = Clock::now();
    round.bp_cpu_s += process_cpu_s() - cpu0;
    tracer.record(round_span, d + 1, "dfr.fit_multistart", t0, t1);
    round.bp_s += std::chrono::duration<double>(t1 - t0).count();
    ++report.attempted;
    if (!all_finite(model)) {
      ++report.failed;
      report.fail_check(std::string("tune: non-finite (A, B) or readout on ") +
                        kShapes[d]);
    }
    round.acc += dfr::evaluate_accuracy(model, data[d].test);
    round.models.push_back(std::move(model));
  }
  round.acc /= static_cast<double>(data.size());
  for (std::size_t d = 0; d < data.size(); ++d) {
    const double cpu0 = process_cpu_s();
    const Clock::time_point t0 = Clock::now();
    dfr::GridLevelResult level =
        dfr::run_grid_level(gconfig, data[d].train, data[d].test, kGridDivs);
    const Clock::time_point t1 = Clock::now();
    round.grid_cpu_s += process_cpu_s() - cpu0;
    tracer.record(round_span, d + 1, "dfr.run_grid_level", t0, t1);
    round.grid_s += std::chrono::duration<double>(t1 - t0).count();
    ++report.attempted;
    round.levels.push_back(std::move(level));
  }
  tracer.record(round_span, 0, 0, "tune.round", round_start, Clock::now());
  round.steal = CpuSample::now().steal_frac_since(cpu_start);
  return round;
}

/// Rounds until `budget_s` is spent (at least `min_rounds`). Every round
/// must reach the same accuracy: training is deterministic in the seed.
std::vector<Round> run_rounds(const std::vector<dfr::DatasetPair>& data,
                              std::uint64_t seed, double budget_s,
                              std::size_t min_rounds, Tracer& tracer,
                              Report& report) {
  std::vector<Round> rounds;
  const Clock::time_point start = Clock::now();
  while (rounds.size() < min_rounds || seconds_since(start) < budget_s) {
    rounds.push_back(run_round(data, seed, tracer, report));
    if (rounds.back().acc != rounds.front().acc) {
      report.fail_check("tune: accuracy changed between rounds");
    }
  }
  return rounds;
}

/// The end-to-end tuning rounds, untraced, for `budget_s` (at least two).
/// The metrics are CPU times, the median over rounds: the kernel keeps time
/// the hypervisor stole out of a thread's CPU time, while wall time on a
/// shared 4-vCPU host rose from 0.5 s to 0.8-1.0 s per round whenever CPU
/// steal reached 15-30% for minutes at a time (four threads wait at each
/// parallel join for the slowest). Wall times are printed beside them.
void measure_tuning(const std::vector<dfr::DatasetPair>& data,
                    std::uint64_t seed, double budget_s, Report& report) {
  Tracer untraced;
  const std::vector<Round> rounds =
      run_rounds(data, seed, budget_s, 2, untraced, report);
  std::vector<double> bp;
  std::vector<double> grid;
  std::vector<double> bp_cpu;
  std::vector<double> grid_cpu;
  std::printf("tune rounds (bp_s/grid_s/bp_cpu_s/grid_cpu_s/steal):");
  for (const Round& r : rounds) {
    bp.push_back(r.bp_s);
    grid.push_back(r.grid_s);
    bp_cpu.push_back(r.bp_cpu_s);
    grid_cpu.push_back(r.grid_cpu_s);
    std::printf(" %.3f/%.3f/%.3f/%.3f/%.3f", r.bp_s, r.grid_s, r.bp_cpu_s,
                r.grid_cpu_s, r.steal);
  }
  std::printf("\n");
  const double bp_cpu_s = median(bp_cpu);
  const double grid_cpu_s = median(grid_cpu);
  report.metrics["tune_bp_cpu_s"] = bp_cpu_s;
  report.metrics["tune_grid_cpu_s"] = grid_cpu_s;
  report.metrics["tune_acc"] = rounds.front().acc;
  std::printf("tune: %zu rounds, %u threads  tune_bp_cpu_s=%.4f "
              "tune_grid_cpu_s=%.4f tune_acc=%.4f  wall: tune_bp_s=%.4f "
              "tune_grid_s=%.4f\n",
              rounds.size(), tune_threads(), bp_cpu_s, grid_cpu_s,
              rounds.front().acc, median(bp), median(grid));
  // Informational only, never a metric: a faster grid would read as a
  // regression of the ratio.
  std::printf("paper ratio (informational): tune_grid_cpu_s / tune_bp_cpu_s "
              "= %.4f s / %.4f s = %.3f  (grid: one %zux%zu level; bp: "
              "fit_multistart over %zu restarts)\n",
              grid_cpu_s, bp_cpu_s, grid_cpu_s / bp_cpu_s, kGridDivs,
              kGridDivs, dfr::Trainer::default_restarts().size());
}

/// Replay the dfr stage calls on the run's own data and tuned models.
void replay_stages(const std::vector<dfr::DatasetPair>& data,
                   const Round& round, Tracer& tracer, Report& report) {
  double forward_us = 0.0;
  double backprop_us = 0.0;
  std::size_t samples = 0;
  std::vector<double> features_ms;
  std::vector<double> ridge_ms;
  for (std::size_t d = 0; d < data.size(); ++d) {
    const dfr::TrainResult& model = round.models[d];
    const dfr::ModularReservoir reservoir(model.mask.nodes(),
                                          model.nonlinearity);
    const dfr::Dataset& train = data[d].train;
    for (const dfr::Sample& sample : train.samples()) {
      const Clock::time_point t0 = Clock::now();
      const dfr::TruncatedForward fwd = dfr::run_forward_truncated(
          reservoir, model.params, model.mask, sample.series, 1);
      const Clock::time_point t1 = Clock::now();
      const dfr::OutputLayer::Backward out =
          model.readout.backward(fwd.dprr, sample.label);
      const Clock::time_point t2 = Clock::now();
      (void)dfr::backprop_through_dprr(reservoir, model.params,
                                       fwd.tail_states, fwd.tail_j,
                                       out.dfeatures, fwd.tail_j.rows());
      const Clock::time_point t3 = Clock::now();
      tracer.record(0, d + 1, "dfr.forward", t0, t1);
      tracer.record(0, d + 1, "dfr.backprop", t2, t3);
      forward_us += us_between(t0, t1);
      backprop_us += us_between(t2, t3);
      ++samples;
    }
    const Clock::time_point t0 = Clock::now();
    const dfr::FeatureMatrix fit = dfr::compute_features(
        reservoir, model.params, model.mask, train,
        dfr::RepresentationKind::kDprr, tune_threads());
    const Clock::time_point t1 = Clock::now();
    const dfr::FeatureMatrix selection = dfr::compute_features(
        reservoir, model.params, model.mask, data[d].test,
        dfr::RepresentationKind::kDprr, tune_threads());
    const Clock::time_point t2 = Clock::now();
    (void)dfr::sweep_ridge(fit, selection, train.num_classes());
    const Clock::time_point t3 = Clock::now();
    tracer.record(0, d + 1, "dfr.compute_features", t0, t1);
    tracer.record(0, d + 1, "dfr.sweep_ridge", t2, t3);
    features_ms.push_back(us_between(t0, t1) * 1e-3);
    ridge_ms.push_back(us_between(t2, t3) * 1e-3);
  }
  auto& m = report.metrics;
  m["dfr.forward_us"] = forward_us / static_cast<double>(samples);
  m["dfr.backprop_us"] = backprop_us / static_cast<double>(samples);
  double feat = 0.0;
  double ridge = 0.0;
  for (double v : features_ms) feat += v;
  for (double v : ridge_ms) ridge += v;
  m["dfr.features_ms"] = feat;       // the three shapes' train sets
  m["dfr.ridge_sweep_ms"] = ridge;   // the paper beta grid, three shapes
}

}  // namespace

void run_tune(const Options& options, Report& report) {
  double setup_s = 0.0;
  const std::vector<dfr::DatasetPair> data = set_up(options.seed, setup_s);
  const CpuSample cpu_start = CpuSample::now();

  if (!options.trace) {
    measure_tuning(data, options.seed, 0.6 * options.seconds, report);
    report.metrics["setup_s"] = setup_s;
    report.metrics["rss_mb"] = peak_rss_mb();
    std::printf("cpu_steal_frac=%.4f\n",
                CpuSample::now().steal_frac_since(cpu_start));
    measure_serving_probe(options, 0.4 * options.seconds, report);
    return;
  }

  // Traced run: one untraced round (for trace.overhead_frac), traced rounds,
  // then the stage replay.
  Tracer tracer;
  const Round untraced = run_round(data, options.seed, tracer, report);
  tracer.set_enabled(true);
  const std::vector<Round> rounds =
      run_rounds(data, options.seed, 0.5 * options.seconds, 1, tracer, report);
  replay_stages(data, rounds.back(), tracer, report);
  tracer.set_enabled(false);

  std::vector<double> sgd;
  std::vector<double> refit;
  std::vector<double> round_s;
  double grid_s = 0.0;
  std::size_t candidates = 0;
  for (const Round& r : rounds) {
    double sgd_s = 0.0;
    double refit_s = 0.0;
    for (const dfr::TrainResult& model : r.models) {
      sgd_s += model.sgd_seconds;
      refit_s += model.ridge_seconds;
    }
    sgd.push_back(sgd_s);
    refit.push_back(refit_s);
    round_s.push_back(r.bp_s + r.grid_s);
    for (const dfr::GridLevelResult& level : r.levels) {
      grid_s += level.seconds;
      candidates += level.candidates.size();
    }
  }
  std::size_t stored = 0;
  std::size_t skipped = 0;
  for (const dfr::TrainResult& model : rounds.front().models) {
    stored = std::max(stored, model.stored_state_values);
    skipped += model.skipped_updates;
  }
  auto& m = report.metrics;
  m["dfr.grid_candidate_ms"] = grid_s * 1e3 / static_cast<double>(candidates);
  m["dfr.sgd_s"] = median(sgd);
  m["dfr.refit_s"] = median(refit);
  m["dfr.stored_state_values"] = static_cast<double>(stored);
  m["dfr.skipped_updates"] = static_cast<double>(skipped);
  m["loadgen.cpu_steal_frac"] = CpuSample::now().steal_frac_since(cpu_start);
  m["trace.overhead_frac"] =
      median(round_s) / (untraced.bp_s + untraced.grid_s) - 1.0;
  print_layer_times(tracer);
  tracer.write(options.out_dir + "/trace-tune.tsv");
}

void measure_tune_probe(const Options& options, double budget_s,
                        Report& report) {
  use_all_cpus();  // the serving phases reserved one for the generator
  std::printf("tune probe:\n");
  measure_tuning(make_datasets(options.seed), options.seed, budget_s, report);
}

}  // namespace perfbench
