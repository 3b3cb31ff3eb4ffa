#include "dfr/grid_search.hpp"

#include <cmath>
#include <limits>
#include <optional>

#include "dfr/features.hpp"
#include "util/check.hpp"
#include "util/log.hpp"
#include "util/parallel.hpp"
#include "util/rng.hpp"
#include "util/timer.hpp"

namespace dfr {

std::vector<double> grid_points(double lo, double hi, std::size_t divs) {
  DFR_CHECK(divs >= 1 && hi > lo);
  std::vector<double> points(divs);
  const double width = (hi - lo) / static_cast<double>(divs);
  for (std::size_t i = 0; i < divs; ++i) {
    points[i] = lo + (static_cast<double>(i) + 0.5) * width;
  }
  return points;
}

namespace {

GridCandidate evaluate_candidate(const GridSearchConfig& config,
                                 const ModularReservoir& reservoir,
                                 const Mask& mask, const Dataset& fit_split,
                                 const Dataset& val_split, const Dataset& train,
                                 const Dataset& test, double a, double b) {
  GridCandidate out;
  out.a = a;
  out.b = b;
  const DfrParams params{a, b};

  // A candidate is invalid when its reservoir diverges (non-finite states)
  // or its feature magnitudes overflow the normal-equation products (the
  // Gram matrix saturates to inf and Cholesky rejects it).
  auto usable = [](const FeatureMatrix& fm) {
    return fm.features.all_finite() && fm.features.max_abs() < 1e120;
  };
  auto invalidate = [&out] {
    out.valid = false;
    out.validation_loss = std::numeric_limits<double>::infinity();
  };

  try {
    {
      // Selection in its own scope: its features and candidate layers are
      // freed before the refit builds the train/test sets, so a candidate
      // holds one phase's features at a time.
      const FeatureMatrix fit_features = compute_features(
          reservoir, params, mask, fit_split, RepresentationKind::kDprr);
      const FeatureMatrix val_features = compute_features(
          reservoir, params, mask, val_split, RepresentationKind::kDprr);
      if (!usable(fit_features) || !usable(val_features)) {
        invalidate();
        return out;
      }
      const RidgeSweep sweep = sweep_ridge(fit_features, val_features,
                                           train.num_classes(), config.betas);
      out.beta = sweep.best().beta;
      out.validation_loss = sweep.best().selection_loss;
    }

    // Refit on the full training split with the chosen beta, then score test;
    // the training features are freed before the test features exist.
    std::optional<OutputLayer> layer;
    {
      const FeatureMatrix train_features = compute_features(
          reservoir, params, mask, train, RepresentationKind::kDprr);
      if (!usable(train_features)) {
        invalidate();
        return out;
      }
      layer.emplace(fit_ridge(train_features, train.num_classes(), out.beta));
    }
    const FeatureMatrix test_features = compute_features(
        reservoir, params, mask, test, RepresentationKind::kDprr);
    if (!usable(test_features)) {
      invalidate();
      return out;
    }
    out.test_accuracy = evaluate_accuracy(*layer, test_features);
    out.valid = true;
  } catch (const CheckError&) {
    invalidate();  // numerically degenerate normal equations
  }
  return out;
}

}  // namespace

GridLevelResult run_grid_level(const GridSearchConfig& config, const Dataset& train,
                               const Dataset& test, std::size_t divs) {
  DFR_CHECK(!train.empty() && !test.empty());
  Timer timer;

  // Mask and validation split are fixed across candidates and levels (same
  // seed), so levels differ only in the (A, B) grid — as in the paper.
  Rng rng(config.seed);
  const Nonlinearity f(config.nonlinearity, config.mg_exponent);
  const ModularReservoir reservoir(config.nodes, f);
  const Mask mask(config.nodes, train.channels(), config.mask_kind, rng);
  Rng split_rng = rng.fork(0x5B1D);
  auto [fit_split, val_split] =
      train.stratified_split(1.0 - config.validation_fraction, split_rng);
  if (fit_split.empty() || val_split.empty()) {
    fit_split = train;
    val_split = train;
  }

  const std::vector<double> log_a =
      grid_points(config.log10_a_min, config.log10_a_max, divs);
  const std::vector<double> log_b =
      grid_points(config.log10_b_min, config.log10_b_max, divs);

  GridLevelResult result;
  result.divs = divs;
  result.candidates.resize(divs * divs);

  // Candidate idx owns slot idx of `candidates` and nothing else, so the
  // level is bit-identical for any thread count; the best-candidate scan
  // below runs serially in index order, which also fixes tie-breaking.
  parallel_for(
      result.candidates.size(),
      [&](std::size_t idx) {
        const double a = std::pow(10.0, log_a[idx / divs]);
        const double b = std::pow(10.0, log_b[idx % divs]);
        result.candidates[idx] = evaluate_candidate(
            config, reservoir, mask, fit_split, val_split, train, test, a, b);
      },
      {.threads = config.threads});

  double best_loss = std::numeric_limits<double>::infinity();
  double best_acc = -1.0;
  for (std::size_t i = 0; i < result.candidates.size(); ++i) {
    const GridCandidate& c = result.candidates[i];
    if (!c.valid) continue;
    if (c.validation_loss < best_loss) {
      best_loss = c.validation_loss;
      result.best_index = i;
    }
    if (c.test_accuracy > best_acc) {
      best_acc = c.test_accuracy;
      result.best_test_index = i;
    }
  }
  result.seconds = timer.elapsed_seconds();
  return result;
}

EscalationResult escalate_grid_search(const GridSearchConfig& config,
                                      const Dataset& train, const Dataset& test,
                                      double target_accuracy,
                                      std::size_t max_divs) {
  EscalationResult out;
  for (std::size_t divs = 1; divs <= max_divs; ++divs) {
    GridLevelResult level = run_grid_level(config, train, test, divs);
    out.total_seconds += level.seconds;
    const bool hit = level.best_by_test().valid &&
                     level.best_by_test().test_accuracy >= target_accuracy - 1e-12;
    log_debug("grid divs=", divs,
              " best acc=", level.best_by_test().test_accuracy,
              " target=", target_accuracy);
    out.levels.push_back(std::move(level));
    if (hit) {
      out.reached_target = true;
      break;
    }
  }
  return out;
}

}  // namespace dfr
