// Integration tests for the Trainer (the paper's optimization protocol) and
// the grid-search baseline.
#include <gtest/gtest.h>

#include <algorithm>
#include <cmath>
#include <optional>
#include <string>
#include <vector>

#include "data/preprocess.hpp"
#include "data/synth.hpp"
#include "dfr/grid_search.hpp"
#include "dfr/features.hpp"
#include "dfr/trainer.hpp"
#include "test_support.hpp"

namespace dfr {
namespace {

DatasetPair easy_task(std::uint64_t seed) {
  DatasetPair pair = generate_toy_task(/*num_classes=*/3, /*channels=*/2,
                                       /*length=*/40, /*train_per_class=*/12,
                                       /*test_per_class=*/8,
                                       /*difficulty=*/0.5, seed);
  standardize_pair(pair);
  return pair;
}

TrainerConfig small_config() {
  TrainerConfig config;
  config.nodes = 12;  // smaller than the paper's 30 for test speed
  return config;
}

TEST(Trainer, LearnsEasyTaskWellAboveChance) {
  const DatasetPair pair = easy_task(42);
  const Trainer trainer(small_config());
  const TrainResult model = trainer.fit(pair.train);
  const double test_acc = evaluate_accuracy(model, pair.test);
  EXPECT_GT(test_acc, 0.8) << "chance level is 1/3";
  EXPECT_EQ(model.history.size(), 25u);
  EXPECT_EQ(model.skipped_updates, 0u);
}

TEST(Trainer, LossDecreasesOverTrainingOnBenignTask) {
  DatasetPair pair = generate_toy_task(3, 2, 40, 12, 8, /*difficulty=*/0.3, 42);
  standardize_pair(pair);
  const TrainResult model = Trainer(small_config()).fit(pair.train);
  EXPECT_LT(model.history.back().mean_loss, model.history.front().mean_loss);
}

TEST(Trainer, MultistartPicksSmallestValidationLoss) {
  const DatasetPair pair = easy_task(33);
  const Trainer trainer(small_config());
  const auto restarts = Trainer::default_restarts();
  const TrainResult multi = trainer.fit_multistart(pair.train, restarts);
  // The winner's validation loss can't exceed any individual run's.
  for (const DfrParams& init : restarts) {
    TrainerConfig config = small_config();
    config.init = init;
    const TrainResult single = Trainer(config).fit(pair.train);
    EXPECT_LE(multi.validation_loss, single.validation_loss + 1e-12);
  }
  // Times accumulate across restarts.
  TrainerConfig config = small_config();
  const TrainResult single = Trainer(config).fit(pair.train);
  EXPECT_GT(multi.sgd_seconds, single.sgd_seconds);
}

TEST(Trainer, DeterministicGivenSeed) {
  const DatasetPair pair = easy_task(9);
  const Trainer trainer(small_config());
  const TrainResult a = trainer.fit(pair.train);
  const TrainResult b = trainer.fit(pair.train);
  EXPECT_EQ(a.params.a, b.params.a);
  EXPECT_EQ(a.params.b, b.params.b);
  EXPECT_EQ(a.chosen_beta, b.chosen_beta);
  EXPECT_TRUE(a.readout.weights() == b.readout.weights());
}

TEST(Trainer, SeedChangesMask) {
  const DatasetPair pair = easy_task(9);
  TrainerConfig c1 = small_config(), c2 = small_config();
  c2.seed = 777;
  const TrainResult a = Trainer(c1).fit(pair.train);
  const TrainResult b = Trainer(c2).fit(pair.train);
  EXPECT_FALSE(a.mask.weights() == b.mask.weights());
}

TEST(Trainer, LrScheduleFollowsPaperMilestones) {
  const DatasetPair pair = easy_task(11);
  TrainerConfig config = small_config();
  const TrainResult model = Trainer(config).fit(pair.train);
  ASSERT_EQ(model.history.size(), 25u);
  EXPECT_DOUBLE_EQ(model.history[0].lr_reservoir, 1.0);
  EXPECT_DOUBLE_EQ(model.history[4].lr_reservoir, 1.0);
  EXPECT_DOUBLE_EQ(model.history[5].lr_reservoir, 0.1);
  EXPECT_DOUBLE_EQ(model.history[10].lr_reservoir, 0.01);
  EXPECT_DOUBLE_EQ(model.history[20].lr_reservoir, 1e-4);
  EXPECT_DOUBLE_EQ(model.history[5].lr_output, 1.0);   // output decays later
  EXPECT_DOUBLE_EQ(model.history[10].lr_output, 0.1);
  EXPECT_DOUBLE_EQ(model.history[20].lr_output, 1e-3);
}

TEST(Trainer, ChoosesBetaFromPaperGrid) {
  const DatasetPair pair = easy_task(13);
  const TrainResult model = Trainer(small_config()).fit(pair.train);
  const auto& grid = paper_beta_grid();
  EXPECT_NE(std::find(grid.begin(), grid.end(), model.chosen_beta), grid.end());
}

TEST(Trainer, TruncatedMemoryFootprintIsTwoStates) {
  const DatasetPair pair = easy_task(15);
  TrainerConfig config = small_config();
  config.truncation_window = 1;
  const TrainResult model = Trainer(config).fit(pair.train);
  EXPECT_EQ(model.stored_state_values, 2 * config.nodes);
}

TEST(Trainer, FullBpttStoresWholeTrajectory) {
  const DatasetPair pair = easy_task(15);
  TrainerConfig config = small_config();
  config.truncation_window = 0;  // full BPTT
  const TrainResult model = Trainer(config).fit(pair.train);
  EXPECT_EQ(model.stored_state_values, (pair.train.length() + 1) * config.nodes);
  EXPECT_GT(evaluate_accuracy(model, pair.test), 0.7);
}

TEST(Trainer, WiderWindowAlsoLearns) {
  const DatasetPair pair = easy_task(17);
  TrainerConfig config = small_config();
  config.truncation_window = 8;
  const TrainResult model = Trainer(config).fit(pair.train);
  EXPECT_GT(evaluate_accuracy(model, pair.test), 0.7);
  EXPECT_EQ(model.stored_state_values, 9 * config.nodes);
}

TEST(Trainer, ParamBoxKeepsIteratesBounded) {
  const DatasetPair pair = easy_task(19);
  TrainerConfig config = small_config();
  config.param_box = 0.65;
  const TrainResult model = Trainer(config).fit(pair.train);
  EXPECT_LE(std::fabs(model.params.a), 0.65);
  EXPECT_LE(std::fabs(model.params.b), 0.65);
  for (const auto& epoch : model.history) {
    EXPECT_LE(std::fabs(epoch.a), 0.65);
    EXPECT_LE(std::fabs(epoch.b), 0.65);
  }
}

TEST(Trainer, NonSgdOptimizersAlsoTrain) {
  const DatasetPair pair = easy_task(21);
  for (auto kind : {OptimizerKind::kMomentum, OptimizerKind::kAdam}) {
    TrainerConfig config = small_config();
    config.optimizer = kind;
    // Stateful optimizers need their conventional lr scale, not the paper's
    // SGD lr = 1.
    config.base_lr_reservoir = (kind == OptimizerKind::kAdam) ? 0.01 : 0.1;
    config.base_lr_output = (kind == OptimizerKind::kAdam) ? 0.01 : 0.1;
    const TrainResult model = Trainer(config).fit(pair.train);
    EXPECT_GT(evaluate_accuracy(model, pair.test), 0.5)
        << optimizer_kind_name(kind);
  }
}

TEST(Trainer, PredictReturnsLabelsForEverySample) {
  const DatasetPair pair = easy_task(23);
  const TrainResult model = Trainer(small_config()).fit(pair.train);
  const auto preds = predict(model, pair.test);
  ASSERT_EQ(preds.size(), pair.test.size());
  for (int p : preds) {
    EXPECT_GE(p, 0);
    EXPECT_LT(p, pair.test.num_classes());
  }
}

TEST(Trainer, RejectsEmptyDataset) {
  Dataset empty("e", 2, 4, 1);
  EXPECT_THROW((void)Trainer(small_config()).fit(empty), CheckError);
}

// ---- grid search ------------------------------------------------------------

GridSearchConfig small_grid_config() {
  GridSearchConfig config;
  config.nodes = 12;
  return config;
}

// ---- one feature pass per split ---------------------------------------------
//
// The trainer's phase 2 and every grid candidate compute the training
// features once, sweep beta on the fit/validation rows of that one matrix and
// refit on all of it. These tests write out the recipe it replaces — the
// split datasets' features recomputed, sweep_ridge on them, then the whole
// training set's features and fit_ridge — and require EQ results.

struct SplitRecipe {
  double beta = 0.0;
  double validation_loss = 0.0;
  std::optional<OutputLayer> layer;
  bool usable = true;
};

bool usable_features(const FeatureMatrix& fm) {
  return fm.features.all_finite() && fm.features.max_abs() < 1e120;
}

SplitRecipe per_split_recipe(const ModularReservoir& reservoir,
                             const DfrParams& params, const Mask& mask,
                             const Dataset& train, Rng& split_rng,
                             double validation_fraction,
                             const std::vector<double>& betas) {
  auto [fit_split, val_split] =
      train.stratified_split(1.0 - validation_fraction, split_rng);
  if (fit_split.empty() || val_split.empty()) {
    fit_split = train;
    val_split = train;
  }
  SplitRecipe out;
  const FeatureMatrix fit = compute_features(reservoir, params, mask, fit_split,
                                             RepresentationKind::kDprr);
  const FeatureMatrix val = compute_features(reservoir, params, mask, val_split,
                                             RepresentationKind::kDprr);
  if (!usable_features(fit) || !usable_features(val)) {
    out.usable = false;
    return out;
  }
  const RidgeSweep sweep =
      sweep_ridge(fit, val, train.num_classes(), betas);
  out.beta = sweep.best().beta;
  out.validation_loss = sweep.best().selection_loss;
  const FeatureMatrix all = compute_features(reservoir, params, mask, train,
                                             RepresentationKind::kDprr);
  out.layer.emplace(fit_ridge(all, train.num_classes(), out.beta));
  return out;
}

// The helper itself, with its refit layer compared in full (a candidate
// reports only the layer's test accuracy), at one and several threads.
TEST(RidgeReadout, OneFeaturePassMatchesPerSplitRecompute) {
  const DatasetPair pair = easy_task(33);
  Rng rng(5);
  const ModularReservoir reservoir(12, Nonlinearity{});
  const Mask mask(12, pair.train.channels(), MaskKind::kBinary, rng);
  const DfrParams params{0.2, 0.3};
  const Rng split_rng = rng.fork(0x5B1D);
  Rng recipe_rng = split_rng;
  const SplitRecipe want = per_split_recipe(reservoir, params, mask, pair.train,
                                            recipe_rng, 0.2, paper_beta_grid());
  ASSERT_TRUE(want.usable);
  for (unsigned threads : {1u, 3u}) {
    Rng index_rng = split_rng;
    const auto [fit_rows, val_rows] =
        pair.train.stratified_split_indices(0.8, index_rng);
    const std::optional<ReadoutFit> got =
        fit_readout_on_split(reservoir, params, mask, pair.train, fit_rows,
                             val_rows, paper_beta_grid(), threads);
    ASSERT_TRUE(got.has_value());
    EXPECT_EQ(got->beta, want.beta) << threads;
    EXPECT_EQ(got->validation_loss, want.validation_loss) << threads;
    EXPECT_EQ(got->layer.weights(), want.layer->weights()) << threads;
    EXPECT_EQ(got->layer.bias(), want.layer->bias()) << threads;
  }
}

TEST(GridSearch, CandidatesMatchPerSplitRecompute) {
  // The second task has one training sample per class, so the split leaves
  // the validation side empty and both roles fall back to the whole set.
  for (std::size_t per_class : {12u, 1u}) {
    DatasetPair pair = generate_toy_task(3, 2, 40, per_class, 8, 0.5, 29);
    standardize_pair(pair);
    const GridSearchConfig config = small_grid_config();
    const std::size_t divs = 3;
    const GridLevelResult level =
        run_grid_level(config, pair.train, pair.test, divs);

    Rng rng(config.seed);
    const Nonlinearity f(config.nonlinearity, config.mg_exponent);
    const ModularReservoir reservoir(config.nodes, f);
    const Mask mask(config.nodes, pair.train.channels(), config.mask_kind, rng);
    const Rng split_rng = rng.fork(0x5B1D);
    const std::vector<double> log_a =
        grid_points(config.log10_a_min, config.log10_a_max, divs);
    const std::vector<double> log_b =
        grid_points(config.log10_b_min, config.log10_b_max, divs);
    ASSERT_EQ(level.candidates.size(), divs * divs);
    int valid = 0;
    for (std::size_t idx = 0; idx < level.candidates.size(); ++idx) {
      const GridCandidate& got = level.candidates[idx];
      const DfrParams params{std::pow(10.0, log_a[idx / divs]),
                             std::pow(10.0, log_b[idx % divs])};
      const std::string where = "per_class=" + std::to_string(per_class) +
                                " candidate " + std::to_string(idx);
      ASSERT_EQ(got.a, params.a) << where;
      ASSERT_EQ(got.b, params.b) << where;
      Rng candidate_rng = split_rng;
      const SplitRecipe want =
          per_split_recipe(reservoir, params, mask, pair.train, candidate_rng,
                           config.validation_fraction, config.betas);
      if (!want.usable) {
        EXPECT_FALSE(got.valid) << where;
        continue;
      }
      const FeatureMatrix test = compute_features(
          reservoir, params, mask, pair.test, RepresentationKind::kDprr);
      ASSERT_TRUE(usable_features(test)) << where;
      ASSERT_TRUE(got.valid) << where;
      ++valid;
      EXPECT_EQ(got.beta, want.beta) << where;
      EXPECT_EQ(got.validation_loss, want.validation_loss) << where;
      EXPECT_EQ(got.test_accuracy, evaluate_accuracy(*want.layer, test))
          << where;
    }
    EXPECT_GT(valid, 0);
  }
}

TEST(Trainer, RefitMatchesPerSplitRecompute) {
  const DatasetPair pair = easy_task(31);
  TrainerConfig config = small_config();
  config.epochs = 3;
  const TrainResult result = Trainer(config).fit(pair.train);

  // The trainer's rng draws: the mask, one shuffle per epoch, then the fork
  // that seeds the split.
  Rng rng(config.seed);
  const Mask mask(config.nodes, pair.train.channels(), config.mask_kind, rng);
  ASSERT_EQ(mask.weights(), result.mask.weights());
  std::vector<std::size_t> order(pair.train.size());
  for (int epoch = 0; epoch < config.epochs; ++epoch) rng.shuffle(order);
  Rng split_rng = rng.fork(0x5B1D);

  const ModularReservoir reservoir(config.nodes, result.nonlinearity);
  const SplitRecipe want =
      per_split_recipe(reservoir, result.params, mask, pair.train, split_rng,
                       config.validation_fraction, config.betas);
  ASSERT_TRUE(want.usable);
  EXPECT_EQ(result.chosen_beta, want.beta);
  EXPECT_EQ(result.validation_loss, want.validation_loss);
  EXPECT_EQ(result.readout.weights(), want.layer->weights());
  EXPECT_EQ(result.readout.bias(), want.layer->bias());
}

// ---- bit-identity across SIMD backends -------------------------------------
//
// Training runs its truncated forward and its feature extraction on the
// dispatched kernel table, whose kernels never fuse a multiply and add, so
// every result must be EXPECT_EQ-identical on every backend the host runs.

void expect_same_model(const TrainResult& want, const TrainResult& got,
                       const std::string& where) {
  EXPECT_EQ(want.params.a, got.params.a) << where;
  EXPECT_EQ(want.params.b, got.params.b) << where;
  EXPECT_EQ(want.chosen_beta, got.chosen_beta) << where;
  EXPECT_EQ(want.validation_loss, got.validation_loss) << where;
  EXPECT_EQ(want.readout.weights(), got.readout.weights()) << where;
  EXPECT_EQ(want.readout.bias(), got.readout.bias()) << where;
  EXPECT_EQ(want.skipped_updates, got.skipped_updates) << where;
  EXPECT_EQ(want.stored_state_values, got.stored_state_values) << where;
  ASSERT_EQ(want.history.size(), got.history.size()) << where;
  for (std::size_t e = 0; e < want.history.size(); ++e) {
    EXPECT_EQ(want.history[e].mean_loss, got.history[e].mean_loss) << where;
    EXPECT_EQ(want.history[e].a, got.history[e].a) << where;
    EXPECT_EQ(want.history[e].b, got.history[e].b) << where;
  }
}

TEST(TrainingAcrossBackends, FitAndMultistartAreBitIdentical) {
  ScopedBackend guard;
  const DatasetPair pair = easy_task(37);
  for (std::size_t nodes : {12u, 30u}) {
    TrainerConfig config = small_config();
    config.nodes = nodes;
    config.epochs = 8;
    const Trainer trainer(config);
    const std::vector<DfrParams> restarts = {{0.01, 0.01}, {0.3, 0.3}};
    simd::force_backend(simd::Backend::kScalar);
    const TrainResult fit = trainer.fit(pair.train);
    const TrainResult multi = trainer.fit_multistart(pair.train, restarts);
    for (simd::Backend backend : available_backends()) {
      simd::force_backend(backend);
      const std::string where = std::string(simd::backend_name(backend)) +
                                " nx=" + std::to_string(nodes);
      expect_same_model(fit, trainer.fit(pair.train), where + " fit");
      expect_same_model(multi, trainer.fit_multistart(pair.train, restarts),
                        where + " multistart");
    }
  }
}

TEST(TrainingAcrossBackends, WindowedFitIsBitIdentical) {
  ScopedBackend guard;
  const DatasetPair pair = easy_task(39);
  TrainerConfig config = small_config();
  config.truncation_window = 5;
  config.epochs = 6;
  const Trainer trainer(config);
  simd::force_backend(simd::Backend::kScalar);
  const TrainResult want = trainer.fit(pair.train);
  for (simd::Backend backend : available_backends()) {
    simd::force_backend(backend);
    expect_same_model(want, trainer.fit(pair.train), simd::backend_name(backend));
  }
}

TEST(TrainingAcrossBackends, GridLevelIsBitIdentical) {
  ScopedBackend guard;
  const DatasetPair pair = easy_task(41);
  simd::force_backend(simd::Backend::kScalar);
  const GridLevelResult want =
      run_grid_level(small_grid_config(), pair.train, pair.test, 3);
  for (simd::Backend backend : available_backends()) {
    simd::force_backend(backend);
    const GridLevelResult got =
        run_grid_level(small_grid_config(), pair.train, pair.test, 3);
    ASSERT_EQ(want.candidates.size(), got.candidates.size());
    for (std::size_t i = 0; i < want.candidates.size(); ++i) {
      const GridCandidate& w = want.candidates[i];
      const GridCandidate& g = got.candidates[i];
      EXPECT_EQ(w.valid, g.valid) << simd::backend_name(backend) << " " << i;
      EXPECT_EQ(w.beta, g.beta) << simd::backend_name(backend) << " " << i;
      EXPECT_EQ(w.validation_loss, g.validation_loss)
          << simd::backend_name(backend) << " " << i;
      EXPECT_EQ(w.test_accuracy, g.test_accuracy)
          << simd::backend_name(backend) << " " << i;
    }
    EXPECT_EQ(want.best_index, got.best_index);
    EXPECT_EQ(want.best_test_index, got.best_test_index);
  }
}

TEST(TrainingAcrossBackends, FeaturesMatchTheScalarEngine) {
  // compute_features runs the streaming forward with the exact DPRR
  // accumulate: it must reproduce the scalar trajectory pipeline's rows
  // exactly on every backend.
  ScopedBackend guard;
  const DatasetPair pair = easy_task(43);
  Rng rng(5);
  for (std::size_t nodes : {7u, 30u, 31u}) {
    const Mask mask(nodes, pair.train.channels(), MaskKind::kBinary, rng);
    const Nonlinearity f(NonlinearityKind::kMackeyGlass, 2.0);
    const ModularReservoir reservoir(nodes, f);
    const DfrParams params{0.4, 0.3};
    for (simd::Backend backend : available_backends()) {
      simd::force_backend(backend);
      const FeatureMatrix fm = compute_features(
          reservoir, params, mask, pair.train, RepresentationKind::kDprr, 2);
      for (std::size_t i = 0; i < pair.train.size(); ++i) {
        const Vector want =
            reference_float_features(mask, params, f, pair.train[i].series);
        const auto got = fm.features.row(i);
        EXPECT_TRUE(std::equal(want.begin(), want.end(), got.begin()))
            << simd::backend_name(backend) << " nx=" << nodes << " row " << i;
      }
    }
  }
}

TEST(GridSearch, GridPointsAreSectionMidpoints) {
  const auto pts = grid_points(0.0, 1.0, 2);
  ASSERT_EQ(pts.size(), 2u);
  EXPECT_DOUBLE_EQ(pts[0], 0.25);
  EXPECT_DOUBLE_EQ(pts[1], 0.75);
  const auto one = grid_points(-2.0, 2.0, 1);
  ASSERT_EQ(one.size(), 1u);
  EXPECT_DOUBLE_EQ(one[0], 0.0);  // divs=1 tests the range center
}

TEST(GridSearch, LevelEvaluatesAllCandidates) {
  const DatasetPair pair = easy_task(25);
  const GridLevelResult level =
      run_grid_level(small_grid_config(), pair.train, pair.test, 3);
  EXPECT_EQ(level.candidates.size(), 9u);
  EXPECT_EQ(level.divs, 3u);
  int valid = 0;
  for (const auto& c : level.candidates) {
    if (c.valid) ++valid;
  }
  EXPECT_GT(valid, 0);
  EXPECT_TRUE(level.best().valid);
  EXPECT_GT(level.best().test_accuracy, 0.5);
}

TEST(GridSearch, ParallelMatchesSerial) {
  const DatasetPair pair = easy_task(27);
  GridSearchConfig serial = small_grid_config();
  GridSearchConfig parallel = small_grid_config();
  parallel.threads = 4;
  const GridLevelResult a = run_grid_level(serial, pair.train, pair.test, 3);
  const GridLevelResult b = run_grid_level(parallel, pair.train, pair.test, 3);
  ASSERT_EQ(a.candidates.size(), b.candidates.size());
  for (std::size_t i = 0; i < a.candidates.size(); ++i) {
    EXPECT_DOUBLE_EQ(a.candidates[i].test_accuracy, b.candidates[i].test_accuracy);
    EXPECT_DOUBLE_EQ(a.candidates[i].validation_loss, b.candidates[i].validation_loss);
  }
  EXPECT_EQ(a.best_index, b.best_index);
}

TEST(GridSearch, EscalationStopsWhenTargetReached) {
  const DatasetPair pair = easy_task(29);
  const EscalationResult result = escalate_grid_search(
      small_grid_config(), pair.train, pair.test, /*target_accuracy=*/0.0,
      /*max_divs=*/5);
  // Target 0 is reached by the very first level.
  EXPECT_TRUE(result.reached_target);
  EXPECT_EQ(result.levels.size(), 1u);
}

TEST(GridSearch, EscalationExhaustsOnImpossibleTarget) {
  const DatasetPair pair = easy_task(31);
  const EscalationResult result = escalate_grid_search(
      small_grid_config(), pair.train, pair.test, /*target_accuracy=*/1.1,
      /*max_divs=*/2);
  EXPECT_FALSE(result.reached_target);
  EXPECT_EQ(result.levels.size(), 2u);
  EXPECT_GT(result.total_seconds, 0.0);
}

TEST(GridSearch, MultistartBackpropMatchesGridSearchAccuracy) {
  // The paper's central claim at miniature scale: the backprop-trained DFR
  // (with the restart set the benches use) reaches the accuracy of a
  // moderately fine grid search.
  const DatasetPair pair = easy_task(33);
  const Trainer trainer(small_config());
  const TrainResult model =
      trainer.fit_multistart(pair.train, Trainer::default_restarts());
  const double bp_acc = evaluate_accuracy(model, pair.test);

  const GridLevelResult level =
      run_grid_level(small_grid_config(), pair.train, pair.test, 4);
  EXPECT_GE(bp_acc + 0.05, level.best().test_accuracy);
}

}  // namespace
}  // namespace dfr
