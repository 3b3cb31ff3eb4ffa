#pragma once
// Ridge-regression readout (the paper's final output-layer training step).
//
// Fits W, b minimizing ||R_aug W_aug^T - D||_F^2 + beta ||W_aug||_F^2 with
// R_aug = [R, 1] (bias column) and one-hot targets D. Two equivalent solution
// paths, chosen automatically by shape:
//
//   primal:  W_aug^T = (R^T R + beta I)^{-1} R^T D        — p x p system
//   dual:    W_aug^T = R^T (R R^T + beta I)^{-1} D        — N x N system
//
// With Nx = 30 the DPRR feature dimension is 931; datasets with fewer than
// 931 samples (most of the paper's twelve) solve dramatically faster in the
// dual. Both paths are Cholesky-based and agree to solver precision
// (tested in tests/test_ridge.cpp).
//
// Beta selection follows the paper's protocol: fit for each beta in
// {1e-6, 1e-4, 1e-2, 1} and keep the one with the smallest cross-entropy loss
// L; we measure L on a held-out validation split (see DESIGN.md §3.2).

#include <optional>
#include <span>
#include <vector>

#include "dfr/features.hpp"
#include "dfr/output.hpp"

namespace dfr {

/// The paper's candidate grid for the regularization parameter.
const std::vector<double>& paper_beta_grid();

/// Fit the output layer for a single beta.
OutputLayer fit_ridge(const FeatureMatrix& train, int num_classes, double beta);

/// Evaluation record for one candidate beta.
struct RidgeCandidate {
  double beta = 0.0;
  double selection_loss = 0.0;  // mean CE on the selection split
  OutputLayer layer;
};

/// Fit every beta on `train` and score on `selection`; returns candidates in
/// grid order plus the index of the winner (smallest selection loss).
struct RidgeSweep {
  std::vector<RidgeCandidate> candidates;
  std::size_t best_index = 0;

  [[nodiscard]] const RidgeCandidate& best() const { return candidates[best_index]; }
};
RidgeSweep sweep_ridge(const FeatureMatrix& train, const FeatureMatrix& selection,
                       int num_classes,
                       const std::vector<double>& betas = paper_beta_grid());

/// A readout chosen on a fit/validation split and refit on the whole
/// training set.
struct ReadoutFit {
  double beta = 0.0;             // the winning beta of the sweep
  double validation_loss = 0.0;  // its selection loss on the validation rows
  OutputLayer layer;             // fit_ridge on every training row with beta
};

/// Beta selection and readout refit from one feature pass over `train`, as
/// the trainer's phase 2 and every grid-search candidate run them:
///   1. computes the DPRR features of `train` once, the `fit` rows first,
///      then the `val` rows;
///   2. runs sweep_ridge over `betas` on borrowed views of those two row
///      ranges;
///   3. permutes the rows in place back to train order and refits with the
///      chosen beta.
/// Each row is a pure function of its sample, so the result equals computing
/// the split's features and the train features separately, with half the
/// forwards and no feature copy. An empty `fit` or `val` (every class too
/// small to split) selects on the whole of `train` in both roles. Returns nullopt
/// when `usable` is given and rejects the feature matrix. `threads` as in
/// compute_features.
std::optional<ReadoutFit> fit_readout_on_split(
    const ModularReservoir& reservoir, const DfrParams& params,
    const Mask& mask, const Dataset& train, std::span<const std::size_t> fit,
    std::span<const std::size_t> val, const std::vector<double>& betas,
    unsigned threads = 1, bool (*usable)(const Matrix&) = nullptr);

/// Mean cross-entropy of `layer` on a feature matrix.
double evaluate_loss(const OutputLayer& layer, const FeatureMatrix& data);

/// Classification accuracy of `layer` on a feature matrix.
double evaluate_accuracy(const OutputLayer& layer, const FeatureMatrix& data);

/// Predicted labels for every row.
std::vector<int> predict_all(const OutputLayer& layer, const FeatureMatrix& data);

}  // namespace dfr
