#include "dfr/ridge.hpp"

#include <algorithm>
#include <cmath>
#include <limits>

#include "dfr/metrics.hpp"
#include "linalg/cholesky.hpp"
#include "util/check.hpp"

namespace dfr {
namespace {

/// R with a trailing column of ones (bias feature).
Matrix augment_bias(const Matrix& r) {
  Matrix out(r.rows(), r.cols() + 1);
  for (std::size_t i = 0; i < r.rows(); ++i) {
    const auto row = r.row(i);
    std::copy(row.begin(), row.end(), out.row(i).begin());
    out(i, r.cols()) = 1.0;
  }
  return out;
}

/// The training features, after checking they pair up with the labels.
const Matrix& checked_features(const FeatureMatrix& train) {
  DFR_CHECK_MSG(train.features.rows() == train.labels.size() &&
                    !train.labels.empty(),
                "feature/label mismatch");
  return train.features;
}

/// Split the augmented solution X ((p+1) x Ny) into (W: Ny x p, b: Ny).
OutputLayer layer_from_augmented(const Matrix& x_aug) {
  const std::size_t p = x_aug.rows() - 1;
  const std::size_t ny = x_aug.cols();
  Matrix w(ny, p);
  Vector b(ny, 0.0);
  for (std::size_t c = 0; c < ny; ++c) {
    for (std::size_t f = 0; f < p; ++f) w(c, f) = x_aug(f, c);
    b[c] = x_aug(p, c);
  }
  return OutputLayer(std::move(w), std::move(b));
}

/// The ridge problem of one training set with every beta-independent part
/// built once: the one-hot targets and the system matrix without its ridge
/// term — the dual kernel R_aug R_aug^T when R_aug has fewer rows than
/// columns, else the primal Gram R_aug^T R_aug and right-hand side R_aug^T D.
/// solve(beta) adds beta to the diagonal of a copy, which rounds exactly like
/// building the system with beta in it (the primal Gram takes a ridge term
/// of 0.0 first, which leaves its diagonal of sums of squares unchanged).
///
/// The dual never materializes R_aug = [R, 1]: a kernel entry is the dot
/// product over R's rows plus the bias product 1 * 1, added last exactly as
/// the dot over the augmented rows adds it, and the bias row of
/// R_aug^T alpha is alpha's column sums in row order. The problem borrows
/// `train`, which must outlive it.
class RidgeProblem {
 public:
  RidgeProblem(const FeatureMatrix& train, int num_classes)
      : r_(checked_features(train)),
        targets_(one_hot(train.labels, num_classes)),
        dual_(r_.rows() < r_.cols() + 1) {
    if (dual_) {
      system_ = matmul_a_bt(r_, r_);
      double* k = system_.data();
      for (std::size_t i = 0; i < system_.size(); ++i) k[i] += 1.0;
    } else {
      const Matrix r_aug = augment_bias(r_);
      system_ = gram_at_a(r_aug, 0.0);
      rhs_ = matmul_at_b(r_aug, targets_);
    }
  }

  [[nodiscard]] OutputLayer solve(double beta) const {
    DFR_CHECK_MSG(beta > 0.0, "ridge needs beta > 0");
    Matrix system = system_;
    for (std::size_t i = 0; i < system.rows(); ++i) system(i, i) += beta;
    if (!dual_) {
      // W_aug^T = (R^T R + beta I)^{-1} R^T D.
      return layer_from_augmented(cholesky_solve_matrix(system, rhs_));
    }
    // alpha = (R R^T + beta I)^{-1} D, W_aug^T = R_aug^T alpha.
    const Matrix alpha = cholesky_solve_matrix(system, targets_);  // N x Ny
    const Matrix x = matmul_at_b(r_, alpha);                        // p x Ny
    Matrix w(alpha.cols(), r_.cols());
    Vector b(alpha.cols(), 0.0);
    for (std::size_t c = 0; c < w.rows(); ++c) {
      for (std::size_t f = 0; f < w.cols(); ++f) w(c, f) = x(f, c);
      for (std::size_t n = 0; n < alpha.rows(); ++n) b[c] += alpha(n, c);
    }
    return OutputLayer(std::move(w), std::move(b));
  }

 private:
  const Matrix& r_;
  Matrix targets_;
  bool dual_;
  Matrix system_;
  Matrix rhs_;  // primal only
};

}  // namespace

const std::vector<double>& paper_beta_grid() {
  static const std::vector<double> betas = {1e-6, 1e-4, 1e-2, 1.0};
  return betas;
}

OutputLayer fit_ridge(const FeatureMatrix& train, int num_classes, double beta) {
  return RidgeProblem(train, num_classes).solve(beta);
}

RidgeSweep sweep_ridge(const FeatureMatrix& train, const FeatureMatrix& selection,
                       int num_classes, const std::vector<double>& betas) {
  DFR_CHECK(!betas.empty());
  const RidgeProblem problem(train, num_classes);
  RidgeSweep sweep;
  double best_loss = std::numeric_limits<double>::infinity();
  for (double beta : betas) {
    RidgeCandidate candidate{beta, 0.0, problem.solve(beta)};
    candidate.selection_loss = evaluate_loss(candidate.layer, selection);
    if (candidate.selection_loss < best_loss) {
      best_loss = candidate.selection_loss;
      sweep.best_index = sweep.candidates.size();
    }
    sweep.candidates.push_back(std::move(candidate));
  }
  return sweep;
}

std::optional<ReadoutFit> fit_readout_on_split(
    const ModularReservoir& reservoir, const DfrParams& params,
    const Mask& mask, const Dataset& train, std::span<const std::size_t> fit,
    std::span<const std::size_t> val, const std::vector<double>& betas,
    unsigned threads, bool (*usable)(const Matrix&)) {
  const bool split = !fit.empty() && !val.empty();
  std::vector<std::size_t> order;  // sample of each row, fit rows first
  if (split) {
    DFR_CHECK_MSG(fit.size() + val.size() == train.size(),
                  "fit and validation rows must partition the training set");
    order.assign(fit.begin(), fit.end());
    order.insert(order.end(), val.begin(), val.end());
  }
  FeatureMatrix all =
      split ? compute_features(reservoir, params, mask, train, order,
                               RepresentationKind::kDprr, threads)
            : compute_features(reservoir, params, mask, train,
                               RepresentationKind::kDprr, threads);
  if (usable != nullptr && !usable(all.features)) return std::nullopt;

  const std::size_t dim = all.features.cols();
  double beta = 0.0;
  double validation_loss = 0.0;
  {
    // The sweep's candidate layers are freed before the refit allocates.
    const std::size_t n_fit = split ? fit.size() : train.size();
    const auto view = [&](std::size_t first, std::size_t count) {
      const auto labels =
          all.labels.begin() + static_cast<std::ptrdiff_t>(first);
      return FeatureMatrix{
          Matrix::borrow(all.features.data() + first * dim, count, dim),
          std::vector<int>(labels, labels + static_cast<std::ptrdiff_t>(count))};
    };
    const RidgeSweep sweep =
        split ? sweep_ridge(view(0, n_fit), view(n_fit, val.size()),
                            train.num_classes(), betas)
              : sweep_ridge(all, all, train.num_classes(), betas);
    beta = sweep.best().beta;
    validation_loss = sweep.best().selection_loss;
  }

  if (split) {
    // Row r holds sample order[r]: follow each cycle of the permutation,
    // carrying one row, until every row sits at its sample's index.
    Vector carry(dim);
    std::vector<bool> placed(order.size(), false);
    for (std::size_t start = 0; start < order.size(); ++start) {
      if (placed[start] || order[start] == start) continue;
      const auto row = all.features.row(start);
      std::copy(row.begin(), row.end(), carry.begin());
      int carry_label = all.labels[start];
      std::size_t pos = start;
      do {
        const std::size_t dst = order[pos];
        const auto dst_row = all.features.row(dst);
        std::swap_ranges(carry.begin(), carry.end(), dst_row.begin());
        std::swap(carry_label, all.labels[dst]);
        placed[pos] = true;
        pos = dst;
      } while (pos != start);
    }
  }
  return ReadoutFit{beta, validation_loss,
                    fit_ridge(all, train.num_classes(), beta)};
}

double evaluate_loss(const OutputLayer& layer, const FeatureMatrix& data) {
  DFR_CHECK(!data.labels.empty());
  double sum = 0.0;
  for (std::size_t i = 0; i < data.labels.size(); ++i) {
    sum += layer.loss(data.features.row(i), data.labels[i]);
  }
  return sum / static_cast<double>(data.labels.size());
}

double evaluate_accuracy(const OutputLayer& layer, const FeatureMatrix& data) {
  return accuracy(predict_all(layer, data), data.labels);
}

std::vector<int> predict_all(const OutputLayer& layer, const FeatureMatrix& data) {
  std::vector<int> out(data.labels.size());
  for (std::size_t i = 0; i < data.labels.size(); ++i) {
    out[i] = layer.predict(data.features.row(i));
  }
  return out;
}

}  // namespace dfr
