#include "dfr/output.hpp"

#include <algorithm>
#include <cmath>

#include "util/check.hpp"

namespace dfr {

namespace {

/// softmax() in place: `values` holds logits on entry, probabilities on exit.
void softmax_in_place(std::span<double> values) {
  DFR_CHECK(!values.empty());
  const double zmax = *std::max_element(values.begin(), values.end());
  double sum = 0.0;
  for (double& v : values) {
    v = std::exp(v - zmax);
    sum += v;
  }
  for (double& p : values) p /= sum;
}

}  // namespace

Vector softmax(std::span<const double> logits) {
  Vector probs(logits.begin(), logits.end());
  softmax_in_place(probs);
  return probs;
}

double cross_entropy(std::span<const double> probs, int label) {
  DFR_CHECK(label >= 0 && static_cast<std::size_t>(label) < probs.size());
  return -std::log(std::max(probs[static_cast<std::size_t>(label)], 1e-300));
}

OutputLayer::OutputLayer(int num_classes, std::size_t feature_dim)
    : w_(static_cast<std::size_t>(num_classes), feature_dim),
      b_(static_cast<std::size_t>(num_classes), 0.0) {
  DFR_CHECK(num_classes >= 2 && feature_dim > 0);
}

OutputLayer::OutputLayer(Matrix weights, Vector bias)
    : w_(std::move(weights)), b_(std::move(bias)) {
  DFR_CHECK(w_.rows() == b_.size() && w_.rows() >= 2);
}

Vector OutputLayer::logits(std::span<const double> features) const {
  Vector z(w_.rows(), 0.0);
  logits_into(features, z);
  return z;
}

void OutputLayer::logits_into(std::span<const double> features,
                              std::span<double> out) const {
  matvec_into(w_, features, out);
  for (std::size_t c = 0; c < out.size(); ++c) out[c] += b_[c];
}

Vector OutputLayer::probabilities(std::span<const double> features) const {
  Vector z = logits(features);
  return softmax(z);
}

int OutputLayer::predict(std::span<const double> features) const {
  const Vector z = logits(features);
  return static_cast<int>(
      std::max_element(z.begin(), z.end()) - z.begin());
}

double OutputLayer::loss(std::span<const double> features, int label) const {
  return cross_entropy(probabilities(features), label);
}

OutputLayer::Backward OutputLayer::backward(std::span<const double> features,
                                            int label) const {
  Backward out;
  backward_into(features, label, out);
  return out;
}

void OutputLayer::backward_into(std::span<const double> features, int label,
                                Backward& out) const {
  out.probs.resize(w_.rows());
  logits_into(features, out.probs);
  softmax_in_place(out.probs);
  out.loss = cross_entropy(out.probs, label);
  out.dlogits.assign(out.probs.begin(), out.probs.end());
  out.dlogits[static_cast<std::size_t>(label)] -= 1.0;
  out.dfeatures.resize(w_.cols());
  matvec_t_into(w_, out.dlogits, out.dfeatures);
}

void OutputLayer::apply_gradient(const Backward& grad,
                                 std::span<const double> features, double lr) {
  DFR_CHECK(grad.dlogits.size() == w_.rows() && features.size() == w_.cols());
  add_outer(w_, -lr, grad.dlogits, features);
  axpy(-lr, grad.dlogits, b_);
}

}  // namespace dfr
