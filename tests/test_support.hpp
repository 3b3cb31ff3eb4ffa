#pragma once
// Shared test helpers: the scalar references the serving datapaths are held
// to, the bit-identity assertion they are held with, plus the backend,
// series and model fixtures several suites use.
//
// The references live here, outside src/serve/, so an oracle never shares
// code with the datapath it checks:
//   - reference_float_features: the dfr/ trajectory pipeline the trainer
//     keeps anyway — the full (T+1) x Nx state trajectory through
//     ModularReservoir::run_series, then the batch DPRR representation.
//     Logits and labels come from the model's OutputLayer.
//   - reference_quantized_features: a plain fixed-point loop over the
//     calibrated QuantizedDfr (masked input, node states and features each
//     rounded to their formats); logits and labels come from
//     QuantizedDfr::quantized_readout().
#include <gtest/gtest.h>

#include <cmath>
#include <cstdint>
#include <span>
#include <string>
#include <utility>
#include <vector>

#include "dfr/dprr.hpp"
#include "dfr/model_io.hpp"
#include "dfr/representation.hpp"
#include "dfr/reservoir.hpp"
#include "fixedpoint/quantized_dfr.hpp"
#include "serve/simd_kernels.hpp"
#include "util/rng.hpp"

namespace dfr {

// ---- scalar references -----------------------------------------------------

/// Float reference features for one series: trajectory -> DPRR.
inline Vector reference_float_features(const Mask& mask, const DfrParams& params,
                                       const Nonlinearity& f,
                                       const Matrix& series) {
  const ModularReservoir reservoir(mask.nodes(), f);
  const Matrix states = reservoir.run_series(mask, series, params);
  return compute_representation(RepresentationKind::kDprr, states);
}

inline Vector reference_float_features(const LoadedModel& model,
                                       const Matrix& series) {
  return reference_float_features(model.mask, model.params, model.nonlinearity,
                                  series);
}

inline Vector reference_float_logits(const LoadedModel& model,
                                     const Matrix& series) {
  return model.readout.logits(reference_float_features(model, series));
}

inline int reference_float_label(const LoadedModel& model,
                                 const Matrix& series) {
  return model.readout.predict(reference_float_features(model, series));
}

/// Quantized reference features for one series: the per-series fixed-point
/// loop, one multiply, one add and one round-to-format per node.
inline Vector reference_quantized_features(const QuantizedDfr& qdfr,
                                           const Matrix& series) {
  const LoadedModel& model = qdfr.model();
  const std::size_t nx = model.mask.nodes();
  const FixedPointFormat& state_fmt = qdfr.config().state_format;
  const double inv_state = 1.0 / qdfr.scales().state;

  Vector x_prev(nx, 0.0), x_cur(nx, 0.0);
  DprrAccumulator dprr(nx);
  for (std::size_t k = 0; k < series.rows(); ++k) {
    Vector j = model.mask.apply(series.row(k));
    for (double& v : j) v = state_fmt.quantize(v * inv_state);
    double prev_node = x_prev[nx - 1];
    for (std::size_t n = 0; n < nx; ++n) {
      const double s = state_fmt.quantize(j[n] + x_prev[n]);
      const double value =
          model.params.a * model.nonlinearity.value(s) +
          model.params.b * prev_node;
      prev_node = state_fmt.quantize(value);
      x_cur[n] = prev_node;
    }
    dprr.add(x_cur, x_prev);
    std::swap(x_prev, x_cur);
  }
  Vector r = dprr.features();
  scale(r, dprr_time_scale(series.rows()) / qdfr.scales().feature);
  qdfr.config().feature_format.quantize(r);
  return r;
}

inline Vector reference_quantized_logits(const QuantizedDfr& qdfr,
                                         const Matrix& series) {
  return qdfr.quantized_readout().logits(
      reference_quantized_features(qdfr, series));
}

inline int reference_quantized_label(const QuantizedDfr& qdfr,
                                     const Matrix& series) {
  return qdfr.quantized_readout().predict(
      reference_quantized_features(qdfr, series));
}

// ---- the equivalence assertion ---------------------------------------------

/// Every datapath, float and quantized, on every backend, equals its scalar
/// reference bit for bit (see the contract in serve/simd_kernels.hpp).
/// Asserts that on x86-64. `step` is the comparison's quantization
/// granularity: the feature-format resolution for quantized feature vectors,
/// a weight-amplified multiple of it for quantized logits (one flipped
/// feature step propagates through the readout row), and 0 for values not
/// on a grid. Only the non-x86 branch consumes it.
inline void expect_bit_identical(std::span<const double> expected,
                                 std::span<const double> got,
                                 const std::string& context, double step = 0.0) {
  ASSERT_EQ(expected.size(), got.size()) << context;
  for (std::size_t i = 0; i < expected.size(); ++i) {
#if defined(__x86_64__) || defined(_M_X64)
    (void)step;
    ASSERT_EQ(expected[i], got[i]) << context << " i=" << i;
#else
    // Non-x86 scalar baselines may FMA-contract (see simd_kernels.hpp); a
    // round-to-format tie decided differently then shifts a value by one
    // full format step, so the tolerance must absorb `step`, not just ulps.
    ASSERT_NEAR(expected[i], got[i],
                1e-12 + 1e-9 * std::fabs(expected[i]) + 1.000001 * step)
        << context << " i=" << i;
#endif
  }
}

// ---- backends ----------------------------------------------------------------

inline constexpr simd::Backend kAllBackends[] = {
    simd::Backend::kScalar, simd::Backend::kAvx2, simd::Backend::kNeon,
    simd::Backend::kAvx512};

/// Every backend this host and build can run, scalar first.
inline std::vector<simd::Backend> available_backends() {
  std::vector<simd::Backend> backends;
  for (simd::Backend b : kAllBackends) {
    if (simd::backend_available(b)) backends.push_back(b);
  }
  return backends;
}

/// Restores the active backend on scope exit so force_backend tests cannot
/// leak state into later tests (gtest runs them in declaration order).
class ScopedBackend {
 public:
  ScopedBackend() : saved_(simd::active_backend()) {}
  ~ScopedBackend() { simd::force_backend(saved_); }
  ScopedBackend(const ScopedBackend&) = delete;
  ScopedBackend& operator=(const ScopedBackend&) = delete;

 private:
  simd::Backend saved_;
};

// ---- series and models -----------------------------------------------------

inline Matrix random_series(std::size_t t_len, std::size_t channels, Rng& rng) {
  Matrix m(t_len, channels);
  for (std::size_t k = 0; k < t_len; ++k) {
    for (std::size_t v = 0; v < channels; ++v) m(k, v) = rng.uniform(-1.0, 1.0);
  }
  return m;
}

/// Deployment-shaped model with random (but deterministic) weights; serving
/// equivalence depends only on shapes, never on training.
inline LoadedModel make_model(std::size_t nodes, std::size_t channels,
                              int classes, NonlinearityKind kind,
                              std::uint64_t seed) {
  Rng rng(seed);
  LoadedModel model;
  model.params = DfrParams{0.1, 0.05};
  model.mask = Mask(nodes, channels, MaskKind::kBinary, rng);
  model.nonlinearity = Nonlinearity(kind);
  Matrix w(static_cast<std::size_t>(classes), dprr_dim(nodes));
  for (std::size_t i = 0; i < w.rows(); ++i) {
    for (std::size_t j = 0; j < w.cols(); ++j) w(i, j) = rng.uniform(-1.0, 1.0);
  }
  Vector b(w.rows(), 0.0);
  for (double& v : b) v = rng.uniform(-0.1, 0.1);
  model.readout = OutputLayer(std::move(w), std::move(b));
  return model;
}

/// The same model with the default (identity) nonlinearity.
inline LoadedModel make_model(std::size_t nodes, std::size_t channels,
                              int classes, std::uint64_t seed) {
  return make_model(nodes, channels, classes, NonlinearityKind::kIdentity,
                    seed);
}

inline constexpr NonlinearityKind kAllKinds[] = {
    NonlinearityKind::kIdentity,  NonlinearityKind::kMackeyGlass,
    NonlinearityKind::kTanh,      NonlinearityKind::kSine,
    NonlinearityKind::kCubic,     NonlinearityKind::kSaturating,
};

// Odd shapes: below any vector width, odd, prime, and large non-multiples
// of the NEON (2), AVX2 (4), and AVX-512 (8) widths.
inline constexpr std::size_t kOddSizes[] = {1, 2, 3, 5, 30, 101};

}  // namespace dfr
