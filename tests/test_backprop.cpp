// Gradient-exactness tests for the backprop engine (the paper's core math).
//
// Full BPTT gradients dL/dA and dL/dB are validated against central finite
// differences of the end-to-end loss (reservoir -> DPRR -> softmax/CE),
// parameterized over nonlinearity kinds and (A, B) operating points. The
// truncated engine is validated against an independent literal transcription
// of the paper's Eqs. (33)-(36) and against full BPTT in the window=T limit.
#include <gtest/gtest.h>

#include <algorithm>
#include <cmath>
#include <string>
#include <vector>

#include "dfr/backprop.hpp"
#include "dfr/output.hpp"
#include "test_support.hpp"

namespace dfr {
namespace {

struct TestRig {
  std::size_t nx = 5;
  std::size_t t_len = 7;
  std::size_t channels = 2;
  int classes = 3;
  Matrix series;
  Mask mask;
  OutputLayer output{3, dprr_dim(5)};
  int label = 1;

  explicit TestRig(std::uint64_t seed, std::size_t nx_in = 5, std::size_t t_in = 7)
      : nx(nx_in), t_len(t_in), mask(Matrix(1, 1)), output(3, dprr_dim(nx_in)) {
    Rng rng(seed);
    series.resize(t_len, channels);
    for (std::size_t t = 0; t < t_len; ++t) {
      for (std::size_t v = 0; v < channels; ++v) series(t, v) = rng.normal();
    }
    mask = Mask(nx, channels, MaskKind::kBinary, rng);
    // Non-zero output weights so dL/dr is non-trivial.
    for (std::size_t c = 0; c < output.weights().rows(); ++c) {
      for (std::size_t f = 0; f < output.weights().cols(); ++f) {
        output.mutable_weights()(c, f) = 0.1 * rng.normal();
      }
      output.mutable_bias()[c] = 0.05 * rng.normal();
    }
  }

  [[nodiscard]] double loss(const ModularReservoir& reservoir,
                            const DfrParams& params) const {
    const FullForward fwd = run_forward_full(reservoir, params, mask, series);
    return output.backward(fwd.dprr, label).loss;
  }
};

struct GradCase {
  NonlinearityKind kind;
  double a;
  double b;
};

class FullBackpropGradcheck : public ::testing::TestWithParam<GradCase> {};

TEST_P(FullBackpropGradcheck, MatchesCentralFiniteDifference) {
  const GradCase gc = GetParam();
  const TestRig rig(/*seed=*/77);
  const Nonlinearity f(gc.kind, 2.0);
  const ModularReservoir reservoir(rig.nx, f);
  const DfrParams params{gc.a, gc.b};

  const FullForward fwd =
      run_forward_full(reservoir, params, rig.mask, rig.series);
  const auto out_grads = rig.output.backward(fwd.dprr, rig.label);
  const ReservoirGradients grads =
      backprop_full(reservoir, params, fwd.states, fwd.j, out_grads.dfeatures);

  const double eps = 1e-6;
  auto loss_at = [&](double a, double b) {
    return rig.loss(reservoir, DfrParams{a, b});
  };
  const double fd_da =
      (loss_at(gc.a + eps, gc.b) - loss_at(gc.a - eps, gc.b)) / (2.0 * eps);
  const double fd_db =
      (loss_at(gc.a, gc.b + eps) - loss_at(gc.a, gc.b - eps)) / (2.0 * eps);

  const double scale_a = std::max(1.0, std::fabs(fd_da));
  const double scale_b = std::max(1.0, std::fabs(fd_db));
  EXPECT_NEAR(grads.da, fd_da, 1e-5 * scale_a)
      << "kind=" << nonlinearity_name(gc.kind) << " A=" << gc.a << " B=" << gc.b;
  EXPECT_NEAR(grads.db, fd_db, 1e-5 * scale_b)
      << "kind=" << nonlinearity_name(gc.kind) << " A=" << gc.a << " B=" << gc.b;
}

INSTANTIATE_TEST_SUITE_P(
    NonlinearityAndOperatingPointSweep, FullBackpropGradcheck,
    ::testing::Values(
        GradCase{NonlinearityKind::kIdentity, 0.01, 0.01},
        GradCase{NonlinearityKind::kIdentity, 0.2, 0.3},
        GradCase{NonlinearityKind::kIdentity, 0.45, 0.5},
        GradCase{NonlinearityKind::kMackeyGlass, 0.3, 0.4},
        GradCase{NonlinearityKind::kMackeyGlass, 0.05, 0.6},
        GradCase{NonlinearityKind::kTanh, 0.25, 0.25},
        GradCase{NonlinearityKind::kTanh, 0.5, 0.1},
        GradCase{NonlinearityKind::kSine, 0.3, 0.3},
        GradCase{NonlinearityKind::kCubic, 0.2, 0.2},
        GradCase{NonlinearityKind::kSaturating, 0.4, 0.4}),
    [](const ::testing::TestParamInfo<GradCase>& param_info) {
      std::string name = nonlinearity_name(param_info.param.kind);
      for (char& c : name) {
        if (c == '-') c = '_';
      }
      return name + "_case" + std::to_string(param_info.index);
    });

TEST(FullBackprop, OutputLayerGradientsMatchFiniteDifference) {
  TestRig rig(99);
  const Nonlinearity f(NonlinearityKind::kTanh);
  const ModularReservoir reservoir(rig.nx, f);
  const DfrParams params{0.3, 0.3};
  const FullForward fwd =
      run_forward_full(reservoir, params, rig.mask, rig.series);
  const auto grads = rig.output.backward(fwd.dprr, rig.label);

  const double eps = 1e-6;
  // Check a scattering of W entries and every b entry.
  for (std::size_t c = 0; c < rig.output.weights().rows(); ++c) {
    for (std::size_t fi : {std::size_t{0}, std::size_t{7}, dprr_dim(rig.nx) - 1}) {
      OutputLayer perturbed = rig.output;
      perturbed.mutable_weights()(c, fi) += eps;
      const double up = perturbed.backward(fwd.dprr, rig.label).loss;
      perturbed.mutable_weights()(c, fi) -= 2.0 * eps;
      const double down = perturbed.backward(fwd.dprr, rig.label).loss;
      const double fd = (up - down) / (2.0 * eps);
      const double analytic = grads.dlogits[c] * fwd.dprr[fi];
      EXPECT_NEAR(analytic, fd, 1e-6 * std::max(1.0, std::fabs(fd)));
    }
    OutputLayer perturbed = rig.output;
    perturbed.mutable_bias()[c] += eps;
    const double up = perturbed.backward(fwd.dprr, rig.label).loss;
    perturbed.mutable_bias()[c] -= 2.0 * eps;
    const double down = perturbed.backward(fwd.dprr, rig.label).loss;
    EXPECT_NEAR(grads.dlogits[c], (up - down) / (2.0 * eps), 1e-6);
  }
}

// Independent literal transcription of the paper's truncated equations
// (33)-(36), for cross-checking the production implementation.
ReservoirGradients paper_truncated_reference(const ModularReservoir& reservoir,
                                             const DfrParams& params,
                                             const Matrix& x_t, const Matrix& x_tm1,
                                             std::span<const double> j_t,
                                             std::span<const double> dr) {
  const std::size_t nx = reservoir.nodes();
  const Nonlinearity& f = reservoir.nonlinearity();
  Vector g(nx, 0.0);
  // Eq. (33): bp value, then Eq. (34): g_n = bpv + B g_{n+1}, n descending.
  for (std::size_t nn = nx; nn > 0; --nn) {
    const std::size_t n = nn - 1;
    double bpv = dr[nx * nx + n];
    for (std::size_t jj = 0; jj < nx; ++jj) {
      bpv += x_tm1(0, jj) * dr[n * nx + jj];
    }
    g[n] = bpv + ((n + 1 < nx) ? params.b * g[n + 1] : 0.0);
  }
  ReservoirGradients out;
  // Eqs. (35)-(36).
  for (std::size_t n = 0; n < nx; ++n) {
    const double s = j_t[n] + x_tm1(0, n);
    out.da += f.value(s) * g[n];
    const double prev = (n == 0) ? x_tm1(0, nx - 1) : x_t(0, n - 1);
    out.db += prev * g[n];
  }
  return out;
}

TEST(TruncatedBackprop, WindowOneMatchesPaperEquations) {
  const TestRig rig(55);
  const Nonlinearity f(NonlinearityKind::kIdentity);
  const ModularReservoir reservoir(rig.nx, f);
  const DfrParams params{0.15, 0.35};

  const TruncatedForward fwd =
      run_forward_truncated(reservoir, params, rig.mask, rig.series, 1);
  const auto out_grads = rig.output.backward(fwd.dprr, rig.label);

  const ReservoirGradients engine = backprop_through_dprr(
      reservoir, params, fwd.tail_states, fwd.tail_j, out_grads.dfeatures, 1);

  Matrix x_t(1, rig.nx), x_tm1(1, rig.nx);
  x_t.set_row(0, fwd.tail_states.row(1));
  x_tm1.set_row(0, fwd.tail_states.row(0));
  const ReservoirGradients reference = paper_truncated_reference(
      reservoir, params, x_t, x_tm1, fwd.tail_j.row(0), out_grads.dfeatures);

  EXPECT_NEAR(engine.da, reference.da, 1e-12 * std::max(1.0, std::fabs(reference.da)));
  EXPECT_NEAR(engine.db, reference.db, 1e-12 * std::max(1.0, std::fabs(reference.db)));
}

TEST(TruncatedBackprop, FullWindowEqualsFullBptt) {
  const TestRig rig(31);
  const Nonlinearity f(NonlinearityKind::kTanh);
  const ModularReservoir reservoir(rig.nx, f);
  const DfrParams params{0.3, 0.4};

  const FullForward full = run_forward_full(reservoir, params, rig.mask, rig.series);
  const auto out_grads = rig.output.backward(full.dprr, rig.label);
  const ReservoirGradients g_full =
      backprop_full(reservoir, params, full.states, full.j, out_grads.dfeatures);

  const TruncatedForward trunc = run_forward_truncated(
      reservoir, params, rig.mask, rig.series, rig.series.rows());
  const auto out_grads2 = rig.output.backward(trunc.dprr, rig.label);
  const ReservoirGradients g_trunc = backprop_through_dprr(
      reservoir, params, trunc.tail_states, trunc.tail_j, out_grads2.dfeatures,
      trunc.tail_j.rows());

  EXPECT_NEAR(g_full.da, g_trunc.da, 1e-12 * std::max(1.0, std::fabs(g_full.da)));
  EXPECT_NEAR(g_full.db, g_trunc.db, 1e-12 * std::max(1.0, std::fabs(g_full.db)));
}

TEST(TruncatedBackprop, WindowedGradientsApproachFullAsWindowGrows) {
  const TestRig rig(41, /*nx=*/6, /*t=*/20);
  const Nonlinearity f(NonlinearityKind::kTanh);
  const ModularReservoir reservoir(rig.nx, f);
  const DfrParams params{0.2, 0.5};

  const FullForward full = run_forward_full(reservoir, params, rig.mask, rig.series);
  const auto out_grads = rig.output.backward(full.dprr, rig.label);
  const ReservoirGradients g_full =
      backprop_full(reservoir, params, full.states, full.j, out_grads.dfeatures);

  // Truncation error need not shrink monotonically step-by-step (dropped
  // terms can partially cancel), but the window must be exact at w = T and
  // the deep-window error must be far below the one-step error.
  Vector errs;
  for (std::size_t w : {1u, 4u, 10u, 20u}) {
    const ReservoirGradients g_w = backprop_through_dprr(
        reservoir, params, full.states, full.j, out_grads.dfeatures, w);
    EXPECT_TRUE(std::isfinite(g_w.da) && std::isfinite(g_w.db)) << "window " << w;
    errs.push_back(std::fabs(g_w.da - g_full.da) + std::fabs(g_w.db - g_full.db));
  }
  // Truncation removes the whole contribution of the dropped steps, so the
  // error scales with the number of dropped steps rather than decaying
  // geometrically: demand strict improvement, and exactness at w = T.
  // (Individual step contributions can partially cancel, so small windows do
  // not compare monotonically — w=4 can be worse than w=1 at this operating
  // point. The robust claims are: half the series beats one step, and the
  // full window is exact.)
  EXPECT_NEAR(errs.back(), 0.0, 1e-12);  // w = T is exact
  EXPECT_LT(errs[2], errs[0]);           // w = 10 beats w = 1
}

TEST(TruncatedForwardPass, DprrMatchesFullForward) {
  const TestRig rig(61);
  const Nonlinearity f(NonlinearityKind::kMackeyGlass, 2.0);
  const ModularReservoir reservoir(rig.nx, f);
  const DfrParams params{0.3, 0.5};

  const FullForward full = run_forward_full(reservoir, params, rig.mask, rig.series);
  for (std::size_t w : {1u, 2u, 3u, 7u}) {
    const TruncatedForward trunc =
        run_forward_truncated(reservoir, params, rig.mask, rig.series, w);
    EXPECT_LT(max_abs_diff(trunc.dprr, full.dprr), 1e-14) << "window " << w;
    // Tail rows must equal the last rows of the full trajectory.
    const std::size_t kept = std::min<std::size_t>(w, rig.t_len);
    for (std::size_t i = 0; i <= kept; ++i) {
      EXPECT_LT(max_abs_diff(trunc.tail_states.row(i),
                             full.states.row(rig.t_len - kept + i)),
                1e-15)
          << "window " << w << " row " << i;
    }
    for (std::size_t i = 0; i < kept; ++i) {
      EXPECT_LT(max_abs_diff(trunc.tail_j.row(i),
                             full.j.row(rig.t_len - kept + i)),
                1e-15);
    }
  }
}

TEST(TruncatedForwardPass, StoredStateValuesMatchMemoryClaim) {
  const TestRig rig(71);
  const ModularReservoir reservoir(rig.nx, Nonlinearity{});
  const DfrParams params{0.01, 0.01};
  const TruncatedForward trunc =
      run_forward_truncated(reservoir, params, rig.mask, rig.series, 1);
  EXPECT_EQ(trunc.stored_state_values(), 2 * rig.nx);  // x(T-1), x(T)
  const FullForward full = run_forward_full(reservoir, params, rig.mask, rig.series);
  EXPECT_EQ(full.stored_state_values(), (rig.t_len + 1) * rig.nx);
}

TEST(TruncatedForwardPass, BitEqualToFullForwardOnEveryBackend) {
  // The streaming forward runs the dispatched kernels over padded rows; its
  // dprr, tail states and tail inputs must equal the scalar oracle bit for
  // bit at every window, for row widths below, at and above a pad multiple.
  for (std::size_t nx : {7u, 8u, 30u, 31u}) {
    const TestRig rig(91 + nx, nx, /*t=*/11);
    for (NonlinearityKind kind :
         {NonlinearityKind::kIdentity, NonlinearityKind::kTanh,
          NonlinearityKind::kCubic, NonlinearityKind::kSaturating}) {
      const ModularReservoir reservoir(nx, Nonlinearity(kind));
      const DfrParams params{0.35, 0.45};
      const FullForward full =
          run_forward_full(reservoir, params, rig.mask, rig.series);
      for (simd::Backend backend : available_backends()) {
        for (std::size_t w : {std::size_t{1}, std::size_t{2}, std::size_t{3},
                              std::size_t{7}, rig.t_len, rig.t_len + 2}) {
          StreamingForward forward(reservoir, rig.mask, w,
                                   simd::kernels_for(backend));
          TruncatedForward trunc;
          forward.run(params, rig.series, trunc);
          const std::string where = std::string(simd::backend_name(backend)) +
                                    " nx=" + std::to_string(nx) + " " +
                                    nonlinearity_name(kind) +
                                    " w=" + std::to_string(w);
          EXPECT_EQ(trunc.dprr, full.dprr) << where;
          EXPECT_EQ(trunc.steps, rig.t_len) << where;
          const std::size_t kept = std::min(w, rig.t_len);
          ASSERT_EQ(trunc.tail_states.rows(), kept + 1) << where;
          ASSERT_EQ(trunc.tail_j.rows(), kept) << where;
          for (std::size_t i = 0; i <= kept; ++i) {
            const auto got = trunc.tail_states.row(i);
            const auto want = full.states.row(rig.t_len - kept + i);
            EXPECT_TRUE(std::equal(got.begin(), got.end(), want.begin()))
                << where << " state row " << i;
          }
          for (std::size_t i = 0; i < kept; ++i) {
            const auto got = trunc.tail_j.row(i);
            const auto want = full.j.row(rig.t_len - kept + i);
            EXPECT_TRUE(std::equal(got.begin(), got.end(), want.begin()))
                << where << " j row " << i;
          }
        }
      }
    }
  }
}

TEST(TruncatedForwardPass, ReusedAcrossSeriesLengths) {
  // One instance serves series longer and shorter than its window in any
  // order: each pass resets the rings and the accumulator.
  const std::size_t nx = 9;
  const ModularReservoir reservoir(nx, Nonlinearity(NonlinearityKind::kTanh));
  const DfrParams params{0.3, 0.4};
  const TestRig shape(5, nx, 1);
  StreamingForward forward(reservoir, shape.mask, 5);
  TruncatedForward trunc;
  Vector features(dprr_dim(nx));
  for (std::size_t t_len : {12u, 3u, 1u, 5u, 9u}) {
    Rng rng(t_len);
    Matrix series(t_len, shape.channels);
    for (std::size_t t = 0; t < t_len; ++t) {
      for (std::size_t v = 0; v < shape.channels; ++v) series(t, v) = rng.normal();
    }
    const FullForward full =
        run_forward_full(reservoir, params, shape.mask, series);
    forward.run(params, series, trunc);
    EXPECT_EQ(trunc.dprr, full.dprr) << "T=" << t_len;
    const std::size_t kept = std::min<std::size_t>(5, t_len);
    ASSERT_EQ(trunc.tail_states.rows(), kept + 1);
    for (std::size_t i = 0; i <= kept; ++i) {
      const auto got = trunc.tail_states.row(i);
      const auto want = full.states.row(t_len - kept + i);
      EXPECT_TRUE(std::equal(got.begin(), got.end(), want.begin()))
          << "T=" << t_len << " row " << i;
    }
    // Memory notes: the tail counts state values only; the ring's pad lanes
    // are listed apart.
    EXPECT_EQ(trunc.stored_state_values(), (kept + 1) * nx);
    EXPECT_EQ(forward.pad_values(), (kept + 1) * (simd::padded_nodes(nx) - nx));
    // The feature form is the time-averaged dprr of the same pass.
    forward.features_into(params, series, features);
    Vector averaged = full.dprr;
    scale(averaged, dprr_time_scale(t_len));
    EXPECT_EQ(features, averaged) << "T=" << t_len;
  }
}

TEST(TruncatedForwardPass, RejectsMismatchedShapes) {
  const TestRig rig(19);
  const ModularReservoir reservoir(rig.nx, Nonlinearity{});
  StreamingForward forward(reservoir, rig.mask, 1);
  TruncatedForward out;
  const Matrix wrong_channels(4, rig.channels + 1);
  EXPECT_THROW(forward.run(DfrParams{}, wrong_channels, out), CheckError);
  const Matrix empty(0, rig.channels);
  EXPECT_THROW(forward.run(DfrParams{}, empty, out), CheckError);
  EXPECT_THROW(StreamingForward(reservoir, rig.mask, 0), CheckError);
  const ModularReservoir wider(rig.nx + 1, Nonlinearity{});
  EXPECT_THROW(StreamingForward(wider, rig.mask, 1), CheckError);
}

TEST(Backprop, WindowOutOfRangeThrows) {
  const TestRig rig(81);
  const ModularReservoir reservoir(rig.nx, Nonlinearity{});
  const DfrParams params{0.01, 0.01};
  const FullForward full = run_forward_full(reservoir, params, rig.mask, rig.series);
  Vector dr(dprr_dim(rig.nx), 0.0);
  EXPECT_THROW(
      backprop_through_dprr(reservoir, params, full.states, full.j, dr, 0),
      CheckError);
  EXPECT_THROW(backprop_through_dprr(reservoir, params, full.states, full.j, dr,
                                     rig.t_len + 1),
               CheckError);
}

}  // namespace
}  // namespace dfr
