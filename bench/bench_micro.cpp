// Microbenchmarks (google-benchmark) for the computational claims of paper
// Section 3.4:
//   * BM_BackpropFull vs BM_BackpropTruncated across T — the truncated
//     backward pass is O(Nx^2) regardless of T while full BPTT is O(T Nx^2),
//     i.e. the ~1/T compute reduction the paper states;
//   * forward / DPRR / mask / ridge kernels for profiling context;
//   * one backprop training sample stage by stage (BM_Train*: truncated
//     forward, output-layer backward, truncated backprop, SGD step, ridge
//     sweep) at the tune workload's ECG / JPVOW / LIB shapes, on every
//     backend;
//   * the single-series SIMD serving path stage by stage (mask, preadd +
//     nonlinearity, the fused B-chain + DPRR accumulate, the DPRR accumulate
//     alone, the quantized round-to-format and preadd + nonlinearity,
//     readout) and whole, on every backend this host runs (chosen with
//     simd::force_backend), at Nx in {7, 30, 31, 50};
//   * the batched SoA DPRR accumulate at Nx in {30, 50} and 1/2/4/8/16 lanes
//     (BM_SimdBatchedDprrAdd/<backend>/<Nx>/<lanes>).
// Backend ids in the case names follow simd::Backend (0 scalar, 1 avx2,
// 2 neon, 3 avx512) and the label names the backend. Run e.g.
// `bench_micro --benchmark_filter=BM_Simd`.
#include <benchmark/benchmark.h>

#include <algorithm>
#include <string>

#include "data/synth.hpp"
#include "dfr/backprop.hpp"
#include "dfr/output.hpp"
#include "dfr/ridge.hpp"
#include "linalg/cholesky.hpp"
#include "serve/engine.hpp"
#include "util/rng.hpp"

namespace {

using namespace dfr;

Matrix random_series(std::size_t t_len, std::size_t channels, std::uint64_t seed) {
  Rng rng(seed);
  Matrix series(t_len, channels);
  for (std::size_t t = 0; t < t_len; ++t) {
    for (std::size_t v = 0; v < channels; ++v) series(t, v) = rng.normal();
  }
  return series;
}

struct Fixture {
  std::size_t nx = 30;
  ModularReservoir reservoir{30, Nonlinearity{}};
  Mask mask;
  DfrParams params{0.2, 0.3};
  Matrix series;
  OutputLayer output{3, dprr_dim(30)};

  explicit Fixture(std::size_t t_len) : mask(Matrix(1, 1)), series(1, 1) {
    Rng rng(7);
    mask = Mask(nx, 4, MaskKind::kBinary, rng);
    series = random_series(t_len, 4, 11);
    for (std::size_t c = 0; c < output.weights().rows(); ++c) {
      for (std::size_t f = 0; f < output.weights().cols(); ++f) {
        output.mutable_weights()(c, f) = 0.01 * rng.normal();
      }
    }
  }
};

void BM_ForwardFull(benchmark::State& state) {
  const Fixture fx(static_cast<std::size_t>(state.range(0)));
  for (auto _ : state) {
    auto fwd = run_forward_full(fx.reservoir, fx.params, fx.mask, fx.series);
    benchmark::DoNotOptimize(fwd.dprr.data());
  }
  state.SetComplexityN(state.range(0));
}
BENCHMARK(BM_ForwardFull)->RangeMultiplier(4)->Range(64, 1024)->Complexity();

void BM_ForwardTruncated(benchmark::State& state) {
  const Fixture fx(static_cast<std::size_t>(state.range(0)));
  for (auto _ : state) {
    auto fwd =
        run_forward_truncated(fx.reservoir, fx.params, fx.mask, fx.series, 1);
    benchmark::DoNotOptimize(fwd.dprr.data());
  }
  state.SetComplexityN(state.range(0));
}
BENCHMARK(BM_ForwardTruncated)->RangeMultiplier(4)->Range(64, 1024)->Complexity();

void BM_BackpropFull(benchmark::State& state) {
  const Fixture fx(static_cast<std::size_t>(state.range(0)));
  const auto fwd = run_forward_full(fx.reservoir, fx.params, fx.mask, fx.series);
  const auto out = fx.output.backward(fwd.dprr, 1);
  for (auto _ : state) {
    auto grads = backprop_full(fx.reservoir, fx.params, fwd.states, fwd.j,
                               out.dfeatures);
    benchmark::DoNotOptimize(grads);
  }
  state.SetComplexityN(state.range(0));
}
BENCHMARK(BM_BackpropFull)->RangeMultiplier(4)->Range(64, 1024)->Complexity();

void BM_BackpropTruncated(benchmark::State& state) {
  // The truncated backward pass touches only the last step — its time must
  // be flat in T (compare against BM_BackpropFull: the paper's ~1/T claim).
  const Fixture fx(static_cast<std::size_t>(state.range(0)));
  const auto fwd =
      run_forward_truncated(fx.reservoir, fx.params, fx.mask, fx.series, 1);
  const auto out = fx.output.backward(fwd.dprr, 1);
  for (auto _ : state) {
    auto grads = backprop_through_dprr(fx.reservoir, fx.params, fwd.tail_states,
                                       fwd.tail_j, out.dfeatures, 1);
    benchmark::DoNotOptimize(grads);
  }
  state.SetComplexityN(state.range(0));
}
BENCHMARK(BM_BackpropTruncated)->RangeMultiplier(4)->Range(64, 1024)->Complexity();

void BM_DprrAccumulate(benchmark::State& state) {
  const auto nx = static_cast<std::size_t>(state.range(0));
  Rng rng(3);
  Vector x(nx), x_prev(nx);
  for (std::size_t n = 0; n < nx; ++n) {
    x[n] = rng.normal();
    x_prev[n] = rng.normal();
  }
  DprrAccumulator acc(nx);
  for (auto _ : state) {
    acc.add(x, x_prev);
    benchmark::DoNotOptimize(acc.features().data());
  }
}
BENCHMARK(BM_DprrAccumulate)->Arg(10)->Arg(30)->Arg(100);

void BM_MaskApply(benchmark::State& state) {
  Rng rng(5);
  const Mask mask(30, static_cast<std::size_t>(state.range(0)),
                  MaskKind::kBinary, rng);
  Vector input(static_cast<std::size_t>(state.range(0)));
  for (double& v : input) v = rng.normal();
  for (auto _ : state) {
    auto j = mask.apply(input);
    benchmark::DoNotOptimize(j.data());
  }
}
BENCHMARK(BM_MaskApply)->Arg(2)->Arg(13)->Arg(62);

void BM_RidgePrimalVsDual(benchmark::State& state) {
  // range(0): sample count. Below the feature dimension (931) the dual path
  // engages; above it the primal.
  const auto n = static_cast<std::size_t>(state.range(0));
  Rng rng(9);
  FeatureMatrix fm;
  fm.features.resize(n, dprr_dim(30));
  fm.labels.resize(n);
  for (std::size_t i = 0; i < n; ++i) {
    for (std::size_t f = 0; f < fm.features.cols(); ++f) {
      fm.features(i, f) = rng.normal();
    }
    fm.labels[i] = static_cast<int>(i % 3);
  }
  for (auto _ : state) {
    auto layer = fit_ridge(fm, 3, 1e-4);
    benchmark::DoNotOptimize(layer.weights().data());
  }
}
BENCHMARK(BM_RidgePrimalVsDual)->Arg(100)->Arg(400)->Arg(1200)
    ->Unit(benchmark::kMillisecond);

void BM_CholeskyFactor(benchmark::State& state) {
  const auto n = static_cast<std::size_t>(state.range(0));
  Rng rng(13);
  Matrix base(n, n);
  for (std::size_t r = 0; r < n; ++r) {
    for (std::size_t c = 0; c < n; ++c) base(r, c) = rng.normal();
  }
  const Matrix spd = gram_at_a(base, 1.0);
  for (auto _ : state) {
    auto l = cholesky_factor(spd);
    benchmark::DoNotOptimize(l->data());
  }
}
BENCHMARK(BM_CholeskyFactor)->Arg(64)->Arg(256)->Arg(931)
    ->Unit(benchmark::kMillisecond);

// ---- single-series SIMD serving path, stage by stage -----------------------
//
// Shapes follow the serving workload: V = 2 input channels, rows padded to
// simd::padded_nodes(Nx) exactly as BasicEngine keeps them. Each stage case
// times one time step's call; BM_SimdInfer times a whole T = 151 series.

constexpr std::size_t kStageChannels = 2;

/// One backend's single-series datapath over a random model of `nx` nodes,
/// plus padded scratch rows holding random states.
struct StageFixture {
  std::size_t nx;
  std::size_t stride;
  ModelArtifactPtr model;
  SimdFloatDatapath datapath;
  Vector u, features, logits;
  simd::AlignedVector j, x_prev, x_cur, acc;  // padded rows, as in the engine

  StageFixture(std::size_t nodes, simd::Backend backend)
      : nx(nodes),
        stride(simd::padded_nodes(nodes)),
        model(make_model(nodes)),
        datapath(model, backend),
        u(kStageChannels),
        features(dprr_dim(nodes), 0.0),
        logits(3, 0.0),
        j(stride, 0.0),
        x_prev(stride, 0.0),
        x_cur(stride, 0.0),
        acc(simd::padded_dprr_size(nodes), 0.0) {
    Rng rng(17);
    for (double& v : u) v = rng.normal();
    for (std::size_t n = 0; n < nx; ++n) {
      j[n] = 0.1 * rng.normal();
      x_prev[n] = 0.1 * rng.normal();
      x_cur[n] = 0.1 * rng.normal();
    }
    for (double& f : features) f = 0.01 * rng.normal();
  }

  static ModelArtifactPtr make_model(std::size_t nodes) {
    Rng rng(23);
    ModelArtifact artifact;
    artifact.params = DfrParams{0.2, 0.3};
    artifact.mask = Mask(nodes, kStageChannels, MaskKind::kBinary, rng);
    Matrix w(3, dprr_dim(nodes));
    for (std::size_t c = 0; c < w.rows(); ++c) {
      for (std::size_t f = 0; f < w.cols(); ++f) w(c, f) = 0.01 * rng.normal();
    }
    artifact.readout = OutputLayer(std::move(w), Vector(3, 0.0));
    return std::make_shared<const ModelArtifact>(std::move(artifact));
  }
};

/// Forces the case's backend (range(0)); registration only lists backends
/// this host and build can run.
void select_backend(benchmark::State& state) {
  const auto backend = static_cast<simd::Backend>(state.range(0));
  simd::force_backend(backend);
  state.SetLabel(simd::backend_name(backend));
}

void BM_SimdMask(benchmark::State& state) {
  select_backend(state);
  StageFixture fx(static_cast<std::size_t>(state.range(1)),
                  simd::active_backend());
  for (auto _ : state) {
    fx.datapath.mask_into(fx.u, fx.j);
    benchmark::DoNotOptimize(fx.j.data());
    benchmark::ClobberMemory();
  }
}

void BM_SimdPreaddNonlin(benchmark::State& state) {
  select_backend(state);
  StageFixture fx(static_cast<std::size_t>(state.range(1)),
                  simd::active_backend());
  const simd::Kernels& kernels = simd::active_kernels();
  for (auto _ : state) {
    kernels.preadd_nonlin(fx.model->nonlinearity, fx.model->params.a,
                          fx.j.data(), fx.x_prev.data(), fx.x_cur.data(),
                          fx.nx);
    benchmark::DoNotOptimize(fx.x_cur.data());
    benchmark::ClobberMemory();
  }
}

// The fused B-chain + DPRR accumulate of one step (bchain_dprr_add). The
// chain runs in place, so each iteration restarts from the same preadd output
// (a one-row copy, small next to the serial chain).
void BM_SimdBChainDprrAdd(benchmark::State& state) {
  select_backend(state);
  StageFixture fx(static_cast<std::size_t>(state.range(1)),
                  simd::active_backend());
  const simd::Kernels& kernels = simd::active_kernels();
  const simd::AlignedVector v = fx.x_cur;
  for (auto _ : state) {
    std::copy(v.begin(), v.end(), fx.x_cur.begin());
    kernels.bchain_dprr_add(fx.model->params.b, fx.x_prev.data(),
                            fx.x_cur.data(), fx.acc.data(), fx.nx, fx.stride);
    benchmark::DoNotOptimize(fx.acc.data());
    benchmark::ClobberMemory();
  }
}

void BM_SimdDprrAdd(benchmark::State& state) {
  select_backend(state);
  StageFixture fx(static_cast<std::size_t>(state.range(1)),
                  simd::active_backend());
  const simd::Kernels& kernels = simd::active_kernels();
  for (auto _ : state) {
    kernels.dprr_add(fx.acc.data(), fx.x_cur.data(), fx.x_prev.data(), fx.nx,
                     fx.stride);
    benchmark::DoNotOptimize(fx.acc.data());
    benchmark::ClobberMemory();
  }
}

// The quantized single-series stages, in the Q4.11 state format of the
// default QuantizationConfig: the masked-input round-to-format over a whole
// padded row (as SimdQuantizedDatapath::mask_into runs it) and the quantized
// preadd + nonlinearity over the Nx nodes.
void BM_SimdScaleQuantize(benchmark::State& state) {
  select_backend(state);
  StageFixture fx(static_cast<std::size_t>(state.range(1)),
                  simd::active_backend());
  const simd::Kernels& kernels = simd::active_kernels();
  const FixedPointFormat fmt(4, 11);
  for (auto _ : state) {
    // Scaling by 1 leaves a quantized row unchanged, so every iteration
    // rounds the same values.
    kernels.scale_quantize(fmt, 1.0, fx.j.data(), fx.j.size());
    benchmark::DoNotOptimize(fx.j.data());
    benchmark::ClobberMemory();
  }
}

void BM_SimdQuantPreaddNonlin(benchmark::State& state) {
  select_backend(state);
  StageFixture fx(static_cast<std::size_t>(state.range(1)),
                  simd::active_backend());
  const simd::Kernels& kernels = simd::active_kernels();
  const FixedPointFormat fmt(4, 11);
  for (auto _ : state) {
    kernels.quant_preadd_nonlin(fx.model->nonlinearity, fx.model->params.a,
                                fmt, fx.j.data(), fx.x_prev.data(),
                                fx.x_cur.data(), fx.nx);
    benchmark::DoNotOptimize(fx.x_cur.data());
    benchmark::ClobberMemory();
  }
}

// The batched SoA DPRR accumulate at one lane count (range(2)): x_k and
// x_km1 hold Nx*lanes states and r holds dprr_dim(Nx)*lanes accumulators,
// as BatchedEngine keeps them. Per-series cost is the time over lanes.
void BM_SimdBatchedDprrAdd(benchmark::State& state) {
  select_backend(state);
  const auto nx = static_cast<std::size_t>(state.range(1));
  const auto lanes = static_cast<std::size_t>(state.range(2));
  Rng rng(41);
  Vector x_k(nx * lanes), x_km1(nx * lanes), r(dprr_dim(nx) * lanes, 0.0);
  for (double& v : x_k) v = 0.1 * rng.normal();
  for (double& v : x_km1) v = 0.1 * rng.normal();
  const simd::Kernels& kernels = simd::active_kernels();
  for (auto _ : state) {
    kernels.batched_dprr_add(r.data(), x_k.data(), x_km1.data(), nx, lanes);
    benchmark::DoNotOptimize(r.data());
    benchmark::ClobberMemory();
  }
}

// The readout (W r + b over Nx*(Nx+1) features) is scalar code on every
// backend; it is timed per backend only to keep the stage table uniform.
void BM_SimdReadout(benchmark::State& state) {
  select_backend(state);
  StageFixture fx(static_cast<std::size_t>(state.range(1)),
                  simd::active_backend());
  const OutputLayer& readout = fx.datapath.readout();
  for (auto _ : state) {
    readout.logits_into(fx.features, fx.logits);
    benchmark::DoNotOptimize(fx.logits.data());
    benchmark::ClobberMemory();
  }
}

// The whole single-series engine on one T = 151 series (the serving
// workload's shape): 151 masks, steps and DPRR accumulates, the feature
// gather and finalization, and the readout.
void BM_SimdInfer(benchmark::State& state) {
  select_backend(state);
  const auto nx = static_cast<std::size_t>(state.range(1));
  SimdInferenceEngine engine =
      make_simd_engine(StageFixture::make_model(nx), simd::active_backend());
  const Matrix series = random_series(151, kStageChannels, 29);
  for (auto _ : state) {
    benchmark::DoNotOptimize(engine.infer(series).data());
  }
}

// ---- backprop training, stage by stage ------------------------------------
//
// One training sample's stages at the tune workload's shapes (Nx = 30, a
// 60-sample cap, 48 of them in the ridge fit split and 12 in selection):
// the truncated forward (window 1) on the case's backend, the output layer's
// forward + backward, the truncated backprop, the SGD step, and the ridge
// sweep over the paper's beta grid. Only the forward dispatches; the other
// stages are timed per backend to keep the table uniform.

struct TrainShape {
  const char* name;
  std::size_t t_len;
  std::size_t channels;
  int classes;
};
constexpr TrainShape kTrainShapes[] = {
    {"ECG", 151, 2, 2}, {"JPVOW", 28, 12, 9}, {"LIB", 44, 2, 15}};
constexpr std::size_t kTrainNodes = 30;

struct TrainFixture {
  TrainShape shape;
  ModularReservoir reservoir{kTrainNodes, Nonlinearity{}};
  Mask mask;
  DfrParams params{0.2, 0.3};
  Matrix series;
  OutputLayer output;
  StreamingForward forward;
  TruncatedForward fwd;
  int label = 1;

  explicit TrainFixture(const TrainShape& s)
      : shape(s),
        mask(make_mask(s)),
        series(random_series(s.t_len, s.channels, 11)),
        output(s.classes, dprr_dim(kTrainNodes)),
        forward(reservoir, mask, 1) {
    Rng rng(13);
    for (std::size_t c = 0; c < output.weights().rows(); ++c) {
      for (std::size_t f = 0; f < output.weights().cols(); ++f) {
        output.mutable_weights()(c, f) = 0.01 * rng.normal();
      }
    }
    forward.run(params, series, fwd);
    scale(fwd.dprr, dprr_time_scale(s.t_len));  // as the trainer feeds it
  }

  static Mask make_mask(const TrainShape& s) {
    Rng rng(7);
    return Mask(kTrainNodes, s.channels, MaskKind::kBinary, rng);
  }
};

/// Selects the case's backend (range(0)) and returns its shape (range(1)).
const TrainShape& select_train_case(benchmark::State& state) {
  select_backend(state);
  const TrainShape& shape = kTrainShapes[state.range(1)];
  state.SetLabel(std::string(simd::backend_name(simd::active_backend())) +
                 " " + shape.name);
  return shape;
}

void BM_TrainForward(benchmark::State& state) {
  TrainFixture fx(select_train_case(state));
  for (auto _ : state) {
    fx.forward.run(fx.params, fx.series, fx.fwd);
    benchmark::DoNotOptimize(fx.fwd.dprr.data());
    benchmark::ClobberMemory();
  }
}

// Into one reused record, as the trainer runs it.
void BM_TrainOutputBackward(benchmark::State& state) {
  const TrainFixture fx(select_train_case(state));
  OutputLayer::Backward grads;
  for (auto _ : state) {
    fx.output.backward_into(fx.fwd.dprr, fx.label, grads);
    benchmark::DoNotOptimize(grads.dfeatures.data());
  }
}

void BM_TrainBackprop(benchmark::State& state) {
  const TrainFixture fx(select_train_case(state));
  const auto out = fx.output.backward(fx.fwd.dprr, fx.label);
  for (auto _ : state) {
    auto grads = backprop_through_dprr(fx.reservoir, fx.params,
                                       fx.fwd.tail_states, fx.fwd.tail_j,
                                       out.dfeatures, 1);
    benchmark::DoNotOptimize(grads);
  }
}

void BM_TrainApplyGradient(benchmark::State& state) {
  TrainFixture fx(select_train_case(state));
  const auto out = fx.output.backward(fx.fwd.dprr, fx.label);
  for (auto _ : state) {
    fx.output.apply_gradient(out, fx.fwd.dprr, 1e-9);
    benchmark::DoNotOptimize(fx.output.weights().data());
    benchmark::ClobberMemory();
  }
}

void BM_TrainRidgeSweep(benchmark::State& state) {
  const TrainShape& shape = select_train_case(state);
  Rng rng(19);
  const auto features = [&](std::size_t n) {
    FeatureMatrix fm;
    fm.features.resize(n, dprr_dim(kTrainNodes));
    fm.labels.resize(n);
    for (std::size_t i = 0; i < n; ++i) {
      for (std::size_t f = 0; f < fm.features.cols(); ++f) {
        fm.features(i, f) = 0.1 * rng.normal();
      }
      fm.labels[i] = static_cast<int>(i % static_cast<std::size_t>(shape.classes));
    }
    return fm;
  };
  const FeatureMatrix fit = features(48);
  const FeatureMatrix selection = features(12);
  for (auto _ : state) {
    auto sweep = sweep_ridge(fit, selection, shape.classes);
    benchmark::DoNotOptimize(sweep.best_index);
  }
}

/// Registers every stage case for each backend this host runs, at
/// Nx in {7, 30, 31, 50}, the batched accumulate at each lane count, and
/// every training stage at the tune shapes.
void register_stage_benchmarks() {
  const std::pair<const char*, void (*)(benchmark::State&)> train_stages[] = {
      {"BM_TrainForward", BM_TrainForward},
      {"BM_TrainOutputBackward", BM_TrainOutputBackward},
      {"BM_TrainBackprop", BM_TrainBackprop},
      {"BM_TrainApplyGradient", BM_TrainApplyGradient},
      {"BM_TrainRidgeSweep", BM_TrainRidgeSweep},
  };
  for (const auto& [name, fn] : train_stages) {
    benchmark::internal::Benchmark* bench =
        benchmark::RegisterBenchmark(name, fn);
    bench->Unit(fn == BM_TrainRidgeSweep ? benchmark::kMillisecond
                                         : benchmark::kMicrosecond);
    for (simd::Backend backend :
         {simd::Backend::kScalar, simd::Backend::kAvx2, simd::Backend::kNeon,
          simd::Backend::kAvx512}) {
      if (!simd::backend_available(backend)) continue;
      for (std::int64_t shape = 0; shape < 3; ++shape) {
        bench->Args({static_cast<std::int64_t>(backend), shape});
      }
    }
  }

  const std::pair<const char*, void (*)(benchmark::State&)> stages[] = {
      {"BM_SimdMask", BM_SimdMask},
      {"BM_SimdPreaddNonlin", BM_SimdPreaddNonlin},
      {"BM_SimdBChainDprrAdd", BM_SimdBChainDprrAdd},
      {"BM_SimdDprrAdd", BM_SimdDprrAdd},
      {"BM_SimdScaleQuantize", BM_SimdScaleQuantize},
      {"BM_SimdQuantPreaddNonlin", BM_SimdQuantPreaddNonlin},
      {"BM_SimdReadout", BM_SimdReadout},
      {"BM_SimdInfer", BM_SimdInfer},
  };
  for (const auto& [name, fn] : stages) {
    benchmark::internal::Benchmark* bench =
        benchmark::RegisterBenchmark(name, fn);
    if (fn == BM_SimdInfer) bench->Unit(benchmark::kMicrosecond);
    for (simd::Backend backend :
         {simd::Backend::kScalar, simd::Backend::kAvx2, simd::Backend::kNeon,
          simd::Backend::kAvx512}) {
      if (!simd::backend_available(backend)) continue;
      for (std::int64_t nx : {7, 30, 31, 50}) {
        bench->Args({static_cast<std::int64_t>(backend), nx});
      }
    }
  }

  benchmark::internal::Benchmark* batched =
      benchmark::RegisterBenchmark("BM_SimdBatchedDprrAdd",
                                   BM_SimdBatchedDprrAdd);
  for (simd::Backend backend :
       {simd::Backend::kScalar, simd::Backend::kAvx2, simd::Backend::kNeon,
        simd::Backend::kAvx512}) {
    if (!simd::backend_available(backend)) continue;
    for (std::int64_t nx : {30, 50}) {
      for (std::int64_t lanes : {1, 2, 4, 8, 16}) {
        batched->Args({static_cast<std::int64_t>(backend), nx, lanes});
      }
    }
  }
}

}  // namespace

int main(int argc, char** argv) {
  register_stage_benchmarks();
  benchmark::Initialize(&argc, argv);
  if (benchmark::ReportUnrecognizedArguments(argc, argv)) return 1;
  benchmark::RunSpecifiedBenchmarks();
  benchmark::Shutdown();
  return 0;
}
