// Tests for the cross-request batched SoA engine (serve/engine.hpp
// BatchedEngine + the batched kernel family of serve/simd_kernels.hpp).
// The contracts under test:
//   - float lanes are BIT-IDENTICAL to the scalar trajectory pipeline (the
//     float SIMD contract, per lane) and to the single-series SIMD engine on
//     the same backend (both run the same per-element kernel operations,
//     just strided across lanes);
//   - quantized lanes are BIT-IDENTICAL (EXPECT_EQ) to the scalar
//     fixed-point reference — the quantized SIMD contract extends to
//     batching;
//   - all strict on x86-64 (see the aarch64 caveat in simd_kernels.hpp);
//   - lanes are independent: a lane's results do not change with its
//     batchmates or the batch size;
//   - infer() performs zero steady-state heap allocations;
//   - malformed batches throw CheckError before touching any lane.
#include <gtest/gtest.h>

#include <atomic>
#include <cmath>
#include <cstdlib>
#include <cstring>
#include <memory>
#include <new>
#include <span>
#include <string>
#include <vector>

#include "data/dataset.hpp"
#include "fixedpoint/quantized_dfr.hpp"
#include "serve/engine.hpp"
#include "test_support.hpp"
#include "util/check.hpp"

// ---- allocation instrumentation (same scheme as test_serve.cpp) ------------

namespace {
std::atomic<std::size_t> g_allocations{0};
}  // namespace

void* operator new(std::size_t size) {
  ++g_allocations;
  if (void* p = std::malloc(size ? size : 1)) return p;
  throw std::bad_alloc();
}
void* operator new[](std::size_t size) {
  ++g_allocations;
  if (void* p = std::malloc(size ? size : 1)) return p;
  throw std::bad_alloc();
}
void operator delete(void* p) noexcept { std::free(p); }
void operator delete[](void* p) noexcept { std::free(p); }
void operator delete(void* p, std::size_t) noexcept { std::free(p); }
void operator delete[](void* p, std::size_t) noexcept { std::free(p); }

namespace dfr {
namespace {

// ---- helpers ---------------------------------------------------------------

// Lane counts below any vector width, odd, prime, and at the NEON (2),
// AVX-512 (8) and kBatchedMaxLanes widths.
constexpr std::size_t kLaneCounts[] = {1, 2, 3, 5, 8, 16};

std::vector<const Matrix*> series_ptrs(const std::vector<Matrix>& batch) {
  std::vector<const Matrix*> ptrs;
  ptrs.reserve(batch.size());
  for (const Matrix& m : batch) ptrs.push_back(&m);
  return ptrs;
}

// ---- float lanes: bit-identity vs the scalar pipeline -----------------------

// Per lane, batched finalized features equal the scalar trajectory pipeline
// bit for bit — for every nonlinearity, odd Nx, odd lane count, and
// available backend. Each lane carries a distinct series so a lane-index
// mixup cannot cancel out.
TEST(BatchedFloatEquivalence, FeaturesBitIdenticalAcrossShapesAndLanes) {
  constexpr std::size_t kTLen = 40;
  constexpr std::size_t kChannels = 3;
  Rng rng(42);
  for (NonlinearityKind kind : kAllKinds) {
    for (std::size_t nx : kOddSizes) {
      const LoadedModel model = make_model(nx, kChannels, 3, kind, 7 + nx);
      const ModelArtifactPtr artifact = model.artifact("m");
      for (std::size_t lanes : {std::size_t{1}, std::size_t{3},
                                std::size_t{8}}) {
        std::vector<Matrix> batch;
        for (std::size_t l = 0; l < lanes; ++l) {
          batch.push_back(random_series(kTLen, kChannels, rng));
        }
        const std::vector<const Matrix*> ptrs = series_ptrs(batch);
        std::vector<Vector> refs;
        for (const Matrix& m : batch) {
          refs.push_back(reference_float_features(model, m));
        }
        for (simd::Backend b : available_backends()) {
          BatchedInferenceEngine engine =
              make_batched_engine(artifact, lanes, b);
          engine.infer(std::span<const Matrix* const>(ptrs));
          for (std::size_t l = 0; l < lanes; ++l) {
            expect_bit_identical(
                refs[l], engine.lane_features(l),
                std::string(simd::backend_name(b)) + " " +
                    nonlinearity_name(kind) + " nx=" + std::to_string(nx) +
                    " lanes=" + std::to_string(lanes) +
                    " lane=" + std::to_string(l));
          }
        }
      }
    }
  }
}

// ---- float lanes: bit-identity vs the single-series SIMD engine -------------

// A batched float lane runs the exact per-element operation sequence of the
// single-series SIMD engine on the same backend (the batched kernels perform
// the same correctly-rounded mul/add per element, only strided across
// lanes), so logits and labels are bit-identical — strict on x86-64.
TEST(BatchedFloatEquivalence, BitIdenticalToSingleSeriesSimdEngine) {
  constexpr std::size_t kTLen = 35;
  constexpr std::size_t kChannels = 2;
  Rng rng(97);
  for (std::size_t nx : kOddSizes) {
    const LoadedModel model =
        make_model(nx, kChannels, 4, NonlinearityKind::kTanh, 11 + nx);
    const ModelArtifactPtr artifact = model.artifact("m");
    std::vector<Matrix> batch;
    for (int l = 0; l < 6; ++l) {
      batch.push_back(random_series(kTLen, kChannels, rng));
    }
    const std::vector<const Matrix*> ptrs = series_ptrs(batch);
    for (simd::Backend b : available_backends()) {
      SimdInferenceEngine single = make_simd_engine(artifact, b);
      BatchedInferenceEngine batched =
          make_batched_engine(artifact, batch.size(), b);
      batched.infer(std::span<const Matrix* const>(ptrs));
      for (std::size_t l = 0; l < batch.size(); ++l) {
        const std::span<const double> ref = single.infer(batch[l]);
        const std::string context = std::string(simd::backend_name(b)) +
                                    " nx=" + std::to_string(nx) +
                                    " lane=" + std::to_string(l);
        expect_bit_identical(ref, batched.lane_logits(l), context);
        EXPECT_EQ(batched.lane_label(l), single.classify(batch[l])) << context;
      }
    }
  }
}

// ---- quantized lanes: bit-identity vs the scalar quantized reference --------

// The quantized SIMD contract extends to batching: every lane's features,
// logits, and label are EXPECT_EQ-identical to the scalar fixed-point
// reference for every nonlinearity, odd Nx, lane count, and available
// backend.
TEST(BatchedQuantEquivalence, BitIdenticalToScalarQuantizedDatapath) {
  constexpr std::size_t kTLen = 40;
  constexpr std::size_t kChannels = 3;
  Rng rng(43);
  for (NonlinearityKind kind : kAllKinds) {
    for (std::size_t nx : {std::size_t{1}, std::size_t{3}, std::size_t{5},
                           std::size_t{30}}) {
      const LoadedModel model = make_model(nx, kChannels, 3, kind, 19 + nx);
      auto quantized = std::make_shared<QuantizedDfr>(
          model, QuantizedInferenceConfig{});
      Dataset calib("calib", 3, kTLen, kChannels);
      for (int i = 0; i < 3; ++i) {
        calib.add({random_series(kTLen, kChannels, rng), i % 2});
      }
      quantized->calibrate(calib);
      const double feature_step =
          quantized->config().feature_format.resolution();
      for (std::size_t lanes : {std::size_t{1}, std::size_t{5},
                                std::size_t{8}}) {
        std::vector<Matrix> batch;
        for (std::size_t l = 0; l < lanes; ++l) {
          batch.push_back(random_series(kTLen, kChannels, rng));
        }
        const std::vector<const Matrix*> ptrs = series_ptrs(batch);
        for (simd::Backend b : available_backends()) {
          BatchedQuantizedInferenceEngine engine =
              make_batched_engine(quantized, lanes, b);
          engine.infer(std::span<const Matrix* const>(ptrs));
          for (std::size_t l = 0; l < lanes; ++l) {
            const std::string context =
                std::string(simd::backend_name(b)) + " " +
                nonlinearity_name(kind) + " nx=" + std::to_string(nx) +
                " lanes=" + std::to_string(lanes) +
                " lane=" + std::to_string(l);
            expect_bit_identical(
                reference_quantized_features(*quantized, batch[l]),
                engine.lane_features(l), context + " features", feature_step);
            expect_bit_identical(
                reference_quantized_logits(*quantized, batch[l]),
                engine.lane_logits(l), context + " logits",
                8.0 * feature_step);
            EXPECT_EQ(engine.lane_label(l),
                      reference_quantized_label(*quantized, batch[l]))
                << context;
          }
        }
      }
    }
  }
}

// ---- lane independence ------------------------------------------------------

// A lane's results are a function of its own series only: the same series
// produces bit-identical logits whether it runs alone, in a full batch, or
// surrounded by different batchmates in a different lane position.
TEST(BatchedLaneIndependence, ResultsIgnoreBatchmatesAndLanePosition) {
  constexpr std::size_t kTLen = 30;
  constexpr std::size_t kChannels = 2;
  Rng rng(5);
  const LoadedModel model =
      make_model(13, kChannels, 3, NonlinearityKind::kSaturating, 3);
  const ModelArtifactPtr artifact = model.artifact("m");
  const Matrix probe = random_series(kTLen, kChannels, rng);

  for (simd::Backend b : available_backends()) {
    BatchedInferenceEngine engine = make_batched_engine(artifact, 8, b);

    // Alone.
    const Matrix* solo[] = {&probe};
    engine.infer(std::span<const Matrix* const>(solo, 1));
    const Vector ref(engine.lane_logits(0).begin(),
                     engine.lane_logits(0).end());
    const int ref_label = engine.lane_label(0);

    // In every lane position of a full batch of unrelated batchmates, twice
    // with different batchmates (scratch reuse must not leak across calls).
    for (int round = 0; round < 2; ++round) {
      for (std::size_t pos = 0; pos < 8; ++pos) {
        std::vector<Matrix> mates;
        for (std::size_t l = 0; l < 8; ++l) {
          mates.push_back(random_series(kTLen, kChannels, rng));
        }
        std::vector<const Matrix*> ptrs = series_ptrs(mates);
        ptrs[pos] = &probe;
        engine.infer(std::span<const Matrix* const>(ptrs));
        const std::string context = std::string(simd::backend_name(b)) +
                                    " pos=" + std::to_string(pos) +
                                    " round=" + std::to_string(round);
        const std::span<const double> got = engine.lane_logits(pos);
        ASSERT_EQ(got.size(), ref.size()) << context;
        for (std::size_t c = 0; c < ref.size(); ++c) {
          ASSERT_EQ(ref[c], got[c]) << context << " class " << c;
        }
        EXPECT_EQ(engine.lane_label(pos), ref_label) << context;
      }
    }
  }
}

// ---- zero-allocation steady state -------------------------------------------

// After construction, infer() + lane accessors allocate nothing: all SoA
// scratch is preallocated for max_lanes, and smaller batches reuse it.
TEST(BatchedEngine, InferAllocatesNothingInSteadyState) {
  Rng rng(9);
  const LoadedModel model =
      make_model(30, 2, 4, NonlinearityKind::kIdentity, 13);
  const ModelArtifactPtr artifact = model.artifact("m");
  std::vector<Matrix> batch;
  for (int i = 0; i < 8; ++i) batch.push_back(random_series(40, 2, rng));
  const std::vector<const Matrix*> ptrs = series_ptrs(batch);

  BatchedInferenceEngine engine = make_batched_engine(artifact, 8);
  engine.infer(std::span<const Matrix* const>(ptrs));  // warm-up

  const std::size_t before = g_allocations.load();
  double sink = 0.0;
  for (int round = 0; round < 16; ++round) {
    // Vary the batch size: smaller batches must also reuse the scratch.
    const std::size_t lanes = (round % 2 == 0) ? ptrs.size() : 3;
    engine.infer(std::span<const Matrix* const>(ptrs.data(), lanes));
    for (std::size_t l = 0; l < lanes; ++l) {
      sink += engine.lane_logits(l)[0];
      sink += engine.lane_features(l)[0];
      sink += engine.lane_label(l);
    }
  }
  EXPECT_EQ(g_allocations.load() - before, 0u) << "sink=" << sink;
}

// ---- argument validation ----------------------------------------------------

TEST(BatchedEngine, MalformedBatchesThrow) {
  Rng rng(21);
  const LoadedModel model =
      make_model(8, 2, 3, NonlinearityKind::kIdentity, 55);
  const ModelArtifactPtr artifact = model.artifact("m");

  EXPECT_THROW((void)make_batched_engine(artifact, 0), CheckError);
  EXPECT_THROW((void)make_batched_engine(artifact, simd::kBatchedMaxLanes + 1),
               CheckError);

  BatchedInferenceEngine engine = make_batched_engine(artifact, 4);
  const Matrix good = random_series(20, 2, rng);

  // Empty batch.
  EXPECT_THROW(engine.infer(std::span<const Matrix* const>()), CheckError);

  // More lanes than the engine preallocated.
  const Matrix* overflow[] = {&good, &good, &good, &good, &good};
  EXPECT_THROW(engine.infer(std::span<const Matrix* const>(overflow, 5)),
               CheckError);

  // Null lane.
  const Matrix* with_null[] = {&good, nullptr};
  EXPECT_THROW(engine.infer(std::span<const Matrix* const>(with_null, 2)),
               CheckError);

  // Mixed shapes in one batch.
  const Matrix shorter = random_series(10, 2, rng);
  const Matrix* mixed[] = {&good, &shorter};
  EXPECT_THROW(engine.infer(std::span<const Matrix* const>(mixed, 2)),
               CheckError);

  // Channel mismatch and empty series.
  const Matrix wrong_channels = random_series(20, 3, rng);
  const Matrix* bad_ch[] = {&wrong_channels};
  EXPECT_THROW(engine.infer(std::span<const Matrix* const>(bad_ch, 1)),
               CheckError);
  const Matrix empty(0, 2);
  const Matrix* no_rows[] = {&empty};
  EXPECT_THROW(engine.infer(std::span<const Matrix* const>(no_rows, 1)),
               CheckError);

  // Lane accessors refuse indexes beyond the last batch size.
  const Matrix* solo[] = {&good};
  engine.infer(std::span<const Matrix* const>(solo, 1));
  EXPECT_THROW((void)engine.lane_logits(1), CheckError);
  EXPECT_THROW((void)engine.lane_label(1), CheckError);
  EXPECT_THROW((void)engine.lane_features(1), CheckError);
}

// All lane counts up to kBatchedMaxLanes round-trip through infer() — the
// kernels' lane loops handle every main/tail split.
TEST(BatchedEngine, EveryLaneCountUpToMaxWorks) {
  Rng rng(31);
  const LoadedModel model =
      make_model(5, 2, 3, NonlinearityKind::kCubic, 77);
  const ModelArtifactPtr artifact = model.artifact("m");
  for (std::size_t lanes : kLaneCounts) {
    std::vector<Matrix> batch;
    for (std::size_t l = 0; l < lanes; ++l) {
      batch.push_back(random_series(25, 2, rng));
    }
    const std::vector<const Matrix*> ptrs = series_ptrs(batch);
    BatchedInferenceEngine engine = make_batched_engine(artifact, lanes);
    engine.infer(std::span<const Matrix* const>(ptrs));
    for (std::size_t l = 0; l < lanes; ++l) {
      EXPECT_EQ(engine.lane_label(l), reference_float_label(model, batch[l]))
          << "lanes=" << lanes << " lane=" << l;
    }
  }
}

}  // namespace
}  // namespace dfr
