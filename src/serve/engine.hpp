#pragma once
// Unified streaming inference engine — the single implementation behind every
// deployed datapath (float and fixed-point).
//
// The paper's O(Nx) streaming-inference claim rests on the DPRR accumulator
// form: classification needs only the current and previous reservoir state,
// never the full (T+1) x Nx trajectory. BasicEngine realizes exactly that
// pipeline —
//
//     j(k) = M u(k)  ->  x(k) = step(j(k), x(k-1))  ->  dprr += x(k) x(k-1)^T
//     ->  r = finalize(dprr)  ->  logits = W r + b  ->  argmax
//
// — over per-engine scratch buffers (two state rows ping-ponged through the
// reservoir step, a reused DPRR accumulator, a logits buffer), so classify
// performs ZERO heap allocations in steady state (test_serve.cpp instruments
// operator new to enforce this).
//
// What varies between deployments is captured by a Datapath policy, and
// serving has exactly one per number format, both over the runtime-dispatched
// kernel table of serve/simd_kernels.hpp (whose Backend::kScalar entry is the
// portable path, picked by DFR_SIMD=scalar or simd::force_backend):
//   - SimdFloatDatapath runs the double-precision pipeline of the trained
//     model: the mask and the preadd/nonlinearity vectorize, and the serial
//     B-chain runs fused with the Nx²-per-step DPRR row updates
//     (bchain_dprr_add), whose vector work overlaps the chain's latency.
//   - SimdQuantizedDatapath runs the calibrated fixed-point pipeline of
//     quantized_dfr.hpp: vectorized round-to-format on the masked input,
//     quantized preadd + nonlinearity, the scalar quantized B-chain, then
//     the vector DPRR accumulate (dprr_add), and fused scale+quantize feature
//     finalization.
// Both are bit-identical, on every backend, to references that live
// outside serve/, so an oracle never shares code with what it checks.
// Float: the dfr/ trajectory pipeline (ModularReservoir::run_series +
// compute_representation(kDprr), then the OutputLayer readout). Quantized:
// the plain fixed-point loop of tests/test_support.hpp with
// QuantizedDfr::quantized_readout(). See the contract (and its aarch64
// caveat) in simd_kernels.hpp.
//
// Row layout: the engine keeps the masked input, both state rows and every
// accumulator row at a stride of simd::padded_nodes(Nx) (the padded
// single-series layout of simd_kernels.hpp). Each datapath step advances the
// state and accumulates it into the padded accumulator; the engine then
// gathers the Nx x Nx block and the node sums out of it into the feature
// vector.
//
// Ownership: the float datapaths hold a reference-counted ModelArtifactPtr
// (see model_io.hpp), so an engine keeps its model alive for as long as the
// engine exists — the multi-model registry can hot-swap or evict an
// artifact while engines built on the old one keep serving it safely. Only
// the QuantizedDfr& constructor of SimdQuantizedDatapath borrows: there the
// caller owns the weights.
//
// Training and LoadedModel::infer do not run through these engines. They
// share StreamingForward (dfr/backprop.hpp): the same padded layout, kernel
// table and float step (simd::float_step: preadd_nonlin, then
// bchain_dprr_add) as SimdFloatDatapath, so its features equal the engine's
// bit for bit.
//
// Threading: one engine serves one stream; engines share the immutable model
// and are cheap to create, so batch serving makes one engine per worker.
// classify_batch does precisely that on top of util/parallel.hpp, with
// deterministic output ordering for any thread count.

#include <concepts>
#include <memory>
#include <span>
#include <vector>

#include "dfr/dprr.hpp"
#include "dfr/model_io.hpp"
#include "dfr/reservoir.hpp"
#include "fixedpoint/quantized_dfr.hpp"
#include "serve/simd_kernels.hpp"

namespace dfr {

/// What a datapath must provide for the shared streaming pipeline: the model
/// shape, the masked-input transform, one reservoir time step with its DPRR
/// accumulate (step(j, x_prev, x_out, dprr) over padded rows and a
/// padded_dprr_size(nodes()) accumulator), the feature finalization (time
/// averaging plus any datapath-specific scaling / quantization), and the
/// readout.
template <typename P>
concept InferenceDatapath =
    requires(const P& p, std::span<const double> in, std::span<double> out,
             Vector& r, std::size_t t_len) {
      { p.nodes() } -> std::convertible_to<std::size_t>;
      { p.channels() } -> std::convertible_to<std::size_t>;
      { p.mask_into(in, out) };
      { p.step(in, in, out, out) };
      { p.finalize(r, t_len) };
      { p.readout() } -> std::convertible_to<const OutputLayer&>;
    };

/// Float datapath over runtime-dispatched SIMD kernels. Executes the
/// trajectory pipeline's operations through serve/simd_kernels.hpp: the
/// input mask, the masked-input preadd and nonlinearity, and the serial
/// B-chain fused with the DPRR accumulate (simd::float_step). Rows use the
/// padded layout (see the engine header comment): mask_into writes
/// simd::padded_nodes(nodes()) entries; step writes only the first nodes()
/// entries of x_out, leaves its pad lanes alone, and accumulates
/// x_out x_prev^T into the padded accumulator.
/// Bit-identical to the scalar trajectory pipeline (dfr/reservoir.hpp +
/// dfr/representation.hpp) on every backend. Shares ownership of the model.
class SimdFloatDatapath {
 public:
  /// The default backend is the active one (simd::active_backend(), i.e.
  /// best available unless DFR_SIMD / force_backend overrode it); an
  /// explicit one has kernels_for semantics (throws when unavailable).
  explicit SimdFloatDatapath(ModelArtifactPtr model,
                             simd::Backend backend = simd::active_backend());

  [[nodiscard]] std::size_t nodes() const noexcept { return artifact_->mask.nodes(); }
  [[nodiscard]] std::size_t channels() const noexcept { return artifact_->mask.channels(); }
  [[nodiscard]] simd::Backend backend() const noexcept { return kernels_->backend; }
  void mask_into(std::span<const double> input, std::span<double> j) const;
  void step(std::span<const double> j, std::span<const double> x_prev,
            std::span<double> x_out, std::span<double> dprr) const;
  void finalize(Vector& r, std::size_t t_len) const;
  [[nodiscard]] const OutputLayer& readout() const noexcept {
    return artifact_->readout;
  }
  [[nodiscard]] const ModelArtifactPtr& artifact() const noexcept {
    return artifact_;
  }

 private:
  ModelArtifactPtr artifact_;  // keepalive
  simd::AlignedVector mask_t_;  // transposed mask: channels x padded_nodes
  const simd::Kernels* kernels_;
};

/// Calibrated fixed-point datapath over runtime-dispatched SIMD kernels.
/// Executes the scalar fixed-point pipeline with the vectorizable
/// stages (masked-input round-to-format, quantized preadd + nonlinearity,
/// DPRR row updates, feature scale+quantize) routed through
/// serve/simd_kernels.hpp; the quantized B-chain (which serializes through
/// the per-node round-to-format) stays a scalar pass, and step runs it
/// before dprr_add. Rows use the same
/// padded layout as SimdFloatDatapath. Every stage is BIT-IDENTICAL to the
/// scalar fixed-point reference loop (tests/test_support.hpp) on every
/// backend (see the contract in simd_kernels.hpp; asserted EXPECT_EQ-strict
/// by test_simd_quant.cpp). The shared_ptr
/// constructors share ownership; the reference constructors borrow and the
/// QuantizedDfr must outlive the datapath.
class SimdQuantizedDatapath {
 public:
  /// Borrows `model`. The default backend is the active one
  /// (simd::active_backend()); an explicit one has kernels_for semantics
  /// (throws CheckError when unavailable).
  explicit SimdQuantizedDatapath(
      const QuantizedDfr& model,
      simd::Backend backend = simd::active_backend());

  /// Shares ownership of `model`.
  explicit SimdQuantizedDatapath(
      std::shared_ptr<const QuantizedDfr> model,
      simd::Backend backend = simd::active_backend());

  [[nodiscard]] std::size_t nodes() const noexcept { return mask_->nodes(); }
  [[nodiscard]] std::size_t channels() const noexcept { return mask_->channels(); }
  [[nodiscard]] simd::Backend backend() const noexcept { return kernels_->backend; }
  void mask_into(std::span<const double> input, std::span<double> j) const;
  void step(std::span<const double> j, std::span<const double> x_prev,
            std::span<double> x_out, std::span<double> dprr) const;
  void finalize(Vector& r, std::size_t t_len) const;
  [[nodiscard]] const OutputLayer& readout() const noexcept { return *readout_; }

 private:
  std::shared_ptr<const QuantizedDfr> owner_;  // keepalive; null when borrowing
  const Mask* mask_;
  simd::AlignedVector mask_t_;  // transposed mask: channels x padded_nodes
  DfrParams params_;
  Nonlinearity f_;
  FixedPointFormat state_format_;
  FixedPointFormat feature_format_;
  double state_scale_ = 1.0;    // states divided by this (power of two)
  double feature_scale_ = 1.0;  // residual feature prescaler (power of two)
  const simd::Kernels* kernels_;
  const OutputLayer* readout_;
};

/// Batched (SoA) float datapath: the stage set BatchedEngine drives over up
/// to simd::kBatchedMaxLanes concurrent series transposed into
/// structure-of-arrays form (state buffers indexed [node*lanes + lane]).
/// Every vector operation spans independent lanes, so the B-chain that
/// serializes the single-series SIMD path vectorizes ACROSS requests and
/// lanes stay full at any Nx. Per lane, bit-identical to the scalar
/// trajectory pipeline and to the single-series SIMD engine on every
/// backend (the contract in simd_kernels.hpp). Shares ownership of the
/// artifact.
class BatchedFloatDatapath {
 public:
  /// Default: the active backend (simd::active_backend()); an explicit one
  /// has kernels_for semantics (throws when unavailable).
  explicit BatchedFloatDatapath(ModelArtifactPtr model,
                                simd::Backend backend = simd::active_backend());

  [[nodiscard]] std::size_t nodes() const noexcept { return artifact_->mask.nodes(); }
  [[nodiscard]] std::size_t channels() const noexcept { return artifact_->mask.channels(); }
  [[nodiscard]] simd::Backend backend() const noexcept { return kernels_->backend; }
  /// Batched input mask over one time step's SoA input block
  /// (`u[v*lanes + l]` = lane l's channel v): j[i*lanes + l] accumulates
  /// in the scalar dot() order per lane, so the stage is bit-identical to
  /// the unbatched mask on every backend.
  void mask_soa(const double* u, double* j, std::size_t lanes) const;
  /// Post-mask masked-input transform over the whole SoA block
  /// (`count` = nx*lanes). No-op for the float family.
  void quantize_masked(double* j, std::size_t count) const;
  /// Elementwise preadd + nonlinearity over the whole SoA block.
  void preadd(const double* j, const double* x_prev, double* x_out,
              std::size_t count) const;
  /// Cross-lane-vectorized B-chain (see BatchedBChainFn).
  void bchain(const double* head, double* x, std::size_t nx,
              std::size_t lanes) const;
  /// Feature finalization over the whole SoA block (`count` =
  /// dprr_dim(nx)*lanes).
  void finalize(double* r, std::size_t count, std::size_t t_len) const;
  [[nodiscard]] const simd::Kernels& kernels() const noexcept { return *kernels_; }
  [[nodiscard]] const OutputLayer& readout() const noexcept {
    return artifact_->readout;
  }
  [[nodiscard]] const ModelArtifactPtr& artifact() const noexcept {
    return artifact_;
  }

 private:
  ModelArtifactPtr artifact_;  // keepalive
  const simd::Kernels* kernels_;
};

/// Batched (SoA) fixed-point datapath: the quantized twin of
/// BatchedFloatDatapath — every stage rounds exactly like the scalar
/// fixed-point reference loop per lane, so batched quantized lanes are
/// BIT-IDENTICAL to the scalar pipeline on every backend (asserted
/// EXPECT_EQ-strict by test_batched.cpp). Shares ownership of the
/// calibrated model.
class BatchedQuantizedDatapath {
 public:
  /// Default: the active backend (simd::active_backend()); an explicit one
  /// has kernels_for semantics (throws when unavailable).
  explicit BatchedQuantizedDatapath(
      std::shared_ptr<const QuantizedDfr> model,
      simd::Backend backend = simd::active_backend());

  [[nodiscard]] std::size_t nodes() const noexcept { return mask_->nodes(); }
  [[nodiscard]] std::size_t channels() const noexcept { return mask_->channels(); }
  [[nodiscard]] simd::Backend backend() const noexcept { return kernels_->backend; }
  void mask_soa(const double* u, double* j, std::size_t lanes) const;
  /// Vectorized round-to-state-format over the whole SoA block.
  void quantize_masked(double* j, std::size_t count) const;
  void preadd(const double* j, const double* x_prev, double* x_out,
              std::size_t count) const;
  void bchain(const double* head, double* x, std::size_t nx,
              std::size_t lanes) const;
  void finalize(double* r, std::size_t count, std::size_t t_len) const;
  [[nodiscard]] const simd::Kernels& kernels() const noexcept { return *kernels_; }
  [[nodiscard]] const OutputLayer& readout() const noexcept { return *readout_; }

 private:
  std::shared_ptr<const QuantizedDfr> owner_;  // keepalive
  const Mask* mask_;
  DfrParams params_;
  Nonlinearity f_;
  FixedPointFormat state_format_;
  FixedPointFormat feature_format_;
  double state_scale_ = 1.0;    // states divided by this (power of two)
  double feature_scale_ = 1.0;  // residual feature prescaler (power of two)
  const simd::Kernels* kernels_;
  const OutputLayer* readout_;
};

/// Cross-request batched engine: runs one series per lane through the SoA
/// pipeline, up to `max_lanes` lanes per call. All scratch (SoA state
/// blocks, the DPRR block, per-lane logits) is preallocated for `max_lanes`
/// at construction, so infer() performs zero heap allocations in steady
/// state regardless of the batch size actually submitted. Lanes are
/// independent: lane l's results depend only on series[l] (asserted by
/// test_batched.cpp against varying batchmates). One engine per worker; not
/// thread-safe.
template <typename P>
class BatchedEngine {
 public:
  /// `max_lanes` in [1, simd::kBatchedMaxLanes].
  BatchedEngine(P datapath, std::size_t max_lanes);

  /// Run series[l] through lane l. All pointers must be non-null and every
  /// series must share one (rows, cols) shape with cols == channels()
  /// (the server's micro-batcher only coalesces same-shape requests).
  /// Throws CheckError otherwise. Results are read per lane via
  /// lane_logits/lane_label and stay valid until the next infer() call.
  void infer(std::span<const Matrix* const> series);

  /// Lane l's logits from the last infer() (lane < that call's batch size).
  [[nodiscard]] std::span<const double> lane_logits(std::size_t lane) const;

  /// Lane l's argmax label from the last infer().
  [[nodiscard]] int lane_label(std::size_t lane) const;

  /// Lane l's finalized feature vector, gathered from the SoA block into a
  /// shared scratch row: the span is invalidated by the next lane_features
  /// or infer call. Exposed for equivalence tests.
  [[nodiscard]] std::span<const double> lane_features(std::size_t lane);

  [[nodiscard]] std::size_t max_lanes() const noexcept { return max_lanes_; }
  [[nodiscard]] const P& datapath() const noexcept { return datapath_; }

 private:
  P datapath_;
  std::size_t max_lanes_;
  std::size_t batch_size_ = 0;  // lanes used by the last infer()
  Vector u_soa_;       // SoA raw-input block, size channels*max_lanes
  Vector j_;           // SoA masked-input block, size Nx*max_lanes
  Vector x_prev_;      // SoA x(k-1) block, ping-ponged with x_cur_
  Vector x_cur_;       // SoA x(k) block
  Vector r_;           // SoA DPRR block, size dprr_dim(Nx)*max_lanes
  Vector feat_;        // per-lane gather row, size dprr_dim(Nx)
  Vector logits_;      // per-lane logits, size Ny*max_lanes
  std::vector<int> labels_;  // per-lane argmax, size max_lanes
};

using BatchedInferenceEngine = BatchedEngine<BatchedFloatDatapath>;
using BatchedQuantizedInferenceEngine = BatchedEngine<BatchedQuantizedDatapath>;

extern template class BatchedEngine<BatchedFloatDatapath>;
extern template class BatchedEngine<BatchedQuantizedDatapath>;

/// Batched float engine sharing ownership of an immutable artifact, on the
/// active backend (or an explicit one).
[[nodiscard]] BatchedInferenceEngine make_batched_engine(
    ModelArtifactPtr model, std::size_t max_lanes,
    simd::Backend backend = simd::active_backend());

/// Batched quantized engine sharing ownership of a calibrated model.
/// Bit-identical per-lane results to the scalar fixed-point reference.
[[nodiscard]] BatchedQuantizedInferenceEngine make_batched_engine(
    std::shared_ptr<const QuantizedDfr> model, std::size_t max_lanes,
    simd::Backend backend = simd::active_backend());

/// The streaming engine: owns all scratch, classifies with zero steady-state
/// heap allocations. One engine per stream/worker; not thread-safe.
template <InferenceDatapath P>
class BasicEngine {
 public:
  explicit BasicEngine(P datapath);

  /// Finalized feature vector (DPRR, time-averaged, datapath-scaled) for one
  /// series (T x V). The span aliases engine scratch: valid until the next
  /// call on this engine.
  std::span<const double> features(const Matrix& series);

  /// Logits for one series. Span aliases engine scratch.
  std::span<const double> infer(const Matrix& series);

  /// Argmax class for one series. Zero heap allocations.
  int classify(const Matrix& series);

  /// Softmax class probabilities (allocates the returned vector).
  Vector probabilities(const Matrix& series);

  [[nodiscard]] const P& datapath() const noexcept { return datapath_; }

 private:
  P datapath_;
  std::size_t row_;              // padded_nodes(Nx)
  simd::AlignedVector j_;       // masked input row, size row_
  simd::AlignedVector x_prev_;  // x(k-1), ping-ponged with x_cur_
  simd::AlignedVector x_cur_;   // x(k)
  Vector r_;                    // finalized features, size Nx*(Nx+1)
  Vector logits_;               // size Ny
  simd::AlignedVector dprr_;  // padded accumulator, padded_dprr_size(Nx)
};

using SimdInferenceEngine = BasicEngine<SimdFloatDatapath>;
using SimdQuantizedInferenceEngine = BasicEngine<SimdQuantizedDatapath>;

extern template class BasicEngine<SimdFloatDatapath>;
extern template class BasicEngine<SimdQuantizedDatapath>;

/// SIMD engine sharing ownership of an immutable artifact. The default
/// backend is the active one; an explicit backend throws CheckError when
/// unavailable.
[[nodiscard]] SimdInferenceEngine make_simd_engine(
    ModelArtifactPtr model, simd::Backend backend = simd::active_backend());

/// SIMD quantized engine over a calibrated model (model must outlive the
/// engine). Bit-identical results on every backend — the quantized SIMD
/// contract.
[[nodiscard]] SimdQuantizedInferenceEngine make_simd_engine(
    const QuantizedDfr& model, simd::Backend backend = simd::active_backend());

/// SIMD quantized engine sharing ownership of a calibrated model.
[[nodiscard]] SimdQuantizedInferenceEngine make_simd_engine(
    std::shared_ptr<const QuantizedDfr> model,
    simd::Backend backend = simd::active_backend());

/// Classify a batch of series on the SIMD datapath of the model's number
/// format, with the active backend resolved once per call. Workers each own
/// one engine and a contiguous chunk; out[i] depends only on series[i], so
/// the result is bit-identical and identically ordered for any `threads`
/// value (0 = all cores, 1 = serial — the util/parallel.hpp convention). The
/// artifact overload shares one immutable model across all worker engines;
/// the LoadedModel overloads snapshot the model once per call.
std::vector<int> classify_batch(const ModelArtifactPtr& model,
                                std::span<const Matrix> series,
                                unsigned threads = 0);
std::vector<int> classify_batch(const LoadedModel& model,
                                std::span<const Matrix> series,
                                unsigned threads = 0);
std::vector<int> classify_batch(const QuantizedDfr& model,
                                std::span<const Matrix> series,
                                unsigned threads = 0);

/// Dataset convenience overloads (classify every sample's series).
std::vector<int> classify_batch(const ModelArtifactPtr& model,
                                const Dataset& data, unsigned threads = 0);
std::vector<int> classify_batch(const LoadedModel& model, const Dataset& data,
                                unsigned threads = 0);
std::vector<int> classify_batch(const QuantizedDfr& model, const Dataset& data,
                                unsigned threads = 0);

}  // namespace dfr
