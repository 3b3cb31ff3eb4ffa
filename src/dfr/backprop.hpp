#pragma once
// Backpropagation through DPRR + modular reservoir (paper Sections 3.2-3.4).
//
// Given dL/dr from the output layer, the engine produces dL/dA and dL/dB.
// Two regimes:
//
//  * Full BPTT (Eqs. 23, 30-32): iterates k = T..1 and needs every reservoir
//    state — (T+1)*Nx stored values.
//  * Truncated (Eqs. 33-36), generalized to a window w: only the last w time
//    steps contribute; gradients beyond the window are taken as zero. w = 1
//    is the paper's method (stores just x(T-1), x(T)); w = T recovers full
//    BPTT. The justification is the paper's: the last reservoir state
//    cumulatively reflects the attenuated influence of all earlier states.
//
// Both regimes are one implementation: `backprop_through_dprr` walks the last
// `window` steps of whatever state history it is given. Passing the full
// trajectory with window = T is full BPTT; passing a (w+1)-row tail with
// window = w is the truncated method. `StreamingForward` (and its one-shot
// form `run_forward_truncated`) produces such a tail with O(w * Nx) memory,
// which is what realizes the paper's memory saving (Table 2).
//
// The streaming forward runs on the runtime-dispatched kernel table of
// serve/simd_kernels.hpp, over its padded single-series layout: per time step
// batched_mask, then simd::float_step (preadd_nonlin, then bchain_dprr_add:
// the serial B-chain with each DPRR row accumulated as soon as its node
// exists) — the float serving engine's stages. Every stage performs
// the scalar pipeline's operations in the same order (mask.apply /
// ModularReservoir::step / DprrAccumulator::add), so its dprr, tail states
// and tail inputs are bit-identical to run_forward_full on every backend, and
// so is everything trained from them. It also backs LoadedModel::infer.
// run_forward_full, ModularReservoir::run and dprr_from_states stay scalar:
// they are the oracle, and the full-BPTT path.

#include <cstddef>

#include "dfr/dprr.hpp"
#include "dfr/mask.hpp"
#include "dfr/reservoir.hpp"
#include "serve/simd_kernels.hpp"

namespace dfr {

/// Gradients of the loss w.r.t. the two reservoir parameters.
struct ReservoirGradients {
  double da = 0.0;
  double db = 0.0;
};

/// dL/dA, dL/dB from dL/dr.
///
/// `states`: (m+1) x Nx with rows x(k0-1), x(k0), ..., x(T) for some k0;
///           the last row must be x(T). Full BPTT passes the whole (T+1)-row
///           trajectory (row 0 = x(0) = 0).
/// `j`:      m x Nx, the masked inputs j(k0..T) aligned with `states`.
/// `dr`:     dL/dr, length Nx*(Nx+1).
/// `window`: number of trailing time steps to backpropagate through
///           (1 <= window <= m). Gradients of states older than the window
///           are treated as zero (the truncation approximation).
/// `threads`: pool slots for the O(Nx^2)-per-step feature-contribution pass;
///           node rows are independent, so the gradients are bit-identical
///           for any value. Small reservoirs (the paper's Nx = 30) fall below
///           the scheduling grain and run serially regardless.
ReservoirGradients backprop_through_dprr(const ModularReservoir& reservoir,
                                         const DfrParams& params,
                                         const Matrix& states, const Matrix& j,
                                         std::span<const double> dr,
                                         std::size_t window,
                                         unsigned threads = 1);

/// Full BPTT convenience (window = T).
ReservoirGradients backprop_full(const ModularReservoir& reservoir,
                                 const DfrParams& params, const Matrix& states,
                                 const Matrix& j, std::span<const double> dr,
                                 unsigned threads = 1);

/// Result of a memory-bounded forward pass.
struct TruncatedForward {
  Vector dprr;          // DPRR features r (raw sums, accumulated on the fly)
  Matrix tail_states;   // (min(window,T)+1) x Nx: x(T-w)..x(T)
  Matrix tail_j;        // min(window,T) x Nx:     j(T-w+1)..j(T)
  std::size_t steps = 0;  // T

  /// Reservoir-state values held at any point during the pass (the Table-2
  /// "reservoir state" component): (window+1)*Nx, or (T+1)*Nx if T < window.
  /// The padded ring that produces the tail stores each state at a stride of
  /// simd::padded_nodes(Nx); its pad lanes are alignment, not state, and are
  /// not counted here (StreamingForward::pad_values lists them).
  [[nodiscard]] std::size_t stored_state_values() const noexcept {
    return tail_states.size();
  }
};

/// The memory-lean forward pass the paper's truncated method enables: it
/// keeps only the last (window+1) states and `window` masked inputs, in rings
/// of padded rows, and accumulates the DPRR streamingly into a padded
/// accumulator; combined with backprop_through_dprr it never materializes
/// the full trajectory. One instance owns all scratch (the transposed mask
/// operand, both rings, the accumulator) and reuses it for every series, so
/// a pass performs no heap allocation once `out` has its shape. The trainer
/// keeps one per fit and the batch feature extractor one per worker chunk;
/// not thread-safe.
class StreamingForward {
 public:
  /// Kernels default to simd::active_kernels() (DFR_SIMD / force_backend);
  /// results are bit-identical for every backend.
  StreamingForward(const ModularReservoir& reservoir, const Mask& mask,
                   std::size_t window,
                   const simd::Kernels& kernels = simd::active_kernels());

  /// One series (T x V): raw-sum dprr plus the chronologically ordered tail
  /// (see TruncatedForward), written into `out`, whose storage is reused.
  void run(const DfrParams& params, const Matrix& series, TruncatedForward& out);

  /// Time-averaged DPRR features of one series (dprr_dim(Nx) values; the
  /// same values compute_features and the float engine produce).
  void features_into(const DfrParams& params, const Matrix& series,
                     std::span<double> features);

  /// Pad lanes of the state ring during the last pass: (kept+1) *
  /// (padded_nodes(Nx) - Nx), with kept = min(window, T). Listed apart from
  /// TruncatedForward::stored_state_values, which counts state values only.
  [[nodiscard]] std::size_t pad_values() const noexcept {
    return (kept_ + 1) * (stride_ - nx_);
  }

 private:
  /// Runs the series through the rings; leaves x(T) in ring slot cur_.
  void stream(const DfrParams& params, const Matrix& series);

  Nonlinearity f_;
  const simd::Kernels* kernels_;
  std::size_t nx_;
  std::size_t channels_;
  std::size_t stride_;  // simd::padded_nodes(nx_)
  std::size_t window_;
  std::size_t kept_ = 0;  // min(window, T) of the last pass
  std::size_t cur_ = 0;   // ring slot of x(T) after a pass
  simd::AlignedVector mask_t_;  // transposed padded mask operand
  simd::AlignedVector states_;  // (window+1) padded state rows
  simd::AlignedVector j_;       // window padded masked-input rows
  simd::AlignedVector dprr_;    // padded_dprr_size(Nx) accumulator
};

/// One-shot StreamingForward::run on the active backend.
TruncatedForward run_forward_truncated(const ModularReservoir& reservoir,
                                       const DfrParams& params, const Mask& mask,
                                       const Matrix& series, std::size_t window);

/// Full-trajectory forward pass (states (T+1) x Nx and masked inputs
/// T x Nx), for full BPTT and for tests.
struct FullForward {
  Vector dprr;
  Matrix states;  // (T+1) x Nx
  Matrix j;       // T x Nx

  [[nodiscard]] std::size_t stored_state_values() const noexcept {
    return states.size();
  }
};
FullForward run_forward_full(const ModularReservoir& reservoir,
                             const DfrParams& params, const Mask& mask,
                             const Matrix& series);

}  // namespace dfr
