#pragma once
// SIMD kernels for the reservoir-step datapath, with runtime CPU dispatch.
//
// The per-step serving cost splits into four stages:
//
//   * the input mask                            j(k) = M u(k)
//   * the masked-input preadd and nonlinearity  v_n = A * f~( j(k)_n + x(k-1)_n )
//   * the B-chain                               x(k)_n = v_n + B * x(k)_{n-1}
//   * the DPRR accumulator row updates          r[i][j] += x(k)_i * x(k-1)_j
//     (Nx^2 multiply-adds per time step — the dominant serving cost)
//
// The mask, the preadd/nonlinearity and the DPRR update are data-parallel
// across the Nx virtual nodes and vectorize. The B-chain serializes on its
// own output; the float step fuses it with the DPRR update
// (bchain_dprr_add), so row n accumulates as soon as node n exists and the
// accumulate's vector work runs under the chain's latency (float_step below).
//
// Padded single-series layout. The single-series SIMD datapaths keep every
// per-node row — the masked input j, the states x(k) and x(k-1), and each
// row of the DPRR accumulator — at a row stride of padded_nodes(Nx): Nx
// rounded up to kRowAlign = 8 doubles, a multiple of every backend's vector
// width (AVX-512 8, AVX2 4, NEON 2), in 64-byte aligned buffers. The
// single-series mask and DPRR kernels therefore run whole, aligned vectors
// only. That is what makes the vector width pay off at serving sizes: with
// Nx = 30, a row that ends in a masked (AVX-512) or scalar (AVX2) remainder
// runs the DPRR update no faster than scalar code, and a mask evaluated as
// one dot() of length V per node never fills a vector at all. Pad lanes
// start at zero (the pad columns of the transposed mask are zero, and the
// B-chain never writes past Nx) and never reach features or logits: the
// engine gathers only the Nx x Nx block and the Nx node sums out of the
// padded accumulator. Each lane computes independently of every other, so
// even NaN in a pad lane cannot leak into a real one.
//
// Backends are selected at RUNTIME, not by compile flags: the ISA-specific
// translation units (simd_kernels_avx2.cpp, simd_kernels_avx512.cpp,
// simd_kernels_neon.cpp) are built with per-file arch flags and register
// themselves; dispatch picks the best kernel set the running CPU supports.
// The `DFR_SIMD` environment variable (`scalar`, `avx2`, `avx512`, or
// `neon`, read once at first use) or force_backend() (tests) override the
// choice; forcing an unavailable backend throws CheckError.
//
// Equivalence contract — one for every pipeline on the table (float serving,
// batched serving, training, quantized): every kernel performs the scalar
// pipeline's operations in its order, so results are BIT-IDENTICAL to the
// scalar references on every backend. Padding changes where values live,
// never which operations an element sees or in what order.
//   * The mask stage keeps dot()'s evaluation order per node — start at
//     0.0, add w*u one channel at a time in ascending order, separate
//     multiply and add.
//   * The preadd/nonlinearity stage performs the same IEEE-754 operations
//     lane-wise, and the B-chain (bchain_dprr_add) one multiply and one add
//     per node in node order.
//   * The DPRR accumulate rounds twice per accumulate — a separate multiply
//     and add, exactly like DprrAccumulator::add.
//   * No kernel uses FMA: the ISA translation units are compiled with
//     -ffp-contract=off and call no fused intrinsic.
// Float results therefore equal the dfr/ trajectory pipeline
// (ModularReservoir::run_series + compute_representation(kDprr), then the
// OutputLayer readout), which shares no code with serve/; quantized results
// equal the plain fixed-point loop of tests/test_support.hpp (Mask::apply,
// FixedPointFormat::quantize, DprrAccumulator) with
// QuantizedDfr::quantized_readout(). The quantized round-to-format is exact
// lane-wise: scaling by a power of two rounds identically whether done by
// multiply or divide, vector round-to-nearest matches std::nearbyint under
// the current rounding mode, and saturation compares reproduce the scalar
// clamp. Asserted EXPECT_EQ-strict by test_simd.cpp, test_simd_quant.cpp,
// test_batched.cpp, test_serve.cpp, test_backprop.cpp and test_trainer.cpp.
// Caveat: on aarch64 the compiler may FMA-contract the *scalar reference*
// itself (baseline code there has FMA), so the tests hold aarch64 to a
// rounding-level tolerance instead; x86-64 baseline code cannot contract.
//
// Training (StreamingForward, dfr/backprop.hpp) and LoadedModel::infer run
// the float stages over the padded layout through the same table —
// batched_mask, then float_step (preadd_nonlin, bchain_dprr_add) — so
// trained models and the serving engines see the same features.

#include <cstddef>
#include <new>
#include <string>
#include <vector>

#include "dfr/nonlinearity.hpp"
#include "dfr/reservoir.hpp"
#include "fixedpoint/fixed.hpp"

namespace dfr::simd {

enum class Backend { kScalar, kAvx2, kNeon, kAvx512 };

/// "scalar" / "avx2" / "neon" / "avx512".
[[nodiscard]] const char* backend_name(Backend backend) noexcept;

/// Inverse of backend_name. Throws CheckError on unknown names.
[[nodiscard]] Backend parse_backend(const std::string& name);

/// Non-throwing parse: true and sets `out` on a recognized name.
[[nodiscard]] bool try_parse_backend(const std::string& name,
                                     Backend& out) noexcept;

/// v[n] = a * f~( j[n] + x_prev[n] ) for n in [0, nx). `out` must not alias
/// the inputs. The B-chain term is NOT applied here (it serializes; see
/// float_step).
using PreaddNonlinFn = void (*)(const Nonlinearity& f, double a,
                                const double* j, const double* x_prev,
                                double* out, std::size_t nx);

/// Row alignment of the padded single-series layout, in doubles: a multiple
/// of every backend's vector width.
inline constexpr std::size_t kRowAlign = 8;

/// Row stride of the padded single-series layout: nx rounded up to a
/// multiple of kRowAlign.
[[nodiscard]] constexpr std::size_t padded_nodes(std::size_t nx) noexcept {
  return (nx + kRowAlign - 1) / kRowAlign * kRowAlign;
}

/// Allocator for padded-layout buffers: storage starts on a kRowAlign-double
/// (64-byte) boundary, so with a row stride of padded_nodes(nx) every row
/// starts on a cache line and no vector load or store splits one.
template <typename T>
struct RowAllocator {
  using value_type = T;
  static constexpr std::align_val_t kAlign{kRowAlign * sizeof(double)};

  RowAllocator() = default;
  template <typename U>
  RowAllocator(const RowAllocator<U>&) noexcept {}

  [[nodiscard]] T* allocate(std::size_t n) {
    return static_cast<T*>(::operator new(n * sizeof(T), kAlign));
  }
  void deallocate(T* p, std::size_t) noexcept { ::operator delete(p, kAlign); }

  friend bool operator==(const RowAllocator&, const RowAllocator&) = default;
};

/// A row-aligned double buffer of the padded layout.
using AlignedVector = std::vector<double, RowAllocator<double>>;

/// The single-series mask operand of the padded layout: the Nx x V mask
/// transposed to V x padded_nodes(Nx), zero in the pad columns, so one row
/// spans every node of one input channel.
/// batched_mask(u, 1, V, operand, j, padded_nodes(Nx)) then computes j = M u
/// with the nodes across the vector lanes (see BatchedMaskFn).
[[nodiscard]] AlignedVector transposed_padded_mask(const Mask& mask);

/// Size of a padded DPRR accumulator: nx cross-product rows plus one
/// node-sum row, each padded_nodes(nx) wide.
[[nodiscard]] constexpr std::size_t padded_dprr_size(std::size_t nx) noexcept {
  return (nx + 1) * padded_nodes(nx);
}

/// Streaming DPRR accumulate over the padded layout (stride =
/// padded_nodes(nx)): r[i*stride + j] += x_k[i] * x_km1[j] for i < nx and
/// r[nx*stride + j] += x_k[j], for every j < nx. `x_k` and `x_km1` hold
/// `stride` entries and `r` holds padded_dprr_size(nx). Kernels may also
/// update the pad columns j in [nx, stride) from the pad lanes of the
/// inputs; those columns never reach features.
using DprrAddFn = void (*)(double* r, const double* x_k, const double* x_km1,
                           std::size_t nx, std::size_t stride);

/// The float B-chain fused with the DPRR accumulate of one time step, over
/// the padded layout (stride = padded_nodes(nx)). On entry x[n] holds the
/// preadd/nonlinearity output v_n. The kernel runs the chain
/// x[n] = v_n + b * x[n-1] in node order, with x[-1] = x_prev[nx-1], and as
/// soon as x[n] exists accumulates DPRR row n:
/// r[n*stride + c] += x[n] * x_prev[c] for c < stride. The node-sum row
/// r[nx*stride + c] += x[c] is added last. Every element sees one multiply
/// and one add, exactly the operations of ModularReservoir::step and
/// DprrAccumulator::add, so the result is bit-identical to the chain
/// followed by dprr_add. Interleaving the two loops lets the accumulate's
/// vector work run under the chain's serial latency. Pad lanes
/// of `x` are never written; pad columns of `r` see only pad lanes of
/// `x_prev`. `x` must not alias `x_prev` or `r`.
using BChainDprrAddFn = void (*)(double b, const double* x_prev, double* x,
                                 double* r, std::size_t nx,
                                 std::size_t stride);

/// In-place vector round-to-format: v[i] = fmt.quantize(v[i] * scale) for i
/// in [0, n). Bit-identical to calling FixedPointFormat::quantize per
/// element (round-to-nearest under the current rounding mode, saturation to
/// the two's-complement range, NaN -> 0). Serves both quantized stages that
/// are a pure elementwise scale+round: the masked-input quantization
/// (scale = 1/state_scale) and the feature finalization
/// (scale = dprr_time_scale(T)/feature_scale).
using ScaleQuantizeFn = void (*)(const FixedPointFormat& fmt, double scale,
                                 double* values, std::size_t n);

/// Quantized masked-input preadd + nonlinearity:
/// out[n] = a * f~( fmt.quantize(j[n] + x_prev[n]) ). The quantized B-chain
/// (with its per-node round-to-format) serializes and stays a scalar pass —
/// see SimdQuantizedDatapath::step.
using QuantPreaddNonlinFn = void (*)(const Nonlinearity& f, double a,
                                     const FixedPointFormat& fmt,
                                     const double* j, const double* x_prev,
                                     double* out, std::size_t nx);

// ---- batched (SoA, one lane per concurrent series) kernel family -----------
//
// The single-series kernels above vectorize WITHIN one series, so the B-chain
// serializes and Nx < vector-width reservoirs leave lanes empty. The batched
// family transposes up to kBatchedMaxLanes concurrent series into
// structure-of-arrays form — state buffers are indexed [node*lanes + lane],
// DPRR accumulators [(i*nx + j)*lanes + lane] — so every vector operation
// spans INDEPENDENT series: the per-node B-chain dependence crosses rows,
// never lanes, and lanes stay full at any Nx.
//
// Per lane the batched kernels perform the single-series operations in the
// same order — batched_bchain and batched_quant_bchain one multiply and one
// add per node, batched_dprr_add two roundings per accumulate — so every
// lane, float or quantized, is bit-identical to its scalar reference and to
// the single-series engine on every backend (the contract above, with its
// aarch64 caveat; asserted EXPECT_EQ-strict by test_batched.cpp).
// The elementwise stages (preadd_nonlin, quant_preadd_nonlin,
// scale_quantize) are reused unchanged over nx*lanes-element SoA blocks —
// they are pure per-element maps, so the SoA layout cannot change rounding.

/// Hard cap on concurrent lanes a batched engine transposes into SoA form.
/// ServerConfig::max_batch is validated against it at server construction.
inline constexpr std::size_t kBatchedMaxLanes = 16;

/// Batched SoA B-chain over `lanes` independent series. On entry
/// x[n*lanes + l] holds the preadd/nonlinearity output v_n for lane l and
/// head[l] holds lane l's previous-step closing state x(k-1)_{Nx}; on exit
/// x[n*lanes + l] = x(k)_n for lane l via x_n = v_n + b * x_{n-1} (one
/// multiply, one add per node — never FMA, so each lane rounds exactly like
/// the scalar B-chain). `head` must not alias `x`.
using BatchedBChainFn = void (*)(double b, const double* head, double* x,
                                 std::size_t nx, std::size_t lanes);

/// Quantized twin of BatchedBChainFn: x_n = fmt.quantize(v_n + b * x_{n-1})
/// per lane, bit-identical to the scalar quantized B-chain.
using BatchedQuantBChainFn = void (*)(double b, const FixedPointFormat& fmt,
                                      const double* head, double* x,
                                      std::size_t nx, std::size_t lanes);

/// Batched SoA DPRR accumulate: for every lane l,
/// r[(i*nx + j)*lanes + l] += x_k[i*lanes + l] * x_km1[j*lanes + l] and
/// r[(nx*nx + i)*lanes + l] += x_k[i*lanes + l]. `r` holds
/// dprr_dim(nx) * lanes entries. Rounds twice per accumulate, like
/// DprrAccumulator::add.
using BatchedDprrAddFn = void (*)(double* r, const double* x_k,
                                  const double* x_km1, std::size_t nx,
                                  std::size_t lanes);

/// Batched SoA input mask: for every lane l,
/// j[i*lanes + l] = sum_v weights[i*channels + v] * u[v*lanes + l],
/// accumulated from 0.0 in ascending v with separate multiply and add
/// (never FMA). That is exactly the scalar Mask::apply_into -> matvec_into
/// -> dot() evaluation order per lane, so every lane is bit-identical to
/// the unbatched mask stage regardless of backend. The kernel is the
/// product J = W U of an nx x channels matrix W and a channels x lanes
/// matrix U; the single-series SIMD datapaths run their mask through it
/// too, as the 1-row product u(k)^T M^T with `weights` = u(k), `u` = the
/// transposed, zero-padded mask (channels x padded_nodes(Nx)) and `lanes` =
/// padded_nodes(Nx), so nodes fill the vector lanes (w*u and u*w round
/// identically).
using BatchedMaskFn = void (*)(const double* weights, std::size_t nx,
                               std::size_t channels, const double* u,
                               double* j, std::size_t lanes);

/// One backend's kernel set. Pointers are non-null and valid for the process
/// lifetime. Every pipeline — float and quantized, single-series and
/// batched, serving and training — runs on this one table.
struct Kernels {
  Backend backend;
  PreaddNonlinFn preadd_nonlin;
  DprrAddFn dprr_add;
  BChainDprrAddFn bchain_dprr_add;
  ScaleQuantizeFn scale_quantize;
  QuantPreaddNonlinFn quant_preadd_nonlin;
  BatchedBChainFn batched_bchain;
  BatchedQuantBChainFn batched_quant_bchain;
  BatchedDprrAddFn batched_dprr_add;
  BatchedMaskFn batched_mask;
};

/// True when `backend` can run on this CPU *and* its kernels were compiled
/// into this binary (the ISA translation units compile to stubs on foreign
/// architectures or when DFR_SIMD_KERNELS=OFF). kScalar is always available.
[[nodiscard]] bool backend_available(Backend backend) noexcept;

/// Highest-throughput available backend on this CPU.
[[nodiscard]] Backend best_backend() noexcept;

/// The backend every serving datapath runs: best_backend() unless overridden
/// by the DFR_SIMD environment variable (read once at first use) or
/// force_backend(). A DFR_SIMD value that is unrecognized (e.g. `avx999`)
/// or unavailable on this host/build (e.g. `avx512` on a CPU without it)
/// never degrades silently: one warning naming the value and the backend
/// actually selected is logged (util/log.hpp) and dispatch falls back to
/// best_backend().
[[nodiscard]] Backend active_backend();

/// Override the active backend (testing / benchmarking). Throws CheckError
/// when `backend` is unavailable. Not synchronized against concurrent engine
/// construction — call from a single thread before fan-out.
void force_backend(Backend backend);

/// Kernel set for an explicit backend. Throws CheckError when unavailable.
[[nodiscard]] const Kernels& kernels_for(Backend backend);

/// Kernel set for active_backend().
[[nodiscard]] const Kernels& active_kernels();

/// One float reservoir step plus its DPRR accumulate, over padded rows
/// (stride = padded_nodes(nx)), shared by the serving engine
/// (SimdFloatDatapath::step) and the training forward (StreamingForward):
/// x_out[n] = A * f~(j[n] + x_prev[n]) + B * x_out[n-1] for n < nx, with
/// x_out[-1] = x_prev[nx-1], then r += x_out x_prev^T plus the node sums.
/// The data-parallel preadd/nonlinearity and the fused B-chain + accumulate
/// (bchain_dprr_add) run on `kernels`; each performs ModularReservoir::step's
/// and DprrAccumulator::add's operations in their order, so the step is
/// bit-identical to them. Pad lanes of `x_out` are never written. `x_out`
/// must not alias `j`, `x_prev` or `r`.
inline void float_step(const Kernels& kernels, const Nonlinearity& f,
                       const DfrParams& params, const double* j,
                       const double* x_prev, double* x_out, double* r,
                       std::size_t nx, std::size_t stride) {
  kernels.preadd_nonlin(f, params.a, j, x_prev, x_out, nx);
  kernels.bchain_dprr_add(params.b, x_prev, x_out, r, nx, stride);
}

namespace detail {
/// Registration hooks defined by the ISA translation units; each returns
/// nullptr when its TU was compiled without the matching arch flags.
[[nodiscard]] const Kernels* avx2_kernels() noexcept;
[[nodiscard]] const Kernels* neon_kernels() noexcept;
[[nodiscard]] const Kernels* avx512_kernels() noexcept;

/// Pure resolution of a DFR_SIMD override value: the requested backend when
/// it is recognized AND available, best_backend() otherwise. When falling
/// back, `warning` (if non-null) receives a one-line message naming the
/// rejected value and the backend actually selected; it is left empty when
/// the request is honored. Exposed so tests can exercise the fallback
/// without re-running process initialization (the env variable is read once).
[[nodiscard]] Backend resolve_env_backend(const char* value,
                                          std::string* warning);
}  // namespace detail

}  // namespace dfr::simd
