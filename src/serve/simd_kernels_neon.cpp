// NEON (Advanced SIMD) kernel set for aarch64, where 2-lane double vectors
// are architecturally guaranteed. Compiled with -ffp-contract=off per-file
// (see the root CMakeLists) so no multiply and add fuses: every kernel
// performs the scalar pipeline's operations in its order (see the contract
// in simd_kernels.hpp). Compiles to a nullptr stub on other architectures,
// mirroring simd_kernels_avx2.cpp.
#include "serve/simd_kernels.hpp"

#if defined(DFR_SIMD_KERNELS_ISA) && defined(__aarch64__) && defined(__ARM_NEON)

#include <arm_neon.h>

#include <cmath>

namespace dfr::simd {
namespace {

constexpr std::size_t kWidth = 2;  // doubles per float64x2_t

/// Vector twin of FixedPointFormat::quantize, bit-identical lane-wise:
/// multiply by 1/resolution (scaling by an exact power of two rounds
/// identically to the scalar's division by resolution), vrndiq_f64 (round
/// to integral, current mode == std::nearbyint), multiply back, clamp to
/// [-max-res, max], and zero NaN lanes (the scalar returns 0.0 for NaN).
struct QuantizeConsts {
  float64x2_t inv_res, res, hi, lo;
  explicit QuantizeConsts(const FixedPointFormat& fmt) noexcept
      : inv_res(vdupq_n_f64(1.0 / fmt.resolution())),
        res(vdupq_n_f64(fmt.resolution())),
        hi(vdupq_n_f64(fmt.max_value())),
        lo(vdupq_n_f64(-fmt.max_value() - fmt.resolution())) {}
};

inline float64x2_t quantize_f64(float64x2_t v, const QuantizeConsts& q) noexcept {
  // vceqq on self is false only for NaN lanes; the mask zeroes them at the
  // end (vminq/vmaxq propagate NaN, unlike x86 min/max, so the clamp's NaN
  // lanes still carry NaN until the mask applies).
  const uint64x2_t ord = vceqq_f64(v, v);
  const float64x2_t scaled = vrndiq_f64(vmulq_f64(v, q.inv_res));
  float64x2_t out = vmulq_f64(scaled, q.res);
  out = vmaxq_f64(vminq_f64(out, q.hi), q.lo);
  return vreinterpretq_f64_u64(
      vandq_u64(vreinterpretq_u64_f64(out), ord));
}

// out[n] = a * f~(s_n) with s_n produced per policy: the float preadd loads
// s = j[n] + x_prev[n], the quantized preadd additionally rounds s to the
// state format. Libm-backed kinds stay per-lane scalar (same s-production
// semantics either way, so the stage contract is unaffected).
template <typename MakeS, typename MakeSScalar>
inline void preadd_nonlin_impl(const Nonlinearity& f, double a, double* out,
                               std::size_t nx, const MakeS& make_s,
                               const MakeSScalar& make_s_scalar) {
  const float64x2_t va = vdupq_n_f64(a);
  const std::size_t main = nx - nx % kWidth;
  switch (f.kind()) {
    case NonlinearityKind::kIdentity: {
      for (std::size_t n = 0; n < main; n += kWidth) {
        const float64x2_t s = make_s(n);
        vst1q_f64(out + n, vmulq_f64(va, s));
      }
      break;
    }
    case NonlinearityKind::kCubic: {
      const float64x2_t third = vdupq_n_f64(3.0);
      for (std::size_t n = 0; n < main; n += kWidth) {
        const float64x2_t s = make_s(n);
        const float64x2_t cubed = vmulq_f64(vmulq_f64(s, s), s);
        const float64x2_t value = vsubq_f64(s, vdivq_f64(cubed, third));
        vst1q_f64(out + n, vmulq_f64(va, value));
      }
      break;
    }
    case NonlinearityKind::kSaturating: {
      const float64x2_t one = vdupq_n_f64(1.0);
      for (std::size_t n = 0; n < main; n += kWidth) {
        const float64x2_t s = make_s(n);
        const float64x2_t value = vdivq_f64(s, vaddq_f64(one, vabsq_f64(s)));
        vst1q_f64(out + n, vmulq_f64(va, value));
      }
      break;
    }
    case NonlinearityKind::kMackeyGlass:
    case NonlinearityKind::kTanh:
    case NonlinearityKind::kSine: {
      for (std::size_t n = 0; n < nx; ++n) {
        out[n] = a * f.value(make_s_scalar(n));
      }
      return;
    }
  }
  for (std::size_t n = main; n < nx; ++n) {
    out[n] = a * f.value(make_s_scalar(n));
  }
}

void preadd_nonlin_neon(const Nonlinearity& f, double a, const double* j,
                        const double* x_prev, double* out, std::size_t nx) {
  preadd_nonlin_impl(
      f, a, out, nx,
      [&](std::size_t n) {
        return vaddq_f64(vld1q_f64(j + n), vld1q_f64(x_prev + n));
      },
      [&](std::size_t n) { return j[n] + x_prev[n]; });
}

void quant_preadd_nonlin_neon(const Nonlinearity& f, double a,
                              const FixedPointFormat& fmt, const double* j,
                              const double* x_prev, double* out,
                              std::size_t nx) {
  const QuantizeConsts q(fmt);
  preadd_nonlin_impl(
      f, a, out, nx,
      [&](std::size_t n) {
        return quantize_f64(
            vaddq_f64(vld1q_f64(j + n), vld1q_f64(x_prev + n)), q);
      },
      [&](std::size_t n) { return fmt.quantize(j[n] + x_prev[n]); });
}

void scale_quantize_neon(const FixedPointFormat& fmt, double scale,
                         double* values, std::size_t n) {
  const QuantizeConsts q(fmt);
  const float64x2_t vscale = vdupq_n_f64(scale);
  const std::size_t main = n - n % kWidth;
  for (std::size_t i = 0; i < main; i += kWidth) {
    const float64x2_t v = vmulq_f64(vld1q_f64(values + i), vscale);
    vst1q_f64(values + i, quantize_f64(v, q));
  }
  for (std::size_t i = main; i < n; ++i) {
    values[i] = fmt.quantize(values[i] * scale);
  }
}

// Padded-layout accumulate (see simd_kernels.hpp): `stride` is a multiple of
// kWidth, so every row — and the node-sum row — is whole vectors.
// r[i*stride + jj] += x_k[i] * x_km1[jj] with a separate multiply and add,
// two roundings per accumulate exactly like DprrAccumulator::add, plus the
// r[nx*stride + jj] += x_k[jj] node-sum row.
void dprr_add_neon(double* r, const double* x_k, const double* x_km1,
                   std::size_t nx, std::size_t stride) {
  for (std::size_t i = 0; i < nx; ++i) {
    const float64x2_t vxi = vdupq_n_f64(x_k[i]);
    double* row = r + i * stride;
    for (std::size_t jj = 0; jj < stride; jj += kWidth) {
      const float64x2_t acc = vaddq_f64(
          vld1q_f64(row + jj), vmulq_f64(vxi, vld1q_f64(x_km1 + jj)));
      vst1q_f64(row + jj, acc);
    }
  }
  double* sums = r + nx * stride;
  for (std::size_t jj = 0; jj < stride; jj += kWidth) {
    vst1q_f64(sums + jj, vaddq_f64(vld1q_f64(sums + jj), vld1q_f64(x_k + jj)));
  }
}

// The B-chain fused with the accumulate: row n is updated as soon as the
// chain has produced x[n], so its vector multiply-adds (independent of the
// chain) execute while the next node's serial multiply and add are in flight.
// Each element sees the same multiply and add as the chain followed by
// dprr_add_neon.
void bchain_dprr_add_neon(double b, const double* x_prev, double* x,
                          double* r, std::size_t nx, std::size_t stride) {
  double prev_node = x_prev[nx - 1];
  for (std::size_t n = 0; n < nx; ++n) {
    prev_node = x[n] + b * prev_node;
    x[n] = prev_node;
    const float64x2_t vxn = vdupq_n_f64(prev_node);
    double* row = r + n * stride;
    for (std::size_t jj = 0; jj < stride; jj += kWidth) {
      const float64x2_t acc = vaddq_f64(
          vld1q_f64(row + jj), vmulq_f64(vxn, vld1q_f64(x_prev + jj)));
      vst1q_f64(row + jj, acc);
    }
  }
  double* sums = r + nx * stride;
  for (std::size_t jj = 0; jj < stride; jj += kWidth) {
    vst1q_f64(sums + jj, vaddq_f64(vld1q_f64(sums + jj), vld1q_f64(x + jj)));
  }
}

// ---- batched (SoA) kernels: vectors span lanes, i.e. independent series ----
// The B-chain dependence runs across node rows, never across lanes, so the
// chain that serializes the single-series path becomes full-width
// multiply+adds per node row here (no FMA — each lane must round exactly like
// the scalar B-chain; see the batched contract in simd_kernels.hpp).

void batched_bchain_neon(double b, const double* head, double* x,
                         std::size_t nx, std::size_t lanes) {
  const float64x2_t vb = vdupq_n_f64(b);
  const std::size_t main = lanes - lanes % kWidth;
  const double* prev = head;
  for (std::size_t n = 0; n < nx; ++n) {
    double* row = x + n * lanes;
    for (std::size_t l = 0; l < main; l += kWidth) {
      const float64x2_t value =
          vaddq_f64(vld1q_f64(row + l), vmulq_f64(vb, vld1q_f64(prev + l)));
      vst1q_f64(row + l, value);
    }
    for (std::size_t l = main; l < lanes; ++l) row[l] = row[l] + b * prev[l];
    prev = row;
  }
}

void batched_quant_bchain_neon(double b, const FixedPointFormat& fmt,
                               const double* head, double* x, std::size_t nx,
                               std::size_t lanes) {
  const QuantizeConsts q(fmt);
  const float64x2_t vb = vdupq_n_f64(b);
  const std::size_t main = lanes - lanes % kWidth;
  const double* prev = head;
  for (std::size_t n = 0; n < nx; ++n) {
    double* row = x + n * lanes;
    for (std::size_t l = 0; l < main; l += kWidth) {
      const float64x2_t value =
          vaddq_f64(vld1q_f64(row + l), vmulq_f64(vb, vld1q_f64(prev + l)));
      vst1q_f64(row + l, quantize_f64(value, q));
    }
    for (std::size_t l = main; l < lanes; ++l) {
      row[l] = fmt.quantize(row[l] + b * prev[l]);
    }
    prev = row;
  }
}

// Batched SoA DPRR accumulate: every (i, j) cross product is a full-width
// multiply and add over the lane dimension, rounding twice per accumulate
// like DprrAccumulator::add (this TU builds with -ffp-contract=off, so the
// lane tail cannot fuse either). Lane blocks run outside j so the x_k[i]
// lane vector loads once per block.
void batched_dprr_add_neon(double* r, const double* x_k, const double* x_km1,
                           std::size_t nx, std::size_t lanes) {
  const std::size_t main = lanes - lanes % kWidth;
  double* sums = r + nx * nx * lanes;
  for (std::size_t i = 0; i < nx; ++i) {
    const double* xi = x_k + i * lanes;
    double* block = r + i * nx * lanes;
    for (std::size_t l = 0; l < main; l += kWidth) {
      const float64x2_t vxi = vld1q_f64(xi + l);
      for (std::size_t j = 0; j < nx; ++j) {
        double* row = block + j * lanes + l;
        const float64x2_t acc = vaddq_f64(
            vld1q_f64(row), vmulq_f64(vxi, vld1q_f64(x_km1 + j * lanes + l)));
        vst1q_f64(row, acc);
      }
    }
    for (std::size_t l = main; l < lanes; ++l) {
      const double xil = xi[l];
      for (std::size_t j = 0; j < nx; ++j) {
        block[j * lanes + l] += xil * x_km1[j * lanes + l];
      }
    }
    double* sum_row = sums + i * lanes;
    for (std::size_t l = 0; l < main; l += kWidth) {
      vst1q_f64(sum_row + l,
                vaddq_f64(vld1q_f64(sum_row + l), vld1q_f64(xi + l)));
    }
    for (std::size_t l = main; l < lanes; ++l) sum_row[l] += xi[l];
  }
}

// Batched SoA mask: broadcast one weight, multiply by the channel's lane
// vector, accumulate with separate mul + add in ascending v — the scalar
// dot() order per lane, so every lane is bit-identical to Mask::apply_into.
void batched_mask_neon(const double* weights, std::size_t nx,
                       std::size_t channels, const double* u, double* j,
                       std::size_t lanes) {
  const std::size_t main = lanes - lanes % kWidth;
  for (std::size_t i = 0; i < nx; ++i) {
    const double* wi = weights + i * channels;
    double* row = j + i * lanes;
    for (std::size_t l = 0; l < main; l += kWidth) {
      float64x2_t acc = vdupq_n_f64(0.0);
      for (std::size_t v = 0; v < channels; ++v) {
        acc = vaddq_f64(acc, vmulq_f64(vdupq_n_f64(wi[v]),
                                       vld1q_f64(u + v * lanes + l)));
      }
      vst1q_f64(row + l, acc);
    }
    for (std::size_t l = main; l < lanes; ++l) {
      double acc = 0.0;
      for (std::size_t v = 0; v < channels; ++v) {
        acc += wi[v] * u[v * lanes + l];
      }
      row[l] = acc;
    }
  }
}

constexpr Kernels kNeonKernels{Backend::kNeon,
                               &preadd_nonlin_neon,
                               &dprr_add_neon,
                               &bchain_dprr_add_neon,
                               &scale_quantize_neon,
                               &quant_preadd_nonlin_neon,
                               &batched_bchain_neon,
                               &batched_quant_bchain_neon,
                               &batched_dprr_add_neon,
                               &batched_mask_neon};

}  // namespace

namespace detail {
const Kernels* neon_kernels() noexcept { return &kNeonKernels; }
}  // namespace detail

}  // namespace dfr::simd

#else  // TU built for a non-aarch64 target: register nothing.

namespace dfr::simd::detail {
const Kernels* neon_kernels() noexcept { return nullptr; }
}  // namespace dfr::simd::detail

#endif
