// AVX-512 kernel set (512-bit, 8 doubles per vector). This translation unit
// is compiled with per-file arch flags (-mavx512f -mavx512bw
// -ffp-contract=off; see the root CMakeLists) on x86-64 builds and compiles
// to a nullptr stub everywhere else — runtime dispatch in simd_kernels.cpp
// gates execution on __builtin_cpu_supports("avx512f")/("avx512bw").
//
// Same contract as the AVX2 TU, twice the width: every kernel performs the
// scalar pipeline's operations in its order, never fused, so it is
// bit-identical to the scalar references (see simd_kernels.hpp).
// The single-series DPRR kernels run over the padded layout (rows a multiple
// of 8 wide) and so have no remainder at all. Unlike the AVX2/NEON TUs, the
// elementwise single-series kernels here run their remainder (nx % 8)
// through MASKED vector ops instead of a scalar tail:
// maskz loads fill inactive lanes with +0.0 (harmless for every vectorized
// operation below) and masked stores never touch memory past nx, while the
// active lanes execute the exact same IEEE operation sequence as the main
// loop — so bit-exactness is preserved, and non-multiple-of-8 Nx values no
// longer pay a scalar epilogue. The batched kernels keep scalar lane tails:
// the lane count is the server's max_batch, which real configs keep at a
// power of two.
#include "serve/simd_kernels.hpp"

#if defined(DFR_SIMD_KERNELS_ISA) && defined(__AVX512F__) && \
    defined(__AVX512BW__)

#include <immintrin.h>

namespace dfr::simd {
namespace {

constexpr std::size_t kWidth = 8;  // doubles per __m512d

/// Vector twin of FixedPointFormat::quantize, bit-identical lane-wise:
/// multiply by 1/resolution (scaling by an exact power of two rounds
/// identically to the scalar's division by resolution), roundscale with
/// imm 0x0C (MXCSR rounding mode, suppress precision exceptions ==
/// std::nearbyint), multiply back, clamp to [-max-res, max], and zero NaN
/// lanes (the scalar returns 0.0 for NaN).
struct QuantizeConsts {
  __m512d inv_res, res, hi, lo;
  explicit QuantizeConsts(const FixedPointFormat& fmt) noexcept
      : inv_res(_mm512_set1_pd(1.0 / fmt.resolution())),
        res(_mm512_set1_pd(fmt.resolution())),
        hi(_mm512_set1_pd(fmt.max_value())),
        lo(_mm512_set1_pd(-fmt.max_value() - fmt.resolution())) {}
};

inline __m512d quantize_pd(__m512d v, const QuantizeConsts& q) noexcept {
  const __mmask8 ord = _mm512_cmp_pd_mask(v, v, _CMP_ORD_Q);
  const __m512d scaled = _mm512_roundscale_pd(
      _mm512_mul_pd(v, q.inv_res),
      _MM_FROUND_CUR_DIRECTION | _MM_FROUND_NO_EXC);
  __m512d out = _mm512_mul_pd(scaled, q.res);
  out = _mm512_max_pd(_mm512_min_pd(out, q.hi), q.lo);
  // NaN lanes -> +0.0. (mask_mov from an explicit zero vector, not
  // maskz_mov: GCC's maskz implementation reads an undefined passthrough
  // and trips -Wmaybe-uninitialized.)
  return _mm512_mask_mov_pd(_mm512_setzero_pd(), ord, out);
}

/// All-active-lanes mask for a tail of `len` doubles (1 <= len < kWidth).
inline __mmask8 tail_mask(std::size_t len) noexcept {
  return static_cast<__mmask8>((1u << len) - 1);
}

// out[n] = a * f~(s_n) with s_n produced per policy: the float preadd loads
// s = j[n] + x_prev[n], the quantized preadd additionally rounds s to the
// state format. The polynomial / rational nonlinearities vectorize with the
// scalar evaluation order preserved and finish with one masked iteration
// covering nx % 8 (maskz-loaded inactive lanes hold +0.0, for which every
// value_of below is well-defined, and the masked store drops them); the
// libm-backed ones (tanh, sine, Mackey–Glass with its pow) keep per-lane
// scalar calls on top of the same s-production semantics, so the stage
// contracts are unaffected.
template <typename MakeS, typename MakeSMasked, typename MakeSScalar>
inline void preadd_nonlin_impl(const Nonlinearity& f, double a, double* out,
                               std::size_t nx, const MakeS& make_s,
                               const MakeSMasked& make_s_masked,
                               const MakeSScalar& make_s_scalar) {
  const __m512d va = _mm512_set1_pd(a);
  const std::size_t main = nx - nx % kWidth;
  // Main loop + masked remainder, shared across the vectorized kinds;
  // `value_of` is the kind's f~(s) on full vectors.
  const auto run = [&](auto&& value_of) {
    for (std::size_t n = 0; n < main; n += kWidth) {
      _mm512_storeu_pd(out + n, _mm512_mul_pd(va, value_of(make_s(n))));
    }
    if (main != nx) {
      const __mmask8 m = tail_mask(nx - main);
      _mm512_mask_storeu_pd(out + main, m,
                            _mm512_mul_pd(va, value_of(make_s_masked(main, m))));
    }
  };
  switch (f.kind()) {
    case NonlinearityKind::kIdentity: {
      run([](__m512d s) { return s; });
      return;
    }
    case NonlinearityKind::kCubic: {
      // s - s*s*s/3, evaluated as ((s*s)*s)/3 like the scalar expression.
      const __m512d third = _mm512_set1_pd(3.0);
      run([&](__m512d s) {
        const __m512d cubed = _mm512_mul_pd(_mm512_mul_pd(s, s), s);
        return _mm512_sub_pd(s, _mm512_div_pd(cubed, third));
      });
      return;
    }
    case NonlinearityKind::kSaturating: {
      const __m512d one = _mm512_set1_pd(1.0);
      run([&](__m512d s) {
        return _mm512_div_pd(s, _mm512_add_pd(one, _mm512_abs_pd(s)));
      });
      return;
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
}

void preadd_nonlin_avx512(const Nonlinearity& f, double a, const double* j,
                          const double* x_prev, double* out, std::size_t nx) {
  preadd_nonlin_impl(
      f, a, out, nx,
      [&](std::size_t n) {
        return _mm512_add_pd(_mm512_loadu_pd(j + n),
                             _mm512_loadu_pd(x_prev + n));
      },
      [&](std::size_t n, __mmask8 m) {
        return _mm512_add_pd(_mm512_maskz_loadu_pd(m, j + n),
                             _mm512_maskz_loadu_pd(m, x_prev + n));
      },
      [&](std::size_t n) { return j[n] + x_prev[n]; });
}

void quant_preadd_nonlin_avx512(const Nonlinearity& f, double a,
                                const FixedPointFormat& fmt, const double* j,
                                const double* x_prev, double* out,
                                std::size_t nx) {
  const QuantizeConsts q(fmt);
  preadd_nonlin_impl(
      f, a, out, nx,
      [&](std::size_t n) {
        return quantize_pd(_mm512_add_pd(_mm512_loadu_pd(j + n),
                                         _mm512_loadu_pd(x_prev + n)),
                           q);
      },
      [&](std::size_t n, __mmask8 m) {
        return quantize_pd(_mm512_add_pd(_mm512_maskz_loadu_pd(m, j + n),
                                         _mm512_maskz_loadu_pd(m, x_prev + n)),
                           q);
      },
      [&](std::size_t n) { return fmt.quantize(j[n] + x_prev[n]); });
}

void scale_quantize_avx512(const FixedPointFormat& fmt, double scale,
                           double* values, std::size_t n) {
  const QuantizeConsts q(fmt);
  const __m512d vscale = _mm512_set1_pd(scale);
  const std::size_t main = n - n % kWidth;
  for (std::size_t i = 0; i < main; i += kWidth) {
    const __m512d v = _mm512_mul_pd(_mm512_loadu_pd(values + i), vscale);
    _mm512_storeu_pd(values + i, quantize_pd(v, q));
  }
  if (main != n) {
    const __mmask8 m = tail_mask(n - main);
    const __m512d v =
        _mm512_mul_pd(_mm512_maskz_loadu_pd(m, values + main), vscale);
    _mm512_mask_storeu_pd(values + main, m, quantize_pd(v, q));
  }
}

// Padded-layout accumulate (see simd_kernels.hpp): `stride` is a multiple of
// kWidth, so every row — and the node-sum row — is whole vectors.
// r[i*stride + jj] += x_k[i] * x_km1[jj] with a separate multiply and add,
// two roundings per accumulate exactly like DprrAccumulator::add, plus the
// r[nx*stride + jj] += x_k[jj] node-sum row.
void dprr_add_avx512(double* r, const double* x_k, const double* x_km1,
                     std::size_t nx, std::size_t stride) {
  for (std::size_t i = 0; i < nx; ++i) {
    const __m512d vxi = _mm512_set1_pd(x_k[i]);
    double* row = r + i * stride;
    for (std::size_t jj = 0; jj < stride; jj += kWidth) {
      const __m512d acc = _mm512_add_pd(
          _mm512_loadu_pd(row + jj),
          _mm512_mul_pd(vxi, _mm512_loadu_pd(x_km1 + jj)));
      _mm512_storeu_pd(row + jj, acc);
    }
  }
  double* sums = r + nx * stride;
  for (std::size_t jj = 0; jj < stride; jj += kWidth) {
    _mm512_storeu_pd(sums + jj, _mm512_add_pd(_mm512_loadu_pd(sums + jj),
                                              _mm512_loadu_pd(x_k + jj)));
  }
}

// The B-chain fused with the accumulate: row n is updated as soon as the
// chain has produced x[n], so its vector multiply-adds (independent of the
// chain) execute while the next node's serial multiply and add are in flight.
// Each element sees the same multiply and add as the chain followed by
// dprr_add_avx512.
void bchain_dprr_add_avx512(double b, const double* x_prev, double* x,
                            double* r, std::size_t nx, std::size_t stride) {
  double prev_node = x_prev[nx - 1];
  for (std::size_t n = 0; n < nx; ++n) {
    prev_node = x[n] + b * prev_node;
    x[n] = prev_node;
    const __m512d vxn = _mm512_set1_pd(prev_node);
    double* row = r + n * stride;
    for (std::size_t jj = 0; jj < stride; jj += kWidth) {
      const __m512d acc = _mm512_add_pd(
          _mm512_loadu_pd(row + jj),
          _mm512_mul_pd(vxn, _mm512_loadu_pd(x_prev + jj)));
      _mm512_storeu_pd(row + jj, acc);
    }
  }
  double* sums = r + nx * stride;
  for (std::size_t jj = 0; jj < stride; jj += kWidth) {
    _mm512_storeu_pd(sums + jj, _mm512_add_pd(_mm512_loadu_pd(sums + jj),
                                              _mm512_loadu_pd(x + jj)));
  }
}

// ---- batched (SoA) kernels: vectors span lanes, i.e. independent series ----
// The B-chain dependence runs across node rows, never across lanes, so the
// chain that serializes the single-series path becomes one full-width
// multiply+add per node row here (no FMA — each lane must round exactly like
// the scalar B-chain; see the batched contract in simd_kernels.hpp).

void batched_bchain_avx512(double b, const double* head, double* x,
                           std::size_t nx, std::size_t lanes) {
  const __m512d vb = _mm512_set1_pd(b);
  const std::size_t main = lanes - lanes % kWidth;
  const double* prev = head;
  for (std::size_t n = 0; n < nx; ++n) {
    double* row = x + n * lanes;
    for (std::size_t l = 0; l < main; l += kWidth) {
      const __m512d value =
          _mm512_add_pd(_mm512_loadu_pd(row + l),
                        _mm512_mul_pd(vb, _mm512_loadu_pd(prev + l)));
      _mm512_storeu_pd(row + l, value);
    }
    for (std::size_t l = main; l < lanes; ++l) row[l] = row[l] + b * prev[l];
    prev = row;
  }
}

void batched_quant_bchain_avx512(double b, const FixedPointFormat& fmt,
                                 const double* head, double* x, std::size_t nx,
                                 std::size_t lanes) {
  const QuantizeConsts q(fmt);
  const __m512d vb = _mm512_set1_pd(b);
  const std::size_t main = lanes - lanes % kWidth;
  const double* prev = head;
  for (std::size_t n = 0; n < nx; ++n) {
    double* row = x + n * lanes;
    for (std::size_t l = 0; l < main; l += kWidth) {
      const __m512d value =
          _mm512_add_pd(_mm512_loadu_pd(row + l),
                        _mm512_mul_pd(vb, _mm512_loadu_pd(prev + l)));
      _mm512_storeu_pd(row + l, quantize_pd(value, q));
    }
    for (std::size_t l = main; l < lanes; ++l) {
      row[l] = fmt.quantize(row[l] + b * prev[l]);
    }
    prev = row;
  }
}

// Batched SoA DPRR accumulate: every (i, j) cross product is one full-width
// multiply and add over the lane dimension — nx^2 vector op pairs per step
// with no serial chain, full lanes at any Nx — rounding twice per
// accumulate like DprrAccumulator::add.
// Lane blocks are the outer loop over j so the x_k[i] lane vector loads
// once per block instead of once per (i, j): two loads + one store per
// accumulate, matching the single-series kernel's traffic. Each (i, j, l)
// element is touched exactly once either way, so results are unchanged.
void batched_dprr_add_avx512(double* r, const double* x_k, const double* x_km1,
                             std::size_t nx, std::size_t lanes) {
  const std::size_t main = lanes - lanes % kWidth;
  double* sums = r + nx * nx * lanes;
  for (std::size_t i = 0; i < nx; ++i) {
    const double* xi = x_k + i * lanes;
    double* block = r + i * nx * lanes;
    for (std::size_t l = 0; l < main; l += kWidth) {
      const __m512d vxi = _mm512_loadu_pd(xi + l);
      for (std::size_t j = 0; j < nx; ++j) {
        double* row = block + j * lanes + l;
        const __m512d acc = _mm512_add_pd(
            _mm512_loadu_pd(row),
            _mm512_mul_pd(vxi, _mm512_loadu_pd(x_km1 + j * lanes + l)));
        _mm512_storeu_pd(row, acc);
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
      _mm512_storeu_pd(sum_row + l, _mm512_add_pd(_mm512_loadu_pd(sum_row + l),
                                                  _mm512_loadu_pd(xi + l)));
    }
    for (std::size_t l = main; l < lanes; ++l) sum_row[l] += xi[l];
  }
}

// Batched SoA mask: broadcast one weight, multiply by the channel's lane
// vector, accumulate with separate mul + add in ascending v — the scalar
// dot() order per lane, so every lane is bit-identical to Mask::apply_into.
void batched_mask_avx512(const double* weights, std::size_t nx,
                         std::size_t channels, const double* u, double* j,
                         std::size_t lanes) {
  const std::size_t main = lanes - lanes % kWidth;
  for (std::size_t i = 0; i < nx; ++i) {
    const double* wi = weights + i * channels;
    double* row = j + i * lanes;
    for (std::size_t l = 0; l < main; l += kWidth) {
      __m512d acc = _mm512_setzero_pd();
      for (std::size_t v = 0; v < channels; ++v) {
        acc = _mm512_add_pd(
            acc, _mm512_mul_pd(_mm512_set1_pd(wi[v]),
                               _mm512_loadu_pd(u + v * lanes + l)));
      }
      _mm512_storeu_pd(row + l, acc);
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

constexpr Kernels kAvx512Kernels{Backend::kAvx512,
                                 &preadd_nonlin_avx512,
                                 &dprr_add_avx512,
                                 &bchain_dprr_add_avx512,
                                 &scale_quantize_avx512,
                                 &quant_preadd_nonlin_avx512,
                                 &batched_bchain_avx512,
                                 &batched_quant_bchain_avx512,
                                 &batched_dprr_add_avx512,
                                 &batched_mask_avx512};

}  // namespace

namespace detail {
const Kernels* avx512_kernels() noexcept { return &kAvx512Kernels; }
}  // namespace detail

}  // namespace dfr::simd

#else  // TU built without AVX-512 arch flags: register nothing.

namespace dfr::simd::detail {
const Kernels* avx512_kernels() noexcept { return nullptr; }
}  // namespace dfr::simd::detail

#endif
