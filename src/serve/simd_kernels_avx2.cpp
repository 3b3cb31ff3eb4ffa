// AVX2 kernel set. This translation unit is compiled with per-file arch
// flags (-mavx2 -ffp-contract=off; see the root CMakeLists) on x86-64 builds
// and compiles to a nullptr stub everywhere else — runtime dispatch in
// simd_kernels.cpp decides whether it ever executes.
//
// Every kernel here performs the scalar pipeline's operations in its order,
// with a separate multiply and add wherever the scalar code has them, so it
// is bit-identical to the scalar references (see the contract in
// simd_kernels.hpp). -ffp-contract=off keeps the compiler from fusing them.
#include "serve/simd_kernels.hpp"

#if defined(DFR_SIMD_KERNELS_ISA) && defined(__AVX2__)

#include <immintrin.h>

namespace dfr::simd {
namespace {

constexpr std::size_t kWidth = 4;  // doubles per __m256d

inline __m256d abs_pd(__m256d v) noexcept {
  return _mm256_andnot_pd(_mm256_set1_pd(-0.0), v);
}

/// Vector twin of FixedPointFormat::quantize, bit-identical lane-wise:
/// multiply by 1/resolution (scaling by an exact power of two rounds
/// identically to the scalar's division by resolution), round to nearest
/// under the current rounding mode (vroundpd with CUR_DIRECTION ==
/// std::nearbyint), multiply back, clamp to [-max-res, max], and zero NaN
/// lanes (the scalar returns 0.0 for NaN).
struct QuantizeConsts {
  __m256d inv_res, res, hi, lo;
  explicit QuantizeConsts(const FixedPointFormat& fmt) noexcept
      : inv_res(_mm256_set1_pd(1.0 / fmt.resolution())),
        res(_mm256_set1_pd(fmt.resolution())),
        hi(_mm256_set1_pd(fmt.max_value())),
        lo(_mm256_set1_pd(-fmt.max_value() - fmt.resolution())) {}
};

inline __m256d quantize_pd(__m256d v, const QuantizeConsts& q) noexcept {
  const __m256d ord = _mm256_cmp_pd(v, v, _CMP_ORD_Q);  // 0 in NaN lanes
  const __m256d scaled =
      _mm256_round_pd(_mm256_mul_pd(v, q.inv_res),
                      _MM_FROUND_CUR_DIRECTION | _MM_FROUND_NO_EXC);
  __m256d out = _mm256_mul_pd(scaled, q.res);
  out = _mm256_max_pd(_mm256_min_pd(out, q.hi), q.lo);
  return _mm256_and_pd(out, ord);
}

// out[n] = a * f~(s_n) with s_n produced per policy: the float preadd loads
// s = j[n] + x_prev[n], the quantized preadd additionally rounds s to the
// state format. The polynomial / rational nonlinearities vectorize with the
// scalar evaluation order preserved; the libm-backed ones (tanh, sine,
// Mackey–Glass with its pow) keep per-lane scalar calls on top of the same
// s-production semantics (a plain IEEE add — plus, for the quantized
// family, the scalar FixedPointFormat::quantize itself — either way, so the
// stage contract is unaffected).
template <typename MakeS, typename MakeSScalar>
inline void preadd_nonlin_impl(const Nonlinearity& f, double a, double* out,
                               std::size_t nx, const MakeS& make_s,
                               const MakeSScalar& make_s_scalar) {
  const __m256d va = _mm256_set1_pd(a);
  const std::size_t main = nx - nx % kWidth;
  switch (f.kind()) {
    case NonlinearityKind::kIdentity: {
      for (std::size_t n = 0; n < main; n += kWidth) {
        const __m256d s = make_s(n);
        _mm256_storeu_pd(out + n, _mm256_mul_pd(va, s));
      }
      break;
    }
    case NonlinearityKind::kCubic: {
      // s - s*s*s/3, evaluated as ((s*s)*s)/3 like the scalar expression.
      const __m256d third = _mm256_set1_pd(3.0);
      for (std::size_t n = 0; n < main; n += kWidth) {
        const __m256d s = make_s(n);
        const __m256d cubed = _mm256_mul_pd(_mm256_mul_pd(s, s), s);
        const __m256d value = _mm256_sub_pd(s, _mm256_div_pd(cubed, third));
        _mm256_storeu_pd(out + n, _mm256_mul_pd(va, value));
      }
      break;
    }
    case NonlinearityKind::kSaturating: {
      const __m256d one = _mm256_set1_pd(1.0);
      for (std::size_t n = 0; n < main; n += kWidth) {
        const __m256d s = make_s(n);
        const __m256d value = _mm256_div_pd(s, _mm256_add_pd(one, abs_pd(s)));
        _mm256_storeu_pd(out + n, _mm256_mul_pd(va, value));
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

void preadd_nonlin_avx2(const Nonlinearity& f, double a, const double* j,
                        const double* x_prev, double* out, std::size_t nx) {
  preadd_nonlin_impl(
      f, a, out, nx,
      [&](std::size_t n) {
        return _mm256_add_pd(_mm256_loadu_pd(j + n),
                             _mm256_loadu_pd(x_prev + n));
      },
      [&](std::size_t n) { return j[n] + x_prev[n]; });
}

void quant_preadd_nonlin_avx2(const Nonlinearity& f, double a,
                              const FixedPointFormat& fmt, const double* j,
                              const double* x_prev, double* out,
                              std::size_t nx) {
  const QuantizeConsts q(fmt);
  preadd_nonlin_impl(
      f, a, out, nx,
      [&](std::size_t n) {
        return quantize_pd(_mm256_add_pd(_mm256_loadu_pd(j + n),
                                         _mm256_loadu_pd(x_prev + n)),
                           q);
      },
      [&](std::size_t n) { return fmt.quantize(j[n] + x_prev[n]); });
}

void scale_quantize_avx2(const FixedPointFormat& fmt, double scale,
                         double* values, std::size_t n) {
  const QuantizeConsts q(fmt);
  const __m256d vscale = _mm256_set1_pd(scale);
  const std::size_t main = n - n % kWidth;
  for (std::size_t i = 0; i < main; i += kWidth) {
    const __m256d v = _mm256_mul_pd(_mm256_loadu_pd(values + i), vscale);
    _mm256_storeu_pd(values + i, quantize_pd(v, q));
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
void dprr_add_avx2(double* r, const double* x_k, const double* x_km1,
                   std::size_t nx, std::size_t stride) {
  for (std::size_t i = 0; i < nx; ++i) {
    const __m256d vxi = _mm256_set1_pd(x_k[i]);
    double* row = r + i * stride;
    for (std::size_t jj = 0; jj < stride; jj += kWidth) {
      const __m256d acc = _mm256_add_pd(
          _mm256_loadu_pd(row + jj),
          _mm256_mul_pd(vxi, _mm256_loadu_pd(x_km1 + jj)));
      _mm256_storeu_pd(row + jj, acc);
    }
  }
  double* sums = r + nx * stride;
  for (std::size_t jj = 0; jj < stride; jj += kWidth) {
    _mm256_storeu_pd(sums + jj, _mm256_add_pd(_mm256_loadu_pd(sums + jj),
                                              _mm256_loadu_pd(x_k + jj)));
  }
}

// The B-chain fused with the accumulate: row n is updated as soon as the
// chain has produced x[n], so its vector multiply-adds (independent of the
// chain) execute while the next node's serial multiply and add are in flight.
// Each element sees the same multiply and add as the chain followed by
// dprr_add_avx2.
void bchain_dprr_add_avx2(double b, const double* x_prev, double* x,
                          double* r, std::size_t nx, std::size_t stride) {
  double prev_node = x_prev[nx - 1];
  for (std::size_t n = 0; n < nx; ++n) {
    prev_node = x[n] + b * prev_node;
    x[n] = prev_node;
    const __m256d vxn = _mm256_set1_pd(prev_node);
    double* row = r + n * stride;
    for (std::size_t jj = 0; jj < stride; jj += kWidth) {
      const __m256d acc = _mm256_add_pd(
          _mm256_loadu_pd(row + jj),
          _mm256_mul_pd(vxn, _mm256_loadu_pd(x_prev + jj)));
      _mm256_storeu_pd(row + jj, acc);
    }
  }
  double* sums = r + nx * stride;
  for (std::size_t jj = 0; jj < stride; jj += kWidth) {
    _mm256_storeu_pd(sums + jj, _mm256_add_pd(_mm256_loadu_pd(sums + jj),
                                              _mm256_loadu_pd(x + jj)));
  }
}

// ---- batched (SoA) kernels: vectors span lanes, i.e. independent series ----
// The B-chain dependence runs across node rows, never across lanes, so the
// chain that serializes the single-series path becomes full-width
// multiply+adds per node row here (no FMA — each lane must round exactly like
// the scalar B-chain; see the batched contract in simd_kernels.hpp).

void batched_bchain_avx2(double b, const double* head, double* x,
                         std::size_t nx, std::size_t lanes) {
  const __m256d vb = _mm256_set1_pd(b);
  const std::size_t main = lanes - lanes % kWidth;
  const double* prev = head;
  for (std::size_t n = 0; n < nx; ++n) {
    double* row = x + n * lanes;
    for (std::size_t l = 0; l < main; l += kWidth) {
      const __m256d value =
          _mm256_add_pd(_mm256_loadu_pd(row + l),
                        _mm256_mul_pd(vb, _mm256_loadu_pd(prev + l)));
      _mm256_storeu_pd(row + l, value);
    }
    for (std::size_t l = main; l < lanes; ++l) row[l] = row[l] + b * prev[l];
    prev = row;
  }
}

void batched_quant_bchain_avx2(double b, const FixedPointFormat& fmt,
                               const double* head, double* x, std::size_t nx,
                               std::size_t lanes) {
  const QuantizeConsts q(fmt);
  const __m256d vb = _mm256_set1_pd(b);
  const std::size_t main = lanes - lanes % kWidth;
  const double* prev = head;
  for (std::size_t n = 0; n < nx; ++n) {
    double* row = x + n * lanes;
    for (std::size_t l = 0; l < main; l += kWidth) {
      const __m256d value =
          _mm256_add_pd(_mm256_loadu_pd(row + l),
                        _mm256_mul_pd(vb, _mm256_loadu_pd(prev + l)));
      _mm256_storeu_pd(row + l, quantize_pd(value, q));
    }
    for (std::size_t l = main; l < lanes; ++l) {
      row[l] = fmt.quantize(row[l] + b * prev[l]);
    }
    prev = row;
  }
}

// Batched SoA DPRR accumulate: every (i, j) cross product is a full-width
// multiply and add over the lane dimension — nx^2 vector op pairs per step
// with no serial chain, full lanes at any Nx — rounding twice per accumulate
// like DprrAccumulator::add.
void batched_dprr_add_avx2(double* r, const double* x_k, const double* x_km1,
                           std::size_t nx, std::size_t lanes) {
  const std::size_t main = lanes - lanes % kWidth;
  double* sums = r + nx * nx * lanes;
  for (std::size_t i = 0; i < nx; ++i) {
    const double* xi = x_k + i * lanes;
    double* block = r + i * nx * lanes;
    // Lane blocks outside j so the x_k[i] lane vector loads once per block
    // (two loads + one store per accumulate); each element is still touched
    // once.
    for (std::size_t l = 0; l < main; l += kWidth) {
      const __m256d vxi = _mm256_loadu_pd(xi + l);
      for (std::size_t j = 0; j < nx; ++j) {
        double* row = block + j * lanes + l;
        const __m256d acc = _mm256_add_pd(
            _mm256_loadu_pd(row),
            _mm256_mul_pd(vxi, _mm256_loadu_pd(x_km1 + j * lanes + l)));
        _mm256_storeu_pd(row, acc);
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
      _mm256_storeu_pd(sum_row + l, _mm256_add_pd(_mm256_loadu_pd(sum_row + l),
                                                  _mm256_loadu_pd(xi + l)));
    }
    for (std::size_t l = main; l < lanes; ++l) sum_row[l] += xi[l];
  }
}

// Batched SoA mask: broadcast one weight, multiply by the channel's lane
// vector, accumulate with separate mul + add in ascending v — the scalar
// dot() order per lane, so every lane is bit-identical to Mask::apply_into.
void batched_mask_avx2(const double* weights, std::size_t nx,
                       std::size_t channels, const double* u, double* j,
                       std::size_t lanes) {
  const std::size_t main = lanes - lanes % kWidth;
  for (std::size_t i = 0; i < nx; ++i) {
    const double* wi = weights + i * channels;
    double* row = j + i * lanes;
    for (std::size_t l = 0; l < main; l += kWidth) {
      __m256d acc = _mm256_setzero_pd();
      for (std::size_t v = 0; v < channels; ++v) {
        acc = _mm256_add_pd(
            acc, _mm256_mul_pd(_mm256_set1_pd(wi[v]),
                               _mm256_loadu_pd(u + v * lanes + l)));
      }
      _mm256_storeu_pd(row + l, acc);
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

constexpr Kernels kAvx2Kernels{Backend::kAvx2,
                               &preadd_nonlin_avx2,
                               &dprr_add_avx2,
                               &bchain_dprr_add_avx2,
                               &scale_quantize_avx2,
                               &quant_preadd_nonlin_avx2,
                               &batched_bchain_avx2,
                               &batched_quant_bchain_avx2,
                               &batched_dprr_add_avx2,
                               &batched_mask_avx2};

}  // namespace

namespace detail {
const Kernels* avx2_kernels() noexcept { return &kAvx2Kernels; }
}  // namespace detail

}  // namespace dfr::simd

#else  // TU built without AVX2 arch flags: register nothing.

namespace dfr::simd::detail {
const Kernels* avx2_kernels() noexcept { return nullptr; }
}  // namespace dfr::simd::detail

#endif
