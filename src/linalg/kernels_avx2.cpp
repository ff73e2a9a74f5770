// AVX2/FMA kernel set. Compiled with -mavx2 -mfma (see src/CMakeLists.txt)
// and only ever entered through the runtime dispatcher in kernels.cpp, so
// no instruction here executes on a CPU without both features.
//
// Double kernels: every multiply-accumulate step is a fused multiply-add
// (vector vfmadd lanes and std::fma scalar tails are the same operation),
// so an element's value never depends on which lane group it landed in.
// The only order-sensitive operation is the dot-product reduction; dot()
// and fused_act_dot() share one reduction structure (two 4-wide
// accumulators over 8-element blocks, a fixed horizontal sum, then a
// sequential fma tail) so they stay bit-identical to each other.
//
// MLP and Adam kernels (the DQN baseline): the exception. They use no FMA
// and sum in the scalar reference's order, so they are bit-identical to
// nn::Mlp and nn::AdamOptimizer's loops (see their section below).
//
// Q20 kernels: each call first proves, from max-abs scans of its
// operands, that no multiply and no prefix of any accumulation can
// saturate (see "Range proof" below). When it holds, the call runs in 8
// int32 lanes with plain wrap-free adds; when it fails, the call (or the
// row, for matvec and the rank-1 downdate) runs the scalar reference, so
// values and saturation counters match fixed::Q20 by construction.
#if defined(OSELM_HAVE_AVX2_KERNELS)

#include <immintrin.h>

#include <algorithm>

#include <cmath>
#include <cstdint>
#include <cstdlib>

#include "linalg/kernels.hpp"
#include "linalg/kernels_q20_inline.hpp"

namespace oselm::linalg::kernels::avx2 {

namespace {

// -- double helpers ---------------------------------------------------------

/// Fixed horizontal sum: (v0 + v2) + (v1 + v3) via 128-bit halves.
inline double hsum(__m256d v) noexcept {
  const __m128d lo = _mm256_castpd256_pd128(v);
  const __m128d hi = _mm256_extractf128_pd(v, 1);
  const __m128d pair = _mm_add_pd(lo, hi);
  const __m128d high = _mm_unpackhi_pd(pair, pair);
  return _mm_cvtsd_f64(_mm_add_sd(pair, high));
}

/// ReLU that matches the scalar `x >= 0.0 ? x : 0.0` bit-for-bit
/// (keeps -0.0, returns +0.0 for negatives).
inline __m256d relu_pd(__m256d v) noexcept {
  const __m256d keep = _mm256_cmp_pd(v, _mm256_setzero_pd(), _CMP_GE_OQ);
  return _mm256_and_pd(v, keep);
}

/// In-register 4x4 transpose: t[i] lane l becomes t[l] lane i.
inline void transpose4(__m256d (&t)[4]) noexcept {
  const __m256d lo01 = _mm256_unpacklo_pd(t[0], t[1]);
  const __m256d hi01 = _mm256_unpackhi_pd(t[0], t[1]);
  const __m256d lo23 = _mm256_unpacklo_pd(t[2], t[3]);
  const __m256d hi23 = _mm256_unpackhi_pd(t[2], t[3]);
  t[0] = _mm256_permute2f128_pd(lo01, lo23, 0x20);
  t[1] = _mm256_permute2f128_pd(hi01, hi23, 0x20);
  t[2] = _mm256_permute2f128_pd(lo01, lo23, 0x31);
  t[3] = _mm256_permute2f128_pd(hi01, hi23, 0x31);
}

inline double act_scalar(Act act, double x) noexcept {
  switch (act) {
    case Act::kReLU:
      return x >= 0.0 ? x : 0.0;
    case Act::kSigmoid:
      return 1.0 / (1.0 + std::exp(-x));
    case Act::kTanh:
      return std::tanh(x);
    case Act::kLinear:
      return x;
  }
  return x;
}

// -- Q20 helpers ------------------------------------------------------------
//
// Range proof. q_mul(a, b) = sat((a*b + 2^19) >> 20). For |a| <= A and
// |b| <= B (max-abs scans) the unsaturated term has magnitude at most
// T = (A*B + 2^19) >> 20 (mul_bound), and T <= INT32_MAX exactly when
// A*B < 2^51 - 2^19 -- the first positive product that saturates -- so a
// bound T <= INT32_MAX also proves that no multiply saturates. A sum of
// `init` and n such terms keeps every prefix, and every lane partial sum
// (a subset of the terms), inside [-INT32_MAX, INT32_MAX] when
// |init| + n*T <= INT32_MAX (fits). Under that one inequality the
// sequential saturating reference never saturates, and plain wrap-free
// int32 lane arithmetic gives the same words with zero saturation events.

inline constexpr std::uint64_t kRawLimit = q20detail::kRawMax;

/// Bound on |q_mul(a, b)| over |a| <= amax, |b| <= bmax (both <= 2^31, so
/// the product is exact); above INT32_MAX when a multiply may saturate.
inline std::uint64_t mul_bound(std::uint64_t amax,
                               std::uint64_t bmax) noexcept {
  return (amax * bmax + q20detail::kRoundBias) >> q20detail::kFrac;
}

/// base + count * term <= INT32_MAX, evaluated without overflow (and
/// without a division: this runs once per matrix row).
inline bool fits(std::uint64_t base, std::uint64_t count,
                 std::uint64_t term) noexcept {
  std::uint64_t reach = 0;
  return base <= kRawLimit && !__builtin_mul_overflow(count, term, &reach) &&
         reach <= kRawLimit - base;
}

inline std::uint64_t abs_u64(std::int32_t v) noexcept {
  return static_cast<std::uint64_t>(std::abs(static_cast<std::int64_t>(v)));
}

// Lane groups: full groups of 8 words, then at most one masked partial
// group whose missing lanes load as 0 (a zero word contributes a zero
// product and a zero magnitude to every kernel below).
struct Whole {};
struct Part {
  __m256i mask;
};

inline __m256i load(const std::int32_t* p, Whole) noexcept {
  return _mm256_loadu_si256(reinterpret_cast<const __m256i*>(p));
}
inline __m256i load(const std::int32_t* p, Part part) noexcept {
  return _mm256_maskload_epi32(p, part.mask);
}
inline void store(std::int32_t* p, __m256i v, Whole) noexcept {
  _mm256_storeu_si256(reinterpret_cast<__m256i*>(p), v);
}
inline void store(std::int32_t* p, __m256i v, Part part) noexcept {
  _mm256_maskstore_epi32(p, part.mask, v);
}

/// Calls body(offset, lanes) over n words, 8 at a time.
template <class Body>
inline void for_groups(std::size_t n, Body&& body) noexcept {
  std::size_t j = 0;
  for (; j + 8 <= n; j += 8) body(j, Whole{});
  if (j < n) {
    const __m256i lane = _mm256_setr_epi32(0, 1, 2, 3, 4, 5, 6, 7);
    const auto count = static_cast<std::int32_t>(n - j);
    body(j, Part{_mm256_cmpgt_epi32(_mm256_set1_epi32(count), lane)});
  }
}

/// Running max of |v| in unsigned lanes: abs(INT32_MIN) is 0x80000000,
/// which read unsigned is its true magnitude 2^31.
inline __m256i max_abs(__m256i running, __m256i v) noexcept {
  return _mm256_max_epu32(running, _mm256_abs_epi32(v));
}

inline std::uint64_t hmax_u32(__m256i v) noexcept {
  __m128i m = _mm_max_epu32(_mm256_castsi256_si128(v),
                            _mm256_extracti128_si256(v, 1));
  m = _mm_max_epu32(m, _mm_shuffle_epi32(m, _MM_SHUFFLE(1, 0, 3, 2)));
  m = _mm_max_epu32(m, _mm_shuffle_epi32(m, _MM_SHUFFLE(2, 3, 0, 1)));
  return static_cast<std::uint32_t>(_mm_cvtsi128_si32(m));
}

inline std::uint64_t max_abs_of(const std::int32_t* p,
                                std::size_t n) noexcept {
  __m256i m = _mm256_setzero_si256();
  for_groups(n, [&](std::size_t j, auto lanes) {
    m = max_abs(m, load(p + j, lanes));
  });
  return hmax_u32(m);
}

inline std::int32_t hsum_i32(__m256i v) noexcept {
  __m128i s = _mm_add_epi32(_mm256_castsi256_si128(v),
                            _mm256_extracti128_si256(v, 1));
  s = _mm_add_epi32(s, _mm_shuffle_epi32(s, _MM_SHUFFLE(1, 0, 3, 2)));
  s = _mm_add_epi32(s, _mm_shuffle_epi32(s, _MM_SHUFFLE(2, 3, 0, 1)));
  return _mm_cvtsi128_si32(s);
}

/// The odd dwords of v moved down to the even positions, where
/// _mm256_mul_epi32 reads its operands. A broadcast is its own odd_lanes.
inline __m256i odd_lanes(__m256i v) noexcept {
  return _mm256_shuffle_epi32(v, _MM_SHUFFLE(3, 3, 1, 1));
}

/// Q20 multiply of 8 int32 lanes, exact when no product saturates: the
/// rounded product (a*b + 2^19) >> 20 then fits int32, so its word is
/// bits 20..51 of the 64-bit sum. _mm256_mul_epi32 multiplies the even
/// lanes and, on the odd_lanes operands, the odd ones; one blend
/// interleaves the two results.
inline __m256i q20_mul8(__m256i a, __m256i a_odd, __m256i b,
                        __m256i b_odd) noexcept {
  // Materialized per call site (the compiler hoists it out of loops); a
  // namespace-scope __m256i constant would run AVX instructions during
  // static initialization, before the runtime dispatcher can rule them out.
  const __m256i bias = _mm256_set1_epi64x(q20detail::kRoundBias);
  const __m256i even = _mm256_add_epi64(_mm256_mul_epi32(a, b), bias);
  const __m256i odd = _mm256_add_epi64(_mm256_mul_epi32(a_odd, b_odd), bias);
  return _mm256_blend_epi32(_mm256_srli_epi64(even, q20detail::kFrac),
                            _mm256_slli_epi64(odd, 32 - q20detail::kFrac),
                            0xAA);
}

/// y[r] = init + sum_j m(r, j) * x[j] for R rows of stride n, sharing
/// each x group across the rows. Proof per row: every term is bounded by
/// mul_bound(max|row r|, x_max) -- the row's max-abs is scanned in the
/// same pass, x_max by the caller beforehand -- and |init| + n * bound
/// <= INT32_MAX. Nothing is written for a row before its proof is
/// checked; a row whose proof fails is the scalar reference dot.
template <std::size_t R>
inline void dot_rows(const std::int32_t* m, std::size_t n,
                     const std::int32_t* x, std::uint64_t x_max,
                     std::int32_t init, std::int32_t* y,
                     Q20SatCounts& sat) noexcept {
  __m256i sum[R];
  __m256i row_max[R];
  for (std::size_t r = 0; r < R; ++r) {
    sum[r] = _mm256_setzero_si256();
    row_max[r] = _mm256_setzero_si256();
  }
  for_groups(n, [&](std::size_t j, auto lanes) {
    const __m256i xv = load(x + j, lanes);
    const __m256i x_odd = odd_lanes(xv);
    for (std::size_t r = 0; r < R; ++r) {
      const __m256i av = load(m + r * n + j, lanes);
      row_max[r] = max_abs(row_max[r], av);
      sum[r] = _mm256_add_epi32(sum[r],
                                q20_mul8(av, odd_lanes(av), xv, x_odd));
    }
  });
  for (std::size_t r = 0; r < R; ++r) {
    y[r] = fits(abs_u64(init), n, mul_bound(hmax_u32(row_max[r]), x_max))
               ? init + hsum_i32(sum[r])
               : scalar::q20_dot(m + r * n, x, n, init, sat);
  }
}

}  // namespace

// ---------------------------------------------------------------------------
// Double kernels
// ---------------------------------------------------------------------------

double dot(const double* a, const double* b, std::size_t n) noexcept {
  __m256d acc0 = _mm256_setzero_pd();
  __m256d acc1 = _mm256_setzero_pd();
  std::size_t j = 0;
  for (; j + 8 <= n; j += 8) {
    acc0 = _mm256_fmadd_pd(_mm256_loadu_pd(a + j), _mm256_loadu_pd(b + j),
                           acc0);
    acc1 = _mm256_fmadd_pd(_mm256_loadu_pd(a + j + 4),
                           _mm256_loadu_pd(b + j + 4), acc1);
  }
  if (j + 4 <= n) {
    acc0 = _mm256_fmadd_pd(_mm256_loadu_pd(a + j), _mm256_loadu_pd(b + j),
                           acc0);
    j += 4;
  }
  double sum = hsum(_mm256_add_pd(acc0, acc1));
  for (; j < n; ++j) sum = std::fma(a[j], b[j], sum);
  return sum;
}

void axpy(double* y, double a, const double* x, std::size_t n) noexcept {
  const __m256d av = _mm256_set1_pd(a);
  std::size_t j = 0;
  for (; j + 8 <= n; j += 8) {
    _mm256_storeu_pd(
        y + j, _mm256_fmadd_pd(av, _mm256_loadu_pd(x + j),
                               _mm256_loadu_pd(y + j)));
    _mm256_storeu_pd(
        y + j + 4, _mm256_fmadd_pd(av, _mm256_loadu_pd(x + j + 4),
                                   _mm256_loadu_pd(y + j + 4)));
  }
  if (j + 4 <= n) {
    _mm256_storeu_pd(
        y + j, _mm256_fmadd_pd(av, _mm256_loadu_pd(x + j),
                               _mm256_loadu_pd(y + j)));
    j += 4;
  }
  for (; j < n; ++j) y[j] = std::fma(a, x[j], y[j]);
}

void bias_activate(double* h, const double* bias, std::size_t n,
                   Act act) noexcept {
  if (act == Act::kSigmoid || act == Act::kTanh) {
    // Transcendental activations stay on libm in every mode.
    for (std::size_t j = 0; j < n; ++j) {
      h[j] = act_scalar(act, h[j] + bias[j]);
    }
    return;
  }
  const bool relu = act == Act::kReLU;
  std::size_t j = 0;
  for (; j + 4 <= n; j += 4) {
    __m256d t = _mm256_add_pd(_mm256_loadu_pd(h + j),
                              _mm256_loadu_pd(bias + j));
    if (relu) t = relu_pd(t);
    _mm256_storeu_pd(h + j, t);
  }
  for (; j < n; ++j) h[j] = act_scalar(act, h[j] + bias[j]);
}

void act_combine(const double* shared, const double* last_row, double code,
                 const double* bias, double* h_out, std::size_t n,
                 Act act) noexcept {
  if (act == Act::kSigmoid || act == Act::kTanh) {
    // fma matches the vector lanes of axpy/act_combine elsewhere in this
    // TU, so every element sees identical arithmetic regardless of path.
    for (std::size_t j = 0; j < n; ++j) {
      h_out[j] =
          act_scalar(act, std::fma(code, last_row[j], shared[j]) + bias[j]);
    }
    return;
  }
  const bool relu = act == Act::kReLU;
  const __m256d codev = _mm256_set1_pd(code);
  std::size_t j = 0;
  for (; j + 4 <= n; j += 4) {
    __m256d t = _mm256_fmadd_pd(codev, _mm256_loadu_pd(last_row + j),
                                _mm256_loadu_pd(shared + j));
    t = _mm256_add_pd(t, _mm256_loadu_pd(bias + j));
    if (relu) t = relu_pd(t);
    _mm256_storeu_pd(h_out + j, t);
  }
  for (; j < n; ++j) {
    const double t = std::fma(code, last_row[j], shared[j]) + bias[j];
    h_out[j] = act_scalar(act, t);
  }
}

double fused_act_dot(const double* shared, const double* last_row,
                     double code, const double* bias, const double* beta,
                     std::size_t n, Act act) noexcept {
  __m256d acc0 = _mm256_setzero_pd();
  __m256d acc1 = _mm256_setzero_pd();
  std::size_t j = 0;
  if (act == Act::kReLU || act == Act::kLinear) {
    const bool relu = act == Act::kReLU;
    const __m256d codev = _mm256_set1_pd(code);
    const auto h4 = [&](std::size_t at) noexcept {
      __m256d t = _mm256_fmadd_pd(codev, _mm256_loadu_pd(last_row + at),
                                  _mm256_loadu_pd(shared + at));
      t = _mm256_add_pd(t, _mm256_loadu_pd(bias + at));
      return relu ? relu_pd(t) : t;
    };
    for (; j + 8 <= n; j += 8) {
      acc0 = _mm256_fmadd_pd(h4(j), _mm256_loadu_pd(beta + j), acc0);
      acc1 = _mm256_fmadd_pd(h4(j + 4), _mm256_loadu_pd(beta + j + 4), acc1);
    }
    if (j + 4 <= n) {
      acc0 = _mm256_fmadd_pd(h4(j), _mm256_loadu_pd(beta + j), acc0);
      j += 4;
    }
  } else {
    // Sigmoid/tanh: compute activations through libm into a staging block,
    // keeping the exact dot() reduction structure over the lanes.
    alignas(32) double buf[8];
    const auto fill = [&](std::size_t at, std::size_t count) noexcept {
      for (std::size_t k = 0; k < count; ++k) {
        const double t =
            std::fma(code, last_row[at + k], shared[at + k]) + bias[at + k];
        buf[k] = act_scalar(act, t);
      }
    };
    for (; j + 8 <= n; j += 8) {
      fill(j, 8);
      acc0 = _mm256_fmadd_pd(_mm256_load_pd(buf), _mm256_loadu_pd(beta + j),
                             acc0);
      acc1 = _mm256_fmadd_pd(_mm256_load_pd(buf + 4),
                             _mm256_loadu_pd(beta + j + 4), acc1);
    }
    if (j + 4 <= n) {
      fill(j, 4);
      acc0 = _mm256_fmadd_pd(_mm256_load_pd(buf), _mm256_loadu_pd(beta + j),
                             acc0);
      j += 4;
    }
  }
  double sum = hsum(_mm256_add_pd(acc0, acc1));
  for (; j < n; ++j) {
    const double t = std::fma(code, last_row[j], shared[j]) + bias[j];
    sum = std::fma(act_scalar(act, t), beta[j], sum);
  }
  return sum;
}

void mirror_lower(double* p, std::size_t n) noexcept {
  // Mirror the upper triangle down. Off-diagonal 16x16 tiles decompose
  // into 4x4 in-register transposes (unpack + 128-bit permute), turning
  // the column walk into contiguous loads and stores; diagonal and
  // remainder tiles fall back to the scalar walk (pure copies, so every
  // path is bit-identical).
  constexpr std::size_t kTile = 16;
  const auto transpose4x4 = [p, n](std::size_t src_row,
                                   std::size_t dst_row) noexcept {
    // dst rows dst_row..+3 cols src_row..+3 receive the transpose of
    // src rows src_row..+3 cols dst_row..+3.
    __m256d t[4];
    for (std::size_t i = 0; i < 4; ++i) {
      t[i] = _mm256_loadu_pd(p + (src_row + i) * n + dst_row);
    }
    transpose4(t);
    for (std::size_t i = 0; i < 4; ++i) {
      _mm256_storeu_pd(p + (dst_row + i) * n + src_row, t[i]);
    }
  };
  for (std::size_t t0 = 0; t0 < n; t0 += kTile) {
    const std::size_t t1 = std::min(t0 + kTile, n);
    for (std::size_t i = t0 + 1; i < t1; ++i) {  // diagonal tile
      double* row = p + i * n;
      for (std::size_t j = t0; j < i; ++j) row[j] = p[j * n + i];
    }
    const bool full_rows = t1 == t0 + kTile;
    for (std::size_t j0 = 0; j0 < t0; j0 += kTile) {  // tiles left of it
      if (full_rows) {
        for (std::size_t jj = j0; jj < j0 + kTile; jj += 4) {
          for (std::size_t ii = t0; ii < t0 + kTile; ii += 4) {
            transpose4x4(jj, ii);
          }
        }
      } else {
        for (std::size_t i = t0; i < t1; ++i) {
          double* row = p + i * n;
          for (std::size_t j = j0; j < j0 + kTile; ++j) {
            row[j] = p[j * n + i];
          }
        }
      }
    }
  }
}

void sym_rank1_update(double* p, std::size_t n, const double* u, double inv,
                      double p_scale) noexcept {
  for (std::size_t i = 0; i < n; ++i) {
    const double scaled = u[i] * inv;
    double* row = p + i * n;
    std::size_t j = i;
    if (p_scale == 1.0) {
      if (scaled == 0.0) continue;
      const __m256d sv = _mm256_set1_pd(scaled);
      for (; j + 4 <= n; j += 4) {
        _mm256_storeu_pd(
            row + j, _mm256_fnmadd_pd(sv, _mm256_loadu_pd(u + j),
                                      _mm256_loadu_pd(row + j)));
      }
      for (; j < n; ++j) row[j] = std::fma(-scaled, u[j], row[j]);
    } else {
      const __m256d sv = _mm256_set1_pd(scaled);
      const __m256d ps = _mm256_set1_pd(p_scale);
      for (; j + 4 <= n; j += 4) {
        const __m256d t = _mm256_fnmadd_pd(sv, _mm256_loadu_pd(u + j),
                                           _mm256_loadu_pd(row + j));
        _mm256_storeu_pd(row + j, _mm256_mul_pd(t, ps));
      }
      for (; j < n; ++j) {
        row[j] = std::fma(-scaled, u[j], row[j]) * p_scale;
      }
    }
  }
  mirror_lower(p, n);
}

namespace {

// Register tiles of R rows by Q quads (4 doubles each). A tile's
// accumulators are loaded (or zeroed) once, take every term in order, and
// are stored once. A vector lane and the std::fma of a column tail run the
// same fused operation, so a value never depends on its tile.

/// Rows i .. i+R-1, columns j .. j+4Q-1 of P take -g_c[row] * u_c[col]
/// for c = 0 .. k-1 in order.
template <std::size_t R, std::size_t Q>
inline void downdate_tile(double* p, std::size_t n, const double* gt,
                          const double* ut, std::size_t k, std::size_t i,
                          std::size_t j) noexcept {
  __m256d acc[R][Q];
  for (std::size_t r = 0; r < R; ++r) {
    for (std::size_t q = 0; q < Q; ++q) {
      acc[r][q] = _mm256_loadu_pd(p + (i + r) * n + j + 4 * q);
    }
  }
  for (std::size_t c = 0; c < k; ++c) {
    __m256d u[Q];
    for (std::size_t q = 0; q < Q; ++q) {
      u[q] = _mm256_loadu_pd(ut + c * n + j + 4 * q);
    }
    for (std::size_t r = 0; r < R; ++r) {
      const __m256d g = _mm256_set1_pd(-gt[c * n + i + r]);
      for (std::size_t q = 0; q < Q; ++q) {
        acc[r][q] = _mm256_fmadd_pd(g, u[q], acc[r][q]);
      }
    }
  }
  for (std::size_t r = 0; r < R; ++r) {
    for (std::size_t q = 0; q < Q; ++q) {
      _mm256_storeu_pd(p + (i + r) * n + j + 4 * q, acc[r][q]);
    }
  }
}

/// Rows i .. i+R-1 from column i on. For R > 1 the later rows' first
/// columns lie below the diagonal; the mirror overwrites them.
template <std::size_t R>
inline void downdate_rows(double* p, std::size_t n, const double* gt,
                          const double* ut, std::size_t k,
                          std::size_t i) noexcept {
  std::size_t j = i;
  for (; j + 16 <= n; j += 16) downdate_tile<R, 4>(p, n, gt, ut, k, i, j);
  for (; j + 4 <= n; j += 4) downdate_tile<R, 1>(p, n, gt, ut, k, i, j);
  for (std::size_t r = i; r < i + R; ++r) {
    for (std::size_t col = j; col < n; ++col) {
      double acc = p[r * n + col];
      for (std::size_t c = 0; c < k; ++c) {
        acc = std::fma(-gt[c * n + r], ut[c * n + col], acc);
      }
      p[r * n + col] = acc;
    }
  }
}

/// Rows r .. r+R-1, columns j .. j+4Q-1 of C = A B.
template <std::size_t R, std::size_t Q>
inline void gemm_tile(const double* a, const double* b, double* c,
                      std::size_t inner, std::size_t n, std::size_t r,
                      std::size_t j) noexcept {
  __m256d acc[R][Q];
  for (std::size_t rr = 0; rr < R; ++rr) {
    for (std::size_t q = 0; q < Q; ++q) acc[rr][q] = _mm256_setzero_pd();
  }
  for (std::size_t l = 0; l < inner; ++l) {
    __m256d bv[Q];
    for (std::size_t q = 0; q < Q; ++q) {
      bv[q] = _mm256_loadu_pd(b + l * n + j + 4 * q);
    }
    for (std::size_t rr = 0; rr < R; ++rr) {
      const __m256d av = _mm256_set1_pd(a[(r + rr) * inner + l]);
      for (std::size_t q = 0; q < Q; ++q) {
        acc[rr][q] = _mm256_fmadd_pd(av, bv[q], acc[rr][q]);
      }
    }
  }
  for (std::size_t rr = 0; rr < R; ++rr) {
    for (std::size_t q = 0; q < Q; ++q) {
      _mm256_storeu_pd(c + (r + rr) * n + j + 4 * q, acc[rr][q]);
    }
  }
}

template <std::size_t R>
inline void gemm_rows(const double* a, const double* b, double* c,
                      std::size_t inner, std::size_t n,
                      std::size_t r) noexcept {
  std::size_t j = 0;
  for (; j + 8 <= n; j += 8) gemm_tile<R, 2>(a, b, c, inner, n, r, j);
  for (; j + 4 <= n; j += 4) gemm_tile<R, 1>(a, b, c, inner, n, r, j);
  for (std::size_t rr = r; rr < r + R; ++rr) {
    for (std::size_t col = j; col < n; ++col) {
      double acc = 0.0;
      for (std::size_t l = 0; l < inner; ++l) {
        acc = std::fma(a[rr * inner + l], b[l * n + col], acc);
      }
      c[rr * n + col] = acc;
    }
  }
}

}  // namespace

void sym_rankk_downdate(double* p, std::size_t n, const double* gt,
                        const double* ut, std::size_t k) noexcept {
  std::size_t i = 0;
  for (; i + 2 <= n; i += 2) downdate_rows<2>(p, n, gt, ut, k, i);
  if (i < n) downdate_rows<1>(p, n, gt, ut, k, i);
  mirror_lower(p, n);
}

void gemm(const double* a, const double* b, double* c, std::size_t m,
          std::size_t inner, std::size_t n) noexcept {
  std::size_t r = 0;
  for (; r + 4 <= m; r += 4) gemm_rows<4>(a, b, c, inner, n, r);
  for (; r < m; ++r) gemm_rows<1>(a, b, c, inner, n, r);
}

// ---------------------------------------------------------------------------
// Q20 kernels
// ---------------------------------------------------------------------------

void q20_hidden_mac(const std::int32_t* a, std::size_t rows,
                    std::size_t units, const std::int32_t* x,
                    const std::int32_t* init, std::int32_t* out, bool relu,
                    Q20SatCounts& sat) noexcept {
  // Proof, before any store: row i adds one term per column, bounded by
  // T_i = mul_bound(|x[i]|, max|row i of a|). Each column's accumulation
  // starts at |init[j]| <= max|init|, so max|init| + sum_i T_i <=
  // INT32_MAX keeps every column's every prefix inside int32.
  std::uint64_t reach = max_abs_of(init, units);
  for (std::size_t i = 0; i < rows; ++i) {
    const std::uint64_t term =
        mul_bound(abs_u64(x[i]), max_abs_of(a + i * units, units));
    if (!fits(reach, 1, term)) {
      scalar::q20_hidden_mac(a, rows, units, x, init, out, relu, sat);
      return;
    }
    reach += term;
  }
  for_groups(units, [&](std::size_t j, auto lanes) {
    __m256i acc = load(init + j, lanes);
    for (std::size_t i = 0; i < rows; ++i) {
      const __m256i av = load(a + i * units + j, lanes);
      const __m256i xi = _mm256_set1_epi32(x[i]);
      acc = _mm256_add_epi32(acc, q20_mul8(av, odd_lanes(av), xi, xi));
    }
    if (relu) acc = _mm256_max_epi32(acc, _mm256_setzero_si256());
    store(out + j, acc, lanes);
  });
}

std::int32_t q20_dot(const std::int32_t* a, const std::int32_t* b,
                     std::size_t n, std::int32_t init,
                     Q20SatCounts& sat) noexcept {
  std::int32_t out = 0;
  dot_rows<1>(a, n, b, max_abs_of(b, n), init, &out, sat);
  return out;
}

std::int32_t q20_action_dot(const std::int32_t* shared,
                            const std::int32_t* last_row, std::int32_t code,
                            const std::int32_t* beta, std::size_t units,
                            Q20SatCounts& sat) noexcept {
  // Proof, from max-abs values scanned in the same pass: the correction
  // code*last_row[j] is bounded by T1 = mul_bound(|code|, max|last_row|),
  // so max|shared| + T1 <= INT32_MAX makes the pre-activation exact with
  // 0 <= relu(h) <= H = max|shared| + T1. Each output term is bounded by
  // T2 = mul_bound(H, max|beta|), and units * T2 <= INT32_MAX keeps the
  // accumulation (seeded at 0) exact.
  const __m256i codev = _mm256_set1_epi32(code);
  __m256i sum = _mm256_setzero_si256();
  __m256i shared_max = _mm256_setzero_si256();
  __m256i last_max = _mm256_setzero_si256();
  __m256i beta_max = _mm256_setzero_si256();
  for_groups(units, [&](std::size_t j, auto lanes) {
    const __m256i sv = load(shared + j, lanes);
    const __m256i lv = load(last_row + j, lanes);
    const __m256i bv = load(beta + j, lanes);
    shared_max = max_abs(shared_max, sv);
    last_max = max_abs(last_max, lv);
    beta_max = max_abs(beta_max, bv);
    const __m256i h = _mm256_max_epi32(
        _mm256_add_epi32(sv, q20_mul8(lv, odd_lanes(lv), codev, codev)),
        _mm256_setzero_si256());
    sum = _mm256_add_epi32(sum, q20_mul8(h, odd_lanes(h), bv, odd_lanes(bv)));
  });
  const std::uint64_t h_max = hmax_u32(shared_max);
  const std::uint64_t corr = mul_bound(abs_u64(code), hmax_u32(last_max));
  if (fits(h_max, 1, corr) &&
      fits(0, units, mul_bound(h_max + corr, hmax_u32(beta_max)))) {
    return hsum_i32(sum);
  }
  return scalar::q20_action_dot(shared, last_row, code, beta, units, sat);
}

void q20_matvec(const std::int32_t* m, std::size_t n, const std::int32_t* x,
                std::int32_t* y, Q20SatCounts& sat) noexcept {
  // Four rows at a time share each x group; every row is proven (or
  // falls back) on its own.
  const std::uint64_t x_max = max_abs_of(x, n);
  std::size_t i = 0;
  for (; i + 4 <= n; i += 4) dot_rows<4>(m + i * n, n, x, x_max, 0, y + i, sat);
  for (; i < n; ++i) dot_rows<1>(m + i * n, n, x, x_max, 0, y + i, sat);
}

void q20_rank1_downdate(std::int32_t* p, std::size_t n,
                        const std::int32_t* u, std::int32_t inv,
                        std::int32_t* scaled_ws, Q20SatCounts& sat) noexcept {
  // The O(n) scaled vector goes through the scalar primitives (counted
  // directly). Proof for row i, before it is stored: every product
  // scaled[i]*u[j] is bounded by T_i = mul_bound(|scaled[i]|, max|u|), so
  // max|row i| + T_i <= INT32_MAX keeps every p(i, j) - product inside
  // int32. A row whose proof fails goes through the scalar reference row.
  for (std::size_t i = 0; i < n; ++i) {
    scaled_ws[i] = q20detail::q_mul(u[i], inv, sat);
  }
  const std::uint64_t u_max = max_abs_of(u, n);
  for (std::size_t i = 0; i < n; ++i) {
    const std::int32_t scaled = scaled_ws[i];
    std::int32_t* row = p + i * n;
    if (!fits(max_abs_of(row, n), 1, mul_bound(abs_u64(scaled), u_max))) {
      q20detail::q_downdate_row(row, u, n, scaled, sat);
      continue;
    }
    const __m256i sv = _mm256_set1_epi32(scaled);
    for_groups(n, [&](std::size_t j, auto lanes) {
      const __m256i uv = load(u + j, lanes);
      const __m256i prod = q20_mul8(uv, odd_lanes(uv), sv, sv);
      store(row + j, _mm256_sub_epi32(load(row + j, lanes), prod), lanes);
    });
  }
}

void q20_axpy(std::int32_t* y, std::int32_t a, const std::int32_t* x,
              std::size_t n, Q20SatCounts& sat) noexcept {
  // Proof, before any store: every product a*x[j] is bounded by
  // T = mul_bound(|a|, max|x|), so max|y| + T <= INT32_MAX keeps every
  // y[j] + product inside int32.
  if (!fits(max_abs_of(y, n), 1, mul_bound(abs_u64(a), max_abs_of(x, n)))) {
    scalar::q20_axpy(y, a, x, n, sat);
    return;
  }
  const __m256i av = _mm256_set1_epi32(a);
  for_groups(n, [&](std::size_t j, auto lanes) {
    const __m256i xv = load(x + j, lanes);
    const __m256i prod = q20_mul8(xv, odd_lanes(xv), av, av);
    store(y + j, _mm256_add_epi32(load(y + j, lanes), prod), lanes);
  });
}

void q20_quantize(const double* src, std::int32_t* dst, std::size_t n,
                  Q20SatCounts& sat) noexcept {
  const __m256d scale = _mm256_set1_pd(1048576.0);
  const __m256d hi = _mm256_set1_pd(2147483647.0);
  const __m256d lo = _mm256_set1_pd(-2147483648.0);
  const __m256d half_pos = _mm256_set1_pd(0.5);
  const __m256d half_neg = _mm256_set1_pd(-0.5);
  std::size_t i = 0;
  for (; i + 4 <= n; i += 4) {
    const __m256d scaled = _mm256_mul_pd(_mm256_loadu_pd(src + i), scale);
    const __m256d over = _mm256_cmp_pd(scaled, hi, _CMP_GE_OQ);
    const __m256d under = _mm256_cmp_pd(scaled, lo, _CMP_LE_OQ);
    if (_mm256_movemask_pd(_mm256_or_pd(over, under)) != 0) {
      for (std::size_t c = i; c < i + 4; ++c) {
        dst[c] = q20detail::q_from_double(src[c], sat);
      }
      continue;
    }
    const __m256d nonneg =
        _mm256_cmp_pd(scaled, _mm256_setzero_pd(), _CMP_GE_OQ);
    const __m256d offset = _mm256_blendv_pd(half_neg, half_pos, nonneg);
    // cvttpd truncates toward zero, matching the reference's int cast.
    const __m128i words = _mm256_cvttpd_epi32(_mm256_add_pd(scaled, offset));
    _mm_storeu_si128(reinterpret_cast<__m128i*>(dst + i), words);
  }
  for (; i < n; ++i) dst[i] = q20detail::q_from_double(src[i], sat);
}

void q20_dequantize(const std::int32_t* src, double* dst,
                    std::size_t n) noexcept {
  // Multiplying by the exact power-of-two reciprocal equals the
  // reference's division bit-for-bit.
  const __m256d inv_scale = _mm256_set1_pd(1.0 / 1048576.0);
  std::size_t i = 0;
  for (; i + 4 <= n; i += 4) {
    const __m256d values = _mm256_cvtepi32_pd(
        _mm_loadu_si128(reinterpret_cast<const __m128i*>(src + i)));
    _mm256_storeu_pd(dst + i, _mm256_mul_pd(values, inv_scale));
  }
  for (; i < n; ++i) dst[i] = static_cast<double>(src[i]) / 1048576.0;
}

// ---------------------------------------------------------------------------
// DQN-baseline MLP and Adam kernels
// ---------------------------------------------------------------------------
//
// No FMA in this section: every term is one _mm256_mul_pd and one
// _mm256_add_pd with the reference's operand order, every sum starts from
// 0.0 and runs in the reference's index order, so each element rounds
// exactly like the scalar loops in nn::Mlp and nn::AdamOptimizer.

namespace {

/// A whole group of 4 doubles, or the first `count` < 4 lanes of one
/// (missing lanes load as 0.0 and are never stored).
struct Quad {};
struct QuadPart {
  std::size_t count;
  __m256i mask;
};

inline __m256i first_lanes(std::size_t count) noexcept {
  return _mm256_cmpgt_epi64(
      _mm256_set1_epi64x(static_cast<long long>(count)),
      _mm256_setr_epi64x(0, 1, 2, 3));
}

inline std::size_t width(Quad) noexcept { return 4; }
inline std::size_t width(const QuadPart& part) noexcept { return part.count; }

inline __m256d load(const double* p, Quad) noexcept {
  return _mm256_loadu_pd(p);
}
inline __m256d load(const double* p, const QuadPart& part) noexcept {
  return _mm256_maskload_pd(p, part.mask);
}
inline void store(double* p, __m256d v, Quad) noexcept {
  _mm256_storeu_pd(p, v);
}
inline void store(double* p, __m256d v, const QuadPart& part) noexcept {
  _mm256_maskstore_pd(p, part.mask, v);
}

/// Calls body(offset, quad) over n doubles, 4 at a time.
template <class Body>
inline void for_quads(std::size_t n, Body&& body) noexcept {
  std::size_t j = 0;
  for (; j + 4 <= n; j += 4) body(j, Quad{});
  if (j < n) body(j, QuadPart{n - j, first_lanes(n - j)});
}

/// Stores the first C lanes of v.
template <std::size_t C>
inline void store_first(double* p, __m256d v) noexcept {
  if constexpr (C == 4) {
    _mm256_storeu_pd(p, v);
  } else {
    _mm256_maskstore_pd(p, first_lanes(C), v);
  }
}

inline __m256d mul_add(__m256d acc, __m256d a, __m256d b) noexcept {
  return _mm256_add_pd(acc, _mm256_mul_pd(a, b));
}

/// The four rows of a batch block; rows past the batch repeat its last
/// row, so they compute and store that row's values again.
struct RowBlock {
  const double* x[4];
  double* h_pre[4];
  double* h[4];
  double* out[4];
};

/// Outputs [c0, c0 + C) of one row block: out = h w2 + b2 with the four
/// rows in the lanes (h's 4x4 tiles transposed, so a vector is one hidden
/// unit over the rows). When c0 == 0 the same pass first computes layer 1
/// (h_pre = x w1 + b1, h = relu(h_pre)) a group of units at a time;
/// later output groups read h back.
template <std::size_t C>
void forward_block(const RowBlock& rows, const double* w1, const double* b1,
                   const double* w2, const double* b2, const MlpShape& shape,
                   std::size_t c0) noexcept {
  const std::size_t units = shape.hidden;
  const __m256d zero = _mm256_setzero_pd();
  __m256d acc[C];
  for (__m256d& a : acc) a = zero;
  for_quads(units, [&](std::size_t j, auto quad) {
    __m256d t[4];
    if (c0 == 0) {
      for (__m256d& v : t) v = zero;
      for (std::size_t k = 0; k < shape.input; ++k) {
        const __m256d w = load(w1 + k * units + j, quad);
        for (std::size_t i = 0; i < 4; ++i) {
          t[i] = mul_add(t[i], _mm256_broadcast_sd(rows.x[i] + k), w);
        }
      }
      const __m256d bias = load(b1 + j, quad);
      for (std::size_t i = 0; i < 4; ++i) {
        t[i] = _mm256_add_pd(t[i], bias);
        store(rows.h_pre[i] + j, t[i], quad);
        // max(0, pre) returns its second operand for NaN and for -0.0,
        // exactly like `pre < 0 ? 0 : pre`.
        t[i] = _mm256_max_pd(zero, t[i]);
        store(rows.h[i] + j, t[i], quad);
      }
    } else {
      for (std::size_t i = 0; i < 4; ++i) t[i] = load(rows.h[i] + j, quad);
    }
    transpose4(t);
    for (std::size_t l = 0; l < width(quad); ++l) {
      const double* w = w2 + (j + l) * shape.output + c0;
      for (std::size_t c = 0; c < C; ++c) {
        acc[c] = mul_add(acc[c], t[l], _mm256_broadcast_sd(w + c));
      }
    }
  });
  __m256d out[4] = {zero, zero, zero, zero};
  for (std::size_t c = 0; c < C; ++c) {
    out[c] = _mm256_add_pd(acc[c], _mm256_broadcast_sd(b2 + c0 + c));
  }
  transpose4(out);
  for (std::size_t i = 0; i < 4; ++i) store_first<C>(rows.out[i] + c0, out[i]);
}

/// dw2 columns [c0, c0 + C) = h^T dout, a group of 4 hidden units (the
/// lanes) at a time, summed over the batch. A zero h adds +0.0, like
/// matmul_at_b's skip; the unordered != keeps NaN terms.
template <std::size_t C>
void backward_w2(const double* h, const double* dout, const MlpShape& shape,
                 std::size_t c0, double* dw2) noexcept {
  const std::size_t units = shape.hidden;
  const std::size_t outputs = shape.output;
  const __m256d zero = _mm256_setzero_pd();
  for_quads(units, [&](std::size_t j, auto quad) {
    __m256d acc[4] = {zero, zero, zero, zero};
    for (std::size_t r = 0; r < shape.batch; ++r) {
      const __m256d hv = load(h + r * units + j, quad);
      const __m256d live = _mm256_cmp_pd(hv, zero, _CMP_NEQ_UQ);
      const double* d = dout + r * outputs + c0;
      for (std::size_t c = 0; c < C; ++c) {
        acc[c] = _mm256_add_pd(
            acc[c],
            _mm256_and_pd(live, _mm256_mul_pd(hv, _mm256_broadcast_sd(d + c))));
      }
    }
    transpose4(acc);  // acc[l]: unit j + l over the C outputs
    for (std::size_t l = 0; l < width(quad); ++l) {
      store_first<C>(dw2 + (j + l) * outputs + c0, acc[l]);
    }
  });
}

/// Hidden units [j, j + width) of dh, db1 and dw1 rows [k0, k0 + K),
/// summed over the batch in registers. When k0 == 0 the same pass first
/// forms dh = dout w2^T (w2t holds w2^T), zeroes it where h_pre <= 0 (the
/// ordered compare keeps NaN) and sums db1; later input groups read dh
/// back. A zero x adds +0.0, like matmul_at_b's skip (the unordered !=
/// keeps NaN terms).
template <std::size_t K, class Q>
void backward_units(const double* x, const double* h_pre, const double* dout,
                    const double* w2t, const MlpShape& shape, std::size_t j,
                    Q quad, std::size_t k0, double* dw1, double* db1,
                    double* dh) noexcept {
  const std::size_t units = shape.hidden;
  const __m256d zero = _mm256_setzero_pd();
  __m256d acc[K];
  for (__m256d& a : acc) a = zero;
  __m256d bias_sum = zero;
  for (std::size_t r = 0; r < shape.batch; ++r) {
    double* dh_at = dh + r * units + j;
    __m256d g;
    if (k0 == 0) {
      g = zero;
      const double* d = dout + r * shape.output;
      for (std::size_t c = 0; c < shape.output; ++c) {
        g = mul_add(g, _mm256_broadcast_sd(d + c),
                    load(w2t + c * units + j, quad));
      }
      const __m256d dead = _mm256_cmp_pd(load(h_pre + r * units + j, quad),
                                         zero, _CMP_LE_OQ);
      g = _mm256_andnot_pd(dead, g);
      store(dh_at, g, quad);
      bias_sum = _mm256_add_pd(bias_sum, g);
    } else {
      g = load(dh_at, quad);
    }
    const double* xr = x + r * shape.input + k0;
    for (std::size_t k = 0; k < K; ++k) {
      const __m256d xv = _mm256_broadcast_sd(xr + k);
      const __m256d live = _mm256_cmp_pd(xv, zero, _CMP_NEQ_UQ);
      acc[k] = _mm256_add_pd(acc[k],
                             _mm256_and_pd(live, _mm256_mul_pd(xv, g)));
    }
  }
  for (std::size_t k = 0; k < K; ++k) {
    store(dw1 + (k0 + k) * units + j, acc[k], quad);
  }
  if (k0 == 0) store(db1 + j, bias_sum, quad);
}

/// Runs body.template operator()<C>(c0) over [0, count) in groups of up
/// to 4 (C is the group's size).
template <class Body>
inline void for_groups_of_4(std::size_t count, Body&& body) noexcept {
  for (std::size_t c0 = 0; c0 < count; c0 += 4) {
    switch (std::min<std::size_t>(count - c0, 4)) {
      case 1:
        body.template operator()<1>(c0);
        break;
      case 2:
        body.template operator()<2>(c0);
        break;
      case 3:
        body.template operator()<3>(c0);
        break;
      default:
        body.template operator()<4>(c0);
        break;
    }
  }
}

}  // namespace

void mlp_forward(const double* x, const double* w1, const double* b1,
                 const double* w2, const double* b2, const MlpShape& shape,
                 double* h_pre, double* h, double* out) noexcept {
  for (std::size_t r0 = 0; r0 < shape.batch; r0 += 4) {
    RowBlock rows{};
    for (std::size_t i = 0; i < 4; ++i) {
      const std::size_t r = std::min(r0 + i, shape.batch - 1);
      rows.x[i] = x + r * shape.input;
      rows.h_pre[i] = h_pre + r * shape.hidden;
      rows.h[i] = h + r * shape.hidden;
      rows.out[i] = out + r * shape.output;
    }
    for_groups_of_4(shape.output, [&]<std::size_t C>(std::size_t c0) {
      forward_block<C>(rows, w1, b1, w2, b2, shape, c0);
    });
  }
}

void mlp_backward(const double* x, const double* h_pre, const double* h,
                  const double* dout, const double* w2, const MlpShape& shape,
                  double* dw1, double* db1, double* dw2, double* db2,
                  double* dh) noexcept {
  const std::size_t units = shape.hidden;
  const std::size_t outputs = shape.output;
  const __m256d zero = _mm256_setzero_pd();

  // dw2 first holds w2^T, so dh reads the columns of w2 as contiguous
  // groups; it receives h^T dout afterwards.
  double* w2t = dw2;
  for (std::size_t j = 0; j < units; ++j) {
    for (std::size_t c = 0; c < outputs; ++c) {
      w2t[c * units + j] = w2[j * outputs + c];
    }
  }

  // One pass over the batch per group of hidden units forms dh, db1 and
  // dw1 in registers.
  for_quads(units, [&](std::size_t j, auto quad) {
    for_groups_of_4(shape.input, [&]<std::size_t K>(std::size_t k0) {
      backward_units<K>(x, h_pre, dout, w2t, shape, j, quad, k0, dw1, db1,
                        dh);
    });
  });

  for_groups_of_4(outputs, [&]<std::size_t C>(std::size_t c0) {
    backward_w2<C>(h, dout, shape, c0, dw2);
  });
  for_quads(outputs, [&](std::size_t c, auto quad) {
    __m256d acc = zero;
    for (std::size_t r = 0; r < shape.batch; ++r) {
      acc = _mm256_add_pd(acc, load(dout + r * outputs + c, quad));
    }
    store(db2 + c, acc, quad);
  });
}

void adam_update(double* param, const double* grad, double* m, double* v,
                 std::size_t n, const AdamCoeffs& coeffs) noexcept {
  const __m256d beta1 = _mm256_set1_pd(coeffs.beta1);
  const __m256d keep1 = _mm256_set1_pd(1.0 - coeffs.beta1);
  const __m256d beta2 = _mm256_set1_pd(coeffs.beta2);
  const __m256d keep2 = _mm256_set1_pd(1.0 - coeffs.beta2);
  const __m256d lr = _mm256_set1_pd(coeffs.learning_rate);
  const __m256d epsilon = _mm256_set1_pd(coeffs.epsilon);
  const __m256d bias1 = _mm256_set1_pd(coeffs.bias1);
  const __m256d bias2 = _mm256_set1_pd(coeffs.bias2);
  for_quads(n, [&](std::size_t i, auto quad) {
    const __m256d g = load(grad + i, quad);
    const __m256d mi = _mm256_add_pd(_mm256_mul_pd(beta1, load(m + i, quad)),
                                     _mm256_mul_pd(keep1, g));
    const __m256d vi =
        _mm256_add_pd(_mm256_mul_pd(beta2, load(v + i, quad)),
                      _mm256_mul_pd(_mm256_mul_pd(keep2, g), g));
    store(m + i, mi, quad);
    store(v + i, vi, quad);
    const __m256d m_hat = _mm256_div_pd(mi, bias1);
    const __m256d v_hat = _mm256_div_pd(vi, bias2);
    const __m256d step =
        _mm256_div_pd(_mm256_mul_pd(lr, m_hat),
                      _mm256_add_pd(_mm256_sqrt_pd(v_hat), epsilon));
    store(param + i, _mm256_sub_pd(load(param + i, quad), step), quad);
  });
}

}  // namespace oselm::linalg::kernels::avx2

#endif  // OSELM_HAVE_AVX2_KERNELS
