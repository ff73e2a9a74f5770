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
// Q20 kernels: saturation is applied in-line per step (blend against the
// int32 limits), which keeps values bit-exact; saturation *events* are
// rare and tracked with a sticky mask — any vector group that observed
// one is recomputed through the scalar primitives so the counters match
// the reference exactly. Dot-style reductions use an exactness argument
// instead of per-step order: int64 sums of int32-range products are
// exact, so when no product saturated and the positive/negative partial
// sums bound every prefix inside the int32 range, the sequential
// saturating sum equals the plain sum; otherwise the scalar reference
// recomputes the row.
#if defined(OSELM_HAVE_AVX2_KERNELS)

#include <immintrin.h>

#include <algorithm>

#include <cmath>
#include <cstdint>

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

// Materialized per call site (the compiler hoists them out of loops); a
// namespace-scope __m256i constant would run AVX instructions during
// static initialization, before the runtime dispatcher can rule them out.
inline __m256i vec_raw_max() noexcept {
  return _mm256_set1_epi64x(q20detail::kRawMax);
}
inline __m256i vec_raw_min() noexcept {
  return _mm256_set1_epi64x(q20detail::kRawMin);
}
inline __m256i vec_round_bias() noexcept {
  return _mm256_set1_epi64x(q20detail::kRoundBias);
}

/// Arithmetic shift right by 20 for int64 lanes (AVX2 has no srai_epi64).
inline __m256i srai64_frac(__m256i v) noexcept {
  const __m256i logical = _mm256_srli_epi64(v, q20detail::kFrac);
  const __m256i negative = _mm256_cmpgt_epi64(_mm256_setzero_si256(), v);
  return _mm256_or_si256(logical,
                         _mm256_slli_epi64(negative, 64 - q20detail::kFrac));
}

/// Clamps int64 lanes into int32 range, OR-ing any clamp into `sticky`.
inline __m256i sat32(__m256i v, __m256i& sticky) noexcept {
  const __m256i over = _mm256_cmpgt_epi64(v, vec_raw_max());
  const __m256i under = _mm256_cmpgt_epi64(vec_raw_min(), v);
  sticky = _mm256_or_si256(sticky, _mm256_or_si256(over, under));
  v = _mm256_blendv_epi8(v, vec_raw_max(), over);
  return _mm256_blendv_epi8(v, vec_raw_min(), under);
}

/// Q20 multiply on int32-range int64 lanes (low 32 bits hold the words).
inline __m256i q20_mul_vec(__m256i a, __m256i b, __m256i& sticky) noexcept {
  __m256i product = _mm256_mul_epi32(a, b);
  product = _mm256_add_epi64(product, vec_round_bias());
  return sat32(srai64_frac(product), sticky);
}

/// Saturating add of int32-range int64 lanes.
inline __m256i q20_add_vec(__m256i a, __m256i b, __m256i& sticky) noexcept {
  return sat32(_mm256_add_epi64(a, b), sticky);
}

/// Loads 4 consecutive int32 words into sign-extended int64 lanes.
inline __m256i load4_epi64(const std::int32_t* p) noexcept {
  return _mm256_cvtepi32_epi64(
      _mm_loadu_si128(reinterpret_cast<const __m128i*>(p)));
}

/// Stores the low int32 word of each int64 lane to 4 consecutive words.
inline void store4_epi32(std::int32_t* p, __m256i v) noexcept {
  const __m256i packed = _mm256_permutevar8x32_epi32(
      v, _mm256_setr_epi32(0, 2, 4, 6, 0, 0, 0, 0));
  _mm_storeu_si128(reinterpret_cast<__m128i*>(p),
                   _mm256_castsi256_si128(packed));
}

inline bool any_set(__m256i mask) noexcept {
  return _mm256_testz_si256(mask, mask) == 0;
}

inline std::int64_t hsum64(__m256i v) noexcept {
  const __m128i lo = _mm256_castsi256_si128(v);
  const __m128i hi = _mm256_extracti128_si256(v, 1);
  const __m128i pair = _mm_add_epi64(lo, hi);
  return _mm_extract_epi64(pair, 0) + _mm_extract_epi64(pair, 1);
}

/// Splits int32-range int64 lanes into positive/negative running sums.
inline void accumulate_signed(__m256i v, __m256i& pos, __m256i& neg) noexcept {
  const __m256i negative = _mm256_cmpgt_epi64(_mm256_setzero_si256(), v);
  neg = _mm256_add_epi64(neg, _mm256_and_si256(v, negative));
  pos = _mm256_add_epi64(pos, _mm256_andnot_si256(negative, v));
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
    const __m256d r0 = _mm256_loadu_pd(p + (src_row + 0) * n + dst_row);
    const __m256d r1 = _mm256_loadu_pd(p + (src_row + 1) * n + dst_row);
    const __m256d r2 = _mm256_loadu_pd(p + (src_row + 2) * n + dst_row);
    const __m256d r3 = _mm256_loadu_pd(p + (src_row + 3) * n + dst_row);
    const __m256d t0 = _mm256_unpacklo_pd(r0, r1);
    const __m256d t1 = _mm256_unpackhi_pd(r0, r1);
    const __m256d t2 = _mm256_unpacklo_pd(r2, r3);
    const __m256d t3 = _mm256_unpackhi_pd(r2, r3);
    _mm256_storeu_pd(p + (dst_row + 0) * n + src_row,
                     _mm256_permute2f128_pd(t0, t2, 0x20));
    _mm256_storeu_pd(p + (dst_row + 1) * n + src_row,
                     _mm256_permute2f128_pd(t1, t3, 0x20));
    _mm256_storeu_pd(p + (dst_row + 2) * n + src_row,
                     _mm256_permute2f128_pd(t0, t2, 0x31));
    _mm256_storeu_pd(p + (dst_row + 3) * n + src_row,
                     _mm256_permute2f128_pd(t1, t3, 0x31));
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

// ---------------------------------------------------------------------------
// Q20 kernels
// ---------------------------------------------------------------------------

void q20_hidden_mac(const std::int32_t* a, std::size_t rows,
                    std::size_t units, const std::int32_t* x,
                    const std::int32_t* init, std::int32_t* out, bool relu,
                    Q20SatCounts& sat) noexcept {
  std::size_t j = 0;
  for (; j + 4 <= units; j += 4) {
    __m256i acc = load4_epi64(init + j);
    __m256i sticky = _mm256_setzero_si256();
    for (std::size_t i = 0; i < rows; ++i) {
      const __m256i av = load4_epi64(a + i * units + j);
      const __m256i xv = _mm256_set1_epi64x(x[i]);
      acc = q20_add_vec(acc, q20_mul_vec(av, xv, sticky), sticky);
    }
    if (any_set(sticky)) {
      // A lane saturated: redo these 4 columns through the scalar
      // primitives so the event counters match the reference.
      for (std::size_t c = j; c < j + 4; ++c) {
        std::int32_t acc_c = init[c];
        for (std::size_t i = 0; i < rows; ++i) {
          acc_c = q20detail::q_add(
              acc_c, q20detail::q_mul(x[i], a[i * units + c], sat), sat);
        }
        out[c] = relu ? q20detail::q_relu(acc_c) : acc_c;
      }
      continue;
    }
    if (relu) {
      const __m256i negative =
          _mm256_cmpgt_epi64(_mm256_setzero_si256(), acc);
      acc = _mm256_andnot_si256(negative, acc);
    }
    store4_epi32(out + j, acc);
  }
  for (; j < units; ++j) {
    std::int32_t acc = init[j];
    for (std::size_t i = 0; i < rows; ++i) {
      acc = q20detail::q_add(acc,
                             q20detail::q_mul(x[i], a[i * units + j], sat),
                             sat);
    }
    out[j] = relu ? q20detail::q_relu(acc) : acc;
  }
}

std::int32_t q20_dot(const std::int32_t* a, const std::int32_t* b,
                     std::size_t n, std::int32_t init,
                     Q20SatCounts& sat) noexcept {
  __m256i pos = _mm256_setzero_si256();
  __m256i neg = _mm256_setzero_si256();
  __m256i sticky = _mm256_setzero_si256();
  std::size_t j = 0;
  for (; j + 4 <= n; j += 4) {
    const __m256i prod =
        q20_mul_vec(load4_epi64(a + j), load4_epi64(b + j), sticky);
    accumulate_signed(prod, pos, neg);
  }
  Q20SatCounts tail_sat;
  std::int64_t tail_pos = 0;
  std::int64_t tail_neg = 0;
  for (; j < n; ++j) {
    const std::int32_t prod = q20detail::q_mul(a[j], b[j], tail_sat);
    if (prod < 0) {
      tail_neg += prod;
    } else {
      tail_pos += prod;
    }
  }
  if (any_set(sticky) || tail_sat.mul != 0) {
    return scalar::q20_dot(a, b, n, init, sat);
  }
  const std::int64_t pos_total = hsum64(pos) + tail_pos;
  const std::int64_t neg_total = hsum64(neg) + tail_neg;
  // Every prefix of the sequential sum lies in [init + neg_total,
  // init + pos_total]; when that interval is inside the int32 range no
  // per-step clamp can fire and the exact sum is the answer.
  if (init + neg_total < q20detail::kRawMin ||
      init + pos_total > q20detail::kRawMax) {
    return scalar::q20_dot(a, b, n, init, sat);
  }
  return static_cast<std::int32_t>(init + pos_total + neg_total);
}

std::int32_t q20_action_dot(const std::int32_t* shared,
                            const std::int32_t* last_row, std::int32_t code,
                            const std::int32_t* beta, std::size_t units,
                            Q20SatCounts& sat) noexcept {
  const __m256i codev = _mm256_set1_epi64x(code);
  __m256i pos = _mm256_setzero_si256();
  __m256i neg = _mm256_setzero_si256();
  __m256i sticky = _mm256_setzero_si256();
  std::size_t j = 0;
  for (; j + 4 <= units; j += 4) {
    const __m256i corr = q20_mul_vec(codev, load4_epi64(last_row + j), sticky);
    __m256i h = q20_add_vec(load4_epi64(shared + j), corr, sticky);
    h = _mm256_andnot_si256(_mm256_cmpgt_epi64(_mm256_setzero_si256(), h), h);
    const __m256i prod = q20_mul_vec(h, load4_epi64(beta + j), sticky);
    accumulate_signed(prod, pos, neg);
  }
  Q20SatCounts tail_sat;
  std::int64_t tail_pos = 0;
  std::int64_t tail_neg = 0;
  for (; j < units; ++j) {
    const std::int32_t h = q20detail::q_relu(q20detail::q_add(
        shared[j], q20detail::q_mul(code, last_row[j], tail_sat), tail_sat));
    const std::int32_t prod = q20detail::q_mul(h, beta[j], tail_sat);
    if (prod < 0) {
      tail_neg += prod;
    } else {
      tail_pos += prod;
    }
  }
  if (any_set(sticky) || tail_sat.mul != 0 || tail_sat.add != 0) {
    return scalar::q20_action_dot(shared, last_row, code, beta, units, sat);
  }
  const std::int64_t pos_total = hsum64(pos) + tail_pos;
  const std::int64_t neg_total = hsum64(neg) + tail_neg;
  if (neg_total < q20detail::kRawMin || pos_total > q20detail::kRawMax) {
    return scalar::q20_action_dot(shared, last_row, code, beta, units, sat);
  }
  return static_cast<std::int32_t>(pos_total + neg_total);
}

void q20_rank1_downdate(std::int32_t* p, std::size_t n,
                        const std::int32_t* u, std::int32_t inv,
                        std::int32_t* scaled_ws, Q20SatCounts& sat) noexcept {
  // The O(n) scaled vector goes through the scalar primitives (counted
  // directly); the O(n^2) sweep is vectorized with a check-before-store
  // fallback per 4-lane group.
  for (std::size_t i = 0; i < n; ++i) {
    scaled_ws[i] = q20detail::q_mul(u[i], inv, sat);
  }
  for (std::size_t i = 0; i < n; ++i) {
    const std::int32_t scaled = scaled_ws[i];
    const __m256i sv = _mm256_set1_epi64x(scaled);
    std::int32_t* row = p + i * n;
    std::size_t j = 0;
    for (; j + 4 <= n; j += 4) {
      __m256i sticky = _mm256_setzero_si256();
      const __m256i prod = q20_mul_vec(sv, load4_epi64(u + j), sticky);
      const __m256i diff = _mm256_sub_epi64(load4_epi64(row + j), prod);
      const __m256i result = sat32(diff, sticky);
      if (any_set(sticky)) {
        // Row values not yet overwritten: recompute the group scalar so
        // the saturation counters stay exact.
        for (std::size_t c = j; c < j + 4; ++c) {
          row[c] = q20detail::q_sub(row[c],
                                    q20detail::q_mul(scaled, u[c], sat), sat);
        }
        continue;
      }
      store4_epi32(row + j, result);
    }
    for (; j < n; ++j) {
      row[j] = q20detail::q_sub(row[j], q20detail::q_mul(scaled, u[j], sat),
                                sat);
    }
  }
}

void q20_axpy(std::int32_t* y, std::int32_t a, const std::int32_t* x,
              std::size_t n, Q20SatCounts& sat) noexcept {
  const __m256i av = _mm256_set1_epi64x(a);
  std::size_t j = 0;
  for (; j + 4 <= n; j += 4) {
    __m256i sticky = _mm256_setzero_si256();
    const __m256i prod = q20_mul_vec(av, load4_epi64(x + j), sticky);
    const __m256i sum = _mm256_add_epi64(load4_epi64(y + j), prod);
    const __m256i result = sat32(sum, sticky);
    if (any_set(sticky)) {
      for (std::size_t c = j; c < j + 4; ++c) {
        y[c] = q20detail::q_add(y[c], q20detail::q_mul(a, x[c], sat), sat);
      }
      continue;
    }
    store4_epi32(y + j, result);
  }
  for (; j < n; ++j) {
    y[j] = q20detail::q_add(y[j], q20detail::q_mul(a, x[j], sat), sat);
  }
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

}  // namespace oselm::linalg::kernels::avx2

#endif  // OSELM_HAVE_AVX2_KERNELS
