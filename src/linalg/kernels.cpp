#include "linalg/kernels.hpp"

#include <algorithm>
#include <atomic>
#include <cmath>

#include "linalg/kernels_q20_inline.hpp"
#include "util/env_flags.hpp"

namespace oselm::linalg::kernels {

// Declarations of the AVX2/FMA set (defined in kernels_avx2.cpp, which is
// compiled with -mavx2 -mfma only when the toolchain supports them — see
// src/CMakeLists.txt). Never called unless simd_enabled().
#if defined(OSELM_HAVE_AVX2_KERNELS)
namespace avx2 {
double dot(const double* a, const double* b, std::size_t n) noexcept;
void axpy(double* y, double a, const double* x, std::size_t n) noexcept;
void bias_activate(double* h, const double* bias, std::size_t n,
                   Act act) noexcept;
void act_combine(const double* shared, const double* last_row, double code,
                 const double* bias, double* h_out, std::size_t n,
                 Act act) noexcept;
double fused_act_dot(const double* shared, const double* last_row,
                     double code, const double* bias, const double* beta,
                     std::size_t n, Act act) noexcept;
void sym_rank1_update(double* p, std::size_t n, const double* u, double inv,
                      double p_scale) noexcept;
void sym_rankk_downdate(double* p, std::size_t n, const double* gt,
                        const double* ut, std::size_t k) noexcept;
void gemm(const double* a, const double* b, double* c, std::size_t m,
          std::size_t inner, std::size_t n) noexcept;
void q20_hidden_mac(const std::int32_t* a, std::size_t rows,
                    std::size_t units, const std::int32_t* x,
                    const std::int32_t* init, std::int32_t* out, bool relu,
                    Q20SatCounts& sat) noexcept;
std::int32_t q20_dot(const std::int32_t* a, const std::int32_t* b,
                     std::size_t n, std::int32_t init,
                     Q20SatCounts& sat) noexcept;
std::int32_t q20_action_dot(const std::int32_t* shared,
                            const std::int32_t* last_row, std::int32_t code,
                            const std::int32_t* beta, std::size_t units,
                            Q20SatCounts& sat) noexcept;
void q20_matvec(const std::int32_t* m, std::size_t n, const std::int32_t* x,
                std::int32_t* y, Q20SatCounts& sat) noexcept;
void q20_rank1_downdate(std::int32_t* p, std::size_t n,
                        const std::int32_t* u, std::int32_t inv,
                        std::int32_t* scaled_ws, Q20SatCounts& sat) noexcept;
void q20_axpy(std::int32_t* y, std::int32_t a, const std::int32_t* x,
              std::size_t n, Q20SatCounts& sat) noexcept;
void q20_quantize(const double* src, std::int32_t* dst, std::size_t n,
                  Q20SatCounts& sat) noexcept;
void q20_dequantize(const std::int32_t* src, double* dst,
                    std::size_t n) noexcept;
void mlp_forward(const double* x, const double* w1, const double* b1,
                 const double* w2, const double* b2, const MlpShape& shape,
                 double* h_pre, double* h, double* out) noexcept;
void mlp_backward(const double* x, const double* h_pre, const double* h,
                  const double* dout, const double* w2, const MlpShape& shape,
                  double* dw1, double* db1, double* dw2, double* db2,
                  double* dh) noexcept;
void adam_update(double* param, const double* grad, double* m, double* v,
                 std::size_t n, const AdamCoeffs& coeffs) noexcept;
}  // namespace avx2
#endif

// ---------------------------------------------------------------------------
// Dispatch state
// ---------------------------------------------------------------------------

namespace {

/// -1: follow the OSELM_SIMD environment flag; 0/1: explicit override.
std::atomic<int> g_simd_override{-1};

bool env_allows_simd() noexcept {
  static const bool allowed = util::env_bool("OSELM_SIMD", true);
  return allowed;
}

}  // namespace

bool simd_available() noexcept {
#if defined(OSELM_HAVE_AVX2_KERNELS)
  static const bool available =
      __builtin_cpu_supports("avx2") && __builtin_cpu_supports("fma");
  return available;
#else
  return false;
#endif
}

bool simd_enabled() noexcept {
  if (!simd_available()) return false;
  const int override_state = g_simd_override.load(std::memory_order_relaxed);
  if (override_state >= 0) return override_state == 1;
  return env_allows_simd();
}

void set_simd_enabled(bool enabled) noexcept {
  g_simd_override.store(enabled ? 1 : 0, std::memory_order_relaxed);
}

void reset_simd_override() noexcept {
  g_simd_override.store(-1, std::memory_order_relaxed);
}

const char* active_kernel_set() noexcept {
  return simd_enabled() ? "avx2" : "scalar";
}

// ---------------------------------------------------------------------------
// Scalar reference — double kernels
// ---------------------------------------------------------------------------
//
// These loops reproduce the pre-SIMD arithmetic exactly: plain multiply
// then add (no FMA contraction — the TU is compiled for the baseline
// target), strictly sequential reductions.

namespace scalar {

namespace {

inline double act_apply(Act act, double x) noexcept {
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

}  // namespace

double dot(const double* a, const double* b, std::size_t n) noexcept {
  double acc = 0.0;
  for (std::size_t i = 0; i < n; ++i) acc += a[i] * b[i];
  return acc;
}

void axpy(double* y, double a, const double* x, std::size_t n) noexcept {
  for (std::size_t i = 0; i < n; ++i) y[i] += a * x[i];
}

void bias_activate(double* h, const double* bias, std::size_t n,
                   Act act) noexcept {
  for (std::size_t i = 0; i < n; ++i) h[i] = act_apply(act, h[i] + bias[i]);
}

void act_combine(const double* shared, const double* last_row, double code,
                 const double* bias, double* h_out, std::size_t n,
                 Act act) noexcept {
  for (std::size_t i = 0; i < n; ++i) {
    h_out[i] = act_apply(act, shared[i] + code * last_row[i] + bias[i]);
  }
}

double fused_act_dot(const double* shared, const double* last_row,
                     double code, const double* bias, const double* beta,
                     std::size_t n, Act act) noexcept {
  double acc = 0.0;
  for (std::size_t i = 0; i < n; ++i) {
    acc += act_apply(act, shared[i] + code * last_row[i] + bias[i]) * beta[i];
  }
  return acc;
}

void mirror_lower(double* p, std::size_t n) noexcept {
  // Mirror the upper triangle down so P is exactly symmetric — replaces
  // the seed's full-matrix second pass. Tiled so each 16x16 block of
  // source cache lines is reused across the block's rows instead of
  // being streamed once per element (a plain column walk thrashes L1 at
  // N-tilde >= 128).
  constexpr std::size_t kTile = 16;
  for (std::size_t t0 = 0; t0 < n; t0 += kTile) {
    const std::size_t t1 = std::min(t0 + kTile, n);
    for (std::size_t i = t0 + 1; i < t1; ++i) {  // diagonal tile
      double* row = p + i * n;
      for (std::size_t j = t0; j < i; ++j) row[j] = p[j * n + i];
    }
    for (std::size_t j0 = 0; j0 < t0; j0 += kTile) {  // tiles left of it
      const std::size_t j1 = j0 + kTile;  // full tile: j1 <= t0 <= n
      for (std::size_t i = t0; i < t1; ++i) {
        double* row = p + i * n;
        for (std::size_t j = j0; j < j1; ++j) row[j] = p[j * n + i];
      }
    }
  }
}

void sym_rank1_update(double* p, std::size_t n, const double* u, double inv,
                      double p_scale) noexcept {
  for (std::size_t i = 0; i < n; ++i) {
    const double scaled = u[i] * inv;
    double* row = p + i * n;
    if (p_scale == 1.0) {
      if (scaled == 0.0) continue;
      for (std::size_t j = i; j < n; ++j) row[j] -= scaled * u[j];
    } else {
      for (std::size_t j = i; j < n; ++j) {
        row[j] = (row[j] - scaled * u[j]) * p_scale;
      }
    }
  }
  mirror_lower(p, n);
}

void sym_rankk_downdate(double* p, std::size_t n, const double* gt,
                        const double* ut, std::size_t k) noexcept {
  // One pass over the upper triangle in row tiles of kCols columns: each
  // tile is loaded once, takes all k rows in c order, and is stored once.
  constexpr std::size_t kCols = 8;
  double acc[kCols];
  for (std::size_t i = 0; i < n; ++i) {
    double* row = p + i * n;
    for (std::size_t j0 = i; j0 < n; j0 += kCols) {
      const std::size_t width = std::min(kCols, n - j0);
      std::copy(row + j0, row + j0 + width, acc);
      for (std::size_t c = 0; c < k; ++c) {
        const double a = -gt[c * n + i];
        const double* u = ut + c * n + j0;
        if (width == kCols) {
          for (std::size_t j = 0; j < kCols; ++j) acc[j] += a * u[j];
        } else {
          for (std::size_t j = 0; j < width; ++j) acc[j] += a * u[j];
        }
      }
      std::copy(acc, acc + width, row + j0);
    }
  }
  mirror_lower(p, n);
}

void gemm(const double* a, const double* b, double* c, std::size_t m,
          std::size_t inner, std::size_t n) noexcept {
  // Tiles of kRows rows by kCols columns of C accumulate in locals while
  // l ascends: the textbook loop's per-element order, with each B row
  // segment loaded once per tile.
  constexpr std::size_t kRows = 4;
  constexpr std::size_t kCols = 8;
  double acc[kRows][kCols];
  for (std::size_t r0 = 0; r0 < m; r0 += kRows) {
    const std::size_t rows = std::min(kRows, m - r0);
    for (std::size_t j0 = 0; j0 < n; j0 += kCols) {
      const std::size_t width = std::min(kCols, n - j0);
      for (auto& acc_row : acc) std::fill(acc_row, acc_row + kCols, 0.0);
      for (std::size_t l = 0; l < inner; ++l) {
        const double* b_row = b + l * n + j0;
        for (std::size_t r = 0; r < rows; ++r) {
          const double x = a[(r0 + r) * inner + l];
          if (width == kCols) {
            for (std::size_t j = 0; j < kCols; ++j) acc[r][j] += x * b_row[j];
          } else {
            for (std::size_t j = 0; j < width; ++j) acc[r][j] += x * b_row[j];
          }
        }
      }
      for (std::size_t r = 0; r < rows; ++r) {
        std::copy(acc[r], acc[r] + width, c + (r0 + r) * n + j0);
      }
    }
  }
}

// ---------------------------------------------------------------------------
// Scalar reference — Q20 kernels (fixed::Q20 semantics on raw words,
// primitives shared with the AVX2 TU via kernels_q20_inline.hpp)
// ---------------------------------------------------------------------------

using q20detail::q_add;
using q20detail::q_downdate_row;
using q20detail::q_from_double;
using q20detail::q_mul;
using q20detail::q_relu;

void q20_hidden_mac(const std::int32_t* a, std::size_t rows,
                    std::size_t units, const std::int32_t* x,
                    const std::int32_t* init, std::int32_t* out, bool relu,
                    Q20SatCounts& sat) noexcept {
  for (std::size_t j = 0; j < units; ++j) {
    std::int32_t acc = init[j];
    for (std::size_t i = 0; i < rows; ++i) {
      acc = q_add(acc, q_mul(x[i], a[i * units + j], sat), sat);
    }
    out[j] = relu ? q_relu(acc) : acc;
  }
}

std::int32_t q20_dot(const std::int32_t* a, const std::int32_t* b,
                     std::size_t n, std::int32_t init,
                     Q20SatCounts& sat) noexcept {
  std::int32_t acc = init;
  for (std::size_t i = 0; i < n; ++i) {
    acc = q_add(acc, q_mul(a[i], b[i], sat), sat);
  }
  return acc;
}

std::int32_t q20_action_dot(const std::int32_t* shared,
                            const std::int32_t* last_row, std::int32_t code,
                            const std::int32_t* beta, std::size_t units,
                            Q20SatCounts& sat) noexcept {
  std::int32_t acc = 0;
  for (std::size_t j = 0; j < units; ++j) {
    const std::int32_t h =
        q_relu(q_add(shared[j], q_mul(code, last_row[j], sat), sat));
    acc = q_add(acc, q_mul(h, beta[j], sat), sat);
  }
  return acc;
}

void q20_matvec(const std::int32_t* m, std::size_t n, const std::int32_t* x,
                std::int32_t* y, Q20SatCounts& sat) noexcept {
  for (std::size_t i = 0; i < n; ++i) {
    y[i] = scalar::q20_dot(m + i * n, x, n, 0, sat);
  }
}

void q20_rank1_downdate(std::int32_t* p, std::size_t n,
                        const std::int32_t* u, std::int32_t inv,
                        std::int32_t* scaled_ws, Q20SatCounts& sat) noexcept {
  for (std::size_t i = 0; i < n; ++i) scaled_ws[i] = q_mul(u[i], inv, sat);
  for (std::size_t i = 0; i < n; ++i) {
    q_downdate_row(p + i * n, u, n, scaled_ws[i], sat);
  }
}

void q20_axpy(std::int32_t* y, std::int32_t a, const std::int32_t* x,
              std::size_t n, Q20SatCounts& sat) noexcept {
  for (std::size_t i = 0; i < n; ++i) {
    y[i] = q_add(y[i], q_mul(a, x[i], sat), sat);
  }
}

void q20_quantize(const double* src, std::int32_t* dst, std::size_t n,
                  Q20SatCounts& sat) noexcept {
  for (std::size_t i = 0; i < n; ++i) dst[i] = q_from_double(src[i], sat);
}

void q20_dequantize(const std::int32_t* src, double* dst,
                    std::size_t n) noexcept {
  for (std::size_t i = 0; i < n; ++i) {
    dst[i] = static_cast<double>(src[i]) / 1048576.0;
  }
}

}  // namespace scalar

// ---------------------------------------------------------------------------
// Dispatched entry points
// ---------------------------------------------------------------------------

#if defined(OSELM_HAVE_AVX2_KERNELS)
#define OSELM_DISPATCH(fn, ...) \
  (simd_enabled() ? avx2::fn(__VA_ARGS__) : scalar::fn(__VA_ARGS__))
#else
#define OSELM_DISPATCH(fn, ...) scalar::fn(__VA_ARGS__)
#endif

double dot(const double* a, const double* b, std::size_t n) noexcept {
  return OSELM_DISPATCH(dot, a, b, n);
}

void axpy(double* y, double a, const double* x, std::size_t n) noexcept {
  OSELM_DISPATCH(axpy, y, a, x, n);
}

void bias_activate(double* h, const double* bias, std::size_t n,
                   Act act) noexcept {
  OSELM_DISPATCH(bias_activate, h, bias, n, act);
}

void act_combine(const double* shared, const double* last_row, double code,
                 const double* bias, double* h_out, std::size_t n,
                 Act act) noexcept {
  OSELM_DISPATCH(act_combine, shared, last_row, code, bias, h_out, n, act);
}

double fused_act_dot(const double* shared, const double* last_row,
                     double code, const double* bias, const double* beta,
                     std::size_t n, Act act) noexcept {
  return OSELM_DISPATCH(fused_act_dot, shared, last_row, code, bias, beta, n,
                        act);
}

void sym_rank1_update(double* p, std::size_t n, const double* u, double inv,
                      double p_scale) noexcept {
  OSELM_DISPATCH(sym_rank1_update, p, n, u, inv, p_scale);
}

void sym_rankk_downdate(double* p, std::size_t n, const double* gt,
                        const double* ut, std::size_t k) noexcept {
  OSELM_DISPATCH(sym_rankk_downdate, p, n, gt, ut, k);
}

void gemm(const double* a, const double* b, double* c, std::size_t m,
          std::size_t inner, std::size_t n) noexcept {
  OSELM_DISPATCH(gemm, a, b, c, m, inner, n);
}

void q20_hidden_mac(const std::int32_t* a, std::size_t rows,
                    std::size_t units, const std::int32_t* x,
                    const std::int32_t* init, std::int32_t* out, bool relu,
                    Q20SatCounts& sat) noexcept {
  OSELM_DISPATCH(q20_hidden_mac, a, rows, units, x, init, out, relu, sat);
}

std::int32_t q20_dot(const std::int32_t* a, const std::int32_t* b,
                     std::size_t n, std::int32_t init,
                     Q20SatCounts& sat) noexcept {
  return OSELM_DISPATCH(q20_dot, a, b, n, init, sat);
}

std::int32_t q20_action_dot(const std::int32_t* shared,
                            const std::int32_t* last_row, std::int32_t code,
                            const std::int32_t* beta, std::size_t units,
                            Q20SatCounts& sat) noexcept {
  return OSELM_DISPATCH(q20_action_dot, shared, last_row, code, beta, units,
                        sat);
}

void q20_matvec(const std::int32_t* m, std::size_t n, const std::int32_t* x,
                std::int32_t* y, Q20SatCounts& sat) noexcept {
  OSELM_DISPATCH(q20_matvec, m, n, x, y, sat);
}

void q20_rank1_downdate(std::int32_t* p, std::size_t n,
                        const std::int32_t* u, std::int32_t inv,
                        std::int32_t* scaled_ws, Q20SatCounts& sat) noexcept {
  OSELM_DISPATCH(q20_rank1_downdate, p, n, u, inv, scaled_ws, sat);
}

void q20_axpy(std::int32_t* y, std::int32_t a, const std::int32_t* x,
              std::size_t n, Q20SatCounts& sat) noexcept {
  OSELM_DISPATCH(q20_axpy, y, a, x, n, sat);
}

void q20_quantize(const double* src, std::int32_t* dst, std::size_t n,
                  Q20SatCounts& sat) noexcept {
  OSELM_DISPATCH(q20_quantize, src, dst, n, sat);
}

void q20_dequantize(const std::int32_t* src, double* dst,
                    std::size_t n) noexcept {
  OSELM_DISPATCH(q20_dequantize, src, dst, n);
}

#undef OSELM_DISPATCH

// The MLP/Adam entries have no scalar twin here: the caller's loops are the
// reference, so without the SIMD set they report "not run".
#if defined(OSELM_HAVE_AVX2_KERNELS)
#define OSELM_SIMD_ONLY(fn, ...) \
  (simd_enabled() ? (avx2::fn(__VA_ARGS__), true) : false)
#else
template <class... Args>
constexpr bool not_run(const Args&... /*unused*/) noexcept {
  return false;
}
#define OSELM_SIMD_ONLY(fn, ...) not_run(__VA_ARGS__)
#endif

bool mlp_forward(const double* x, const double* w1, const double* b1,
                 const double* w2, const double* b2, const MlpShape& shape,
                 double* h_pre, double* h, double* out) noexcept {
  return OSELM_SIMD_ONLY(mlp_forward, x, w1, b1, w2, b2, shape, h_pre, h,
                         out);
}

bool mlp_backward(const double* x, const double* h_pre, const double* h,
                  const double* dout, const double* w2, const MlpShape& shape,
                  double* dw1, double* db1, double* dw2, double* db2,
                  double* dh) noexcept {
  return OSELM_SIMD_ONLY(mlp_backward, x, h_pre, h, dout, w2, shape, dw1, db1,
                         dw2, db2, dh);
}

bool adam_update(double* param, const double* grad, double* m, double* v,
                 std::size_t n, const AdamCoeffs& coeffs) noexcept {
  return OSELM_SIMD_ONLY(adam_update, param, grad, m, v, n, coeffs);
}

#undef OSELM_SIMD_ONLY

}  // namespace oselm::linalg::kernels
