// SIMD kernel layer for the OS-ELM hot paths.
//
// Every kernel has two implementations selected by a runtime dispatcher:
//   * a portable scalar reference (the exact pre-SIMD semantics), and
//   * an AVX2/FMA implementation compiled only when the toolchain supports
//     `-mavx2 -mfma` (see src/CMakeLists.txt) and used only when the CPU
//     reports both features at runtime.
// The DQN-baseline MLP/Adam entries are the exception: their scalar
// reference lives with the caller (see their section below).
//
// Dispatch rules:
//   * `OSELM_SIMD=off|0|false|no` in the environment forces the scalar
//     reference everywhere (debugging and exact-reference tests);
//   * set_simd_enabled() overrides the environment for in-process A/B
//     measurement (bench_train_path) and the kernel equivalence tests.
//
// Numerical contract:
//   * double kernels: the AVX2 path fuses multiply-adds (FMA) and
//     vector-reduces dot products, so results may differ from the scalar
//     reference at the last few ulps (tests pin <= 1e-12 relative). The
//     MLP/Adam entries use no FMA and are bit-identical to theirs.
//     Within ONE dispatch mode the kernels are mutually bit-consistent:
//     `fused_act_dot` reproduces `axpy` of the code row onto the shared
//     projection, then `bias_activate`, then `dot` exactly — the
//     composition predict_main runs — so the backend prediction paths
//     built on them stay bit-identical to each other (the
//     backend-contract EXPECT_DOUBLE_EQ pins rely on this).
//   * q20_* kernels: bit-exact against the scalar reference in BOTH
//     modes, including the saturation counters — fixed::Q20 semantics
//     (round-to-nearest multiply, per-step saturating accumulate), with
//     the AVX2 set's 8-lane path taken only where a range proof shows no
//     step can saturate. This is the FPGA fidelity contract: OSELM_SIMD
//     never changes a fixed-point result.
#pragma once

#include <cstddef>
#include <cstdint>

namespace oselm::linalg::kernels {

// ---------------------------------------------------------------------------
// Dispatch control
// ---------------------------------------------------------------------------

/// True when an AVX2/FMA kernel set was compiled in AND this CPU supports
/// it. Independent of the OSELM_SIMD flag.
[[nodiscard]] bool simd_available() noexcept;

/// True when the SIMD kernel set is active: available, not disabled via
/// `OSELM_SIMD=off` (read once), and not overridden by set_simd_enabled().
[[nodiscard]] bool simd_enabled() noexcept;

/// Programmatic override of the environment flag (benches and tests that
/// A/B both kernel sets in one process). Enabling is a no-op when no SIMD
/// set is available. Not thread-safe against concurrent kernel calls —
/// flip it only between measurement phases.
void set_simd_enabled(bool enabled) noexcept;

/// Drops any set_simd_enabled() override and returns to following the
/// OSELM_SIMD environment flag — the correct "restore defaults" for code
/// that toggled the dispatch temporarily.
void reset_simd_override() noexcept;

/// "avx2" or "scalar" — whichever set simd_enabled() resolves to.
[[nodiscard]] const char* active_kernel_set() noexcept;

// ---------------------------------------------------------------------------
// Double-precision kernels
// ---------------------------------------------------------------------------

/// sum_i a[i] * b[i].
[[nodiscard]] double dot(const double* a, const double* b,
                         std::size_t n) noexcept;

/// y[i] += a * x[i].
void axpy(double* y, double a, const double* x, std::size_t n) noexcept;

/// h[i] = relu(h[i] + bias[i]) — the tail of the hidden-layer projection.
/// ReLU (§4.1) is `x >= 0.0 ? x : 0.0`: keeps -0.0, maps negatives to +0.0.
void bias_activate(double* h, const double* bias, std::size_t n) noexcept;

/// The per-action rank-1 correction on a precomputed shared state
/// projection, fused with the ReLU and the dot against the output weights:
///   sum_i relu(shared[i] + code*last_row[i] + bias[i]) * beta[i]
/// Bit-identical, under the active dispatch mode, to copying `shared`
/// into h, axpy(h, code, last_row), bias_activate(h, bias), then
/// dot(h, beta).
[[nodiscard]] double fused_act_dot(const double* shared,
                                   const double* last_row, double code,
                                   const double* bias, const double* beta,
                                   std::size_t n) noexcept;

/// Symmetric rank-1 update of a row-major n x n matrix:
///   P <- (P - (u * inv) u^T) * p_scale
/// Only the upper triangle is computed; the lower triangle is mirrored
/// from it afterwards, so P is exactly symmetric on return. p_scale == 1
/// takes the cheaper no-reinflation path (FOS-ELM lambda == 1).
void sym_rank1_update(double* p, std::size_t n, const double* u, double inv,
                      double p_scale) noexcept;

/// Symmetric rank-k downdate for the general-k OS-ELM chunk update
/// (Eq. 5): P -= G U^T, where G U^T must be symmetric (the chunk update
/// passes gt == ut == W^T). `gt` and `ut` are G^T and U^T as k x n
/// row-major blocks (row c is column c of G / U). Only the upper triangle
/// is computed, then mirrored down, so P stays exactly symmetric. The
/// kernel loads each upper-triangle tile of P once and applies all k
/// rows to it in c order, so every element sees the same operations as
/// k axpy sweeps, p(i, j) += (-g_c[i]) * u_c[j] (fused under SIMD); k == 1
/// matches sym_rank1_update's p_scale == 1 arithmetic.
void sym_rankk_downdate(double* p, std::size_t n, const double* gt,
                        const double* ut, std::size_t k) noexcept;

/// C = A B for row-major A (m x inner), B (inner x n) and C (m x n); C is
/// overwritten. Each element is summed from 0.0 in ascending inner index
/// (fused multiply-adds under SIMD). C must not alias A or B.
void gemm(const double* a, const double* b, double* c, std::size_t m,
          std::size_t inner, std::size_t n) noexcept;

// ---------------------------------------------------------------------------
// DQN-baseline training kernels (three-layer MLP and Adam, batch path)
// ---------------------------------------------------------------------------
//
// SIMD-only entries. When simd_enabled(), each runs its AVX2 body and
// returns true. Otherwise it returns false and touches nothing, and the
// caller (nn::Mlp, nn::AdamOptimizer) runs its own scalar code, which is
// the reference. The AVX2 bodies are bit-identical to that reference:
//   * every dot product is summed from 0.0 in the reference's index order,
//     one rounded multiply and one rounded add per term (no FMA — the
//     library is built with -ffp-contract=off and these bodies use no
//     fused intrinsic), then the bias is added;
//   * ReLU keeps -0.0 and NaN like `pre < 0 ? 0 : pre`, the ReLU' mask is
//     `h_pre <= 0` (false on NaN), and the zero-skips of dW1/dW2 add
//     nothing for a zero operand, exactly like linalg::matmul_at_b;
//   * Adam's vector div and sqrt are correctly rounded, like the scalar
//     operators; MXCSR (FTZ/DAZ) is never touched.
// Any batch, input, hidden and output size is accepted; remainders run the
// same 4-lane bodies on masked lanes.

/// Row-major operand shapes of an input -> ReLU hidden -> linear output
/// MLP batch: x is batch x input, w1 input x hidden, w2 hidden x output.
struct MlpShape {
  std::size_t batch = 0;
  std::size_t input = 0;
  std::size_t hidden = 0;
  std::size_t output = 0;
};

/// h_pre = x w1 + b1;  h = relu(h_pre);  out = h w2 + b2  (all row-major).
[[nodiscard]] bool mlp_forward(const double* x, const double* w1,
                               const double* b1, const double* w2,
                               const double* b2, const MlpShape& shape,
                               double* h_pre, double* h,
                               double* out) noexcept;

/// Gradients of the MLP above, given dout = dLoss/dOut (batch x output):
///   dw2 = h^T dout (terms with h == 0 skipped);  db2 = column sums of dout
///   dh  = dout w2^T, zeroed where h_pre <= 0     (batch x hidden)
///   dw1 = x^T dh (terms with x == 0 skipped);    db1 = column sums of dh
/// `dw2` must not alias `w2`.
[[nodiscard]] bool mlp_backward(const double* x, const double* h_pre,
                                const double* h, const double* dout,
                                const double* w2, const MlpShape& shape,
                                double* dw1, double* db1, double* dw2,
                                double* db2, double* dh) noexcept;

/// Adam's per-step constants; bias1/bias2 are 1 - beta^t.
struct AdamCoeffs {
  double learning_rate = 0.0;
  double beta1 = 0.0;
  double beta2 = 0.0;
  double epsilon = 0.0;
  double bias1 = 0.0;
  double bias2 = 0.0;
};

/// Element-wise Adam over n parameters:
///   m = beta1 m + (1 - beta1) g;   v = beta2 v + (1 - beta2) g g
///   param -= lr (m / bias1) / (sqrt(v / bias2) + epsilon)
[[nodiscard]] bool adam_update(double* param, const double* grad, double* m,
                               double* v, std::size_t n,
                               const AdamCoeffs& coeffs) noexcept;

// ---------------------------------------------------------------------------
// Q20 fixed-point kernels (raw int32 words, fixed::Q20 semantics)
// ---------------------------------------------------------------------------
//
// All q20_* kernels are bit-exact against fixed::Q20 operator arithmetic,
// including saturation events, which are reported through Q20SatCounts so
// the caller can fold them into fixed::overflow_stats(). Each AVX2 call
// first proves, from max-abs scans of its operands, that no multiply and
// no prefix of any accumulation can saturate; the proof selects the
// 8-lane wrap-free int32 path, and otherwise the call (or the matrix row)
// runs the scalar reference, so values AND counts always match it.

struct Q20SatCounts {
  std::uint64_t add = 0;         ///< add/sub saturations
  std::uint64_t mul = 0;         ///< multiply saturations
  std::uint64_t conversion = 0;  ///< double -> Q20 saturations
};

/// out[j] = [relu]( init[j] + sum_{i<rows} x[i] * a(i, j) ) for a
/// row-major `rows x units` matrix — the single-MAC-unit hidden-layer
/// dataflow (bias-first, features in index order, per-step saturation).
void q20_hidden_mac(const std::int32_t* a, std::size_t rows,
                    std::size_t units, const std::int32_t* x,
                    const std::int32_t* init, std::int32_t* out, bool relu,
                    Q20SatCounts& sat) noexcept;

/// Sequential saturating dot with seed `init`:
///   acc = init; for j: acc += a[j] * b[j]  (Q20 ops at every step).
[[nodiscard]] std::int32_t q20_dot(const std::int32_t* a,
                                   const std::int32_t* b, std::size_t n,
                                   std::int32_t init,
                                   Q20SatCounts& sat) noexcept;

/// acc = 0; for j: acc += relu(shared[j] + code*last_row[j]) * beta[j]
/// — the fused per-action activation + output MAC of the predict path.
[[nodiscard]] std::int32_t q20_action_dot(const std::int32_t* shared,
                                          const std::int32_t* last_row,
                                          std::int32_t code,
                                          const std::int32_t* beta,
                                          std::size_t units,
                                          Q20SatCounts& sat) noexcept;

/// y[i] = q20_dot(row i of the row-major n x n matrix, x, n, 0).
void q20_matvec(const std::int32_t* m, std::size_t n, const std::int32_t* x,
                std::int32_t* y, Q20SatCounts& sat) noexcept;

/// Rank-1 downdate P -= (u * inv) u^T:
///   scaled[i] = u[i] * inv;  p(i, j) -= scaled[i] * u[j]
/// `scaled_ws` is caller-owned scratch of length n (allocation-free).
void q20_rank1_downdate(std::int32_t* p, std::size_t n,
                        const std::int32_t* u, std::int32_t inv,
                        std::int32_t* scaled_ws, Q20SatCounts& sat) noexcept;

/// y[j] += a * x[j] (the beta update).
void q20_axpy(std::int32_t* y, std::int32_t a, const std::int32_t* x,
              std::size_t n, Q20SatCounts& sat) noexcept;

/// dst[i] = Q20::from_double(src[i]) — round-to-nearest, saturating.
void q20_quantize(const double* src, std::int32_t* dst, std::size_t n,
                  Q20SatCounts& sat) noexcept;

/// dst[i] = src[i] / 2^20 (exact — Q20 values are dyadic rationals).
void q20_dequantize(const std::int32_t* src, double* dst,
                    std::size_t n) noexcept;

// ---------------------------------------------------------------------------
// Scalar reference entry points (always the portable implementations,
// regardless of dispatch state) — used by the kernel equivalence tests
// and the bench_train_path baseline.
// ---------------------------------------------------------------------------
namespace scalar {

[[nodiscard]] double dot(const double* a, const double* b,
                         std::size_t n) noexcept;
void axpy(double* y, double a, const double* x, std::size_t n) noexcept;
void bias_activate(double* h, const double* bias, std::size_t n) noexcept;
[[nodiscard]] double fused_act_dot(const double* shared,
                                   const double* last_row, double code,
                                   const double* bias, const double* beta,
                                   std::size_t n) noexcept;
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
[[nodiscard]] std::int32_t q20_dot(const std::int32_t* a,
                                   const std::int32_t* b, std::size_t n,
                                   std::int32_t init,
                                   Q20SatCounts& sat) noexcept;
[[nodiscard]] std::int32_t q20_action_dot(const std::int32_t* shared,
                                          const std::int32_t* last_row,
                                          std::int32_t code,
                                          const std::int32_t* beta,
                                          std::size_t units,
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

}  // namespace scalar

}  // namespace oselm::linalg::kernels
