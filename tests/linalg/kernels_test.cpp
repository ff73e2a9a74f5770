// Kernel-layer equivalence suite: every dispatched kernel against the
// scalar reference, over remainder-lane sizes (1, 7, 8, 9, 31, ...) and
// unaligned spans.
//
//   * double kernels: <= 1e-12 relative (the AVX2 set fuses multiply-adds
//     and vector-reduces dot products, so the last ulps may differ);
//     fused_act_dot must additionally reproduce axpy + bias_activate +
//     dot BIT-exactly under whichever mode is active — that identity is
//     what keeps the backend's predict paths mutually bit-identical.
//   * q20 kernels: bit-exact in values AND saturation counters, including
//     inputs engineered to saturate (the FPGA fidelity contract).
#include "linalg/kernels.hpp"

#include <gtest/gtest.h>

#include <algorithm>
#include <cmath>
#include <cstdint>
#include <limits>
#include <string>
#include <vector>

#include "fixed/fixed_point.hpp"
#include "util/rng.hpp"

namespace oselm::linalg::kernels {
namespace {

const std::size_t kSizes[] = {1, 7, 8, 9, 31, 64, 100};

/// Forces SIMD dispatch for the scope; restores the available-default on
/// exit (each test file is its own binary, so no cross-suite leakage).
class SimdGuard {
 public:
  SimdGuard() { set_simd_enabled(true); }
  ~SimdGuard() { reset_simd_override(); }
};

std::vector<double> random_vec(std::size_t n, util::Rng& rng, double lo = -2.0,
                               double hi = 2.0) {
  std::vector<double> v(n);
  rng.fill_uniform(v, lo, hi);
  return v;
}

/// Unaligned view: copies `v` into a buffer offset by one double so the
/// data pointer is 8-byte- but never 32-byte-aligned.
struct Unaligned {
  std::vector<double> storage;
  double* data;
  explicit Unaligned(const std::vector<double>& v)
      : storage(v.size() + 1, 0.0) {
    std::copy(v.begin(), v.end(), storage.begin() + 1);
    data = storage.data() + 1;
  }
};

void expect_close(double a, double b, const char* what, std::size_t n) {
  const double scale = std::max({1.0, std::abs(a), std::abs(b)});
  EXPECT_LE(std::abs(a - b), 1e-12 * scale) << what << " n=" << n;
}

TEST(KernelDispatch, ReportsAConsistentState) {
  if (!simd_available()) {
    EXPECT_FALSE(simd_enabled());
    GTEST_SKIP() << "no SIMD kernel set on this host";
  }
  SimdGuard guard;
  EXPECT_TRUE(simd_enabled());
  EXPECT_STREQ(active_kernel_set(), "avx2");
  set_simd_enabled(false);
  EXPECT_FALSE(simd_enabled());
  EXPECT_STREQ(active_kernel_set(), "scalar");
}

TEST(KernelDot, MatchesScalarReference) {
  if (!simd_available()) GTEST_SKIP() << "no SIMD kernel set";
  SimdGuard guard;
  util::Rng rng(1);
  for (const std::size_t n : kSizes) {
    const Unaligned a(random_vec(n, rng));
    const Unaligned b(random_vec(n, rng));
    expect_close(dot(a.data, b.data, n), scalar::dot(a.data, b.data, n),
                 "dot", n);
  }
}

TEST(KernelAxpy, MatchesScalarReference) {
  if (!simd_available()) GTEST_SKIP() << "no SIMD kernel set";
  SimdGuard guard;
  util::Rng rng(2);
  for (const std::size_t n : kSizes) {
    const std::vector<double> x = random_vec(n, rng);
    const std::vector<double> y0 = random_vec(n, rng);
    Unaligned xs(x);
    Unaligned ys(y0);
    std::vector<double> y_ref = y0;
    axpy(ys.data, 0.7321, xs.data, n);
    scalar::axpy(y_ref.data(), 0.7321, x.data(), n);
    for (std::size_t i = 0; i < n; ++i) {
      expect_close(ys.data[i], y_ref[i], "axpy", n);
    }
  }
}

TEST(KernelBiasActivate, MatchesScalarReferenceForEveryActivation) {
  if (!simd_available()) GTEST_SKIP() << "no SIMD kernel set";
  SimdGuard guard;
  util::Rng rng(3);
  for (const std::size_t n : kSizes) {
    const std::vector<double> h0 = random_vec(n, rng);
    const std::vector<double> bias = random_vec(n, rng);
    Unaligned hs(h0);
    std::vector<double> h_ref = h0;
    bias_activate(hs.data, bias.data(), n);
    scalar::bias_activate(h_ref.data(), bias.data(), n);
    for (std::size_t i = 0; i < n; ++i) {
      EXPECT_GE(h_ref[i], 0.0);
      expect_close(hs.data[i], h_ref[i], "bias_activate", n);
    }
  }
}

TEST(KernelFusedActDot, MatchesScalarReference) {
  if (!simd_available()) GTEST_SKIP() << "no SIMD kernel set";
  SimdGuard guard;
  util::Rng rng(5);
  for (const std::size_t n : kSizes) {
    const Unaligned shared(random_vec(n, rng));
    const Unaligned last(random_vec(n, rng));
    const std::vector<double> bias = random_vec(n, rng);
    const Unaligned beta(random_vec(n, rng));
    expect_close(fused_act_dot(shared.data, last.data, 0.81, bias.data(),
                               beta.data, n),
                 scalar::fused_act_dot(shared.data, last.data, 0.81,
                                       bias.data(), beta.data, n),
                 "fused_act_dot", n);
  }
}

TEST(KernelFusedActDot, EqualsAxpyBiasActivateDotBitExactInBothModes) {
  // The identity the backend-contract EXPECT_DOUBLE_EQ pins stand on:
  // within one dispatch mode, fusing must not change a single bit of the
  // composition predict_main runs (Elm::hidden_row's axpy of the code row
  // onto the shared state projection, bias_activate, then dot).
  util::Rng rng(6);
  for (const bool simd : {false, true}) {
    if (simd && !simd_available()) continue;
    set_simd_enabled(simd);
    for (const double code : {1.0, -0.37, 0.81}) {
      for (const std::size_t n : kSizes) {
        const std::vector<double> shared = random_vec(n, rng);
        const std::vector<double> last = random_vec(n, rng);
        const std::vector<double> bias = random_vec(n, rng);
        const std::vector<double> beta = random_vec(n, rng);
        std::vector<double> h = shared;
        axpy(h.data(), code, last.data(), n);
        bias_activate(h.data(), bias.data(), n);
        const double staged = dot(h.data(), beta.data(), n);
        const double fused = fused_act_dot(shared.data(), last.data(), code,
                                           bias.data(), beta.data(), n);
        EXPECT_EQ(fused, staged) << "mode=" << (simd ? "avx2" : "scalar")
                                 << " code=" << code << " n=" << n;
      }
    }
  }
  reset_simd_override();
}

TEST(KernelSymRank1, MatchesScalarReferenceAndStaysSymmetric) {
  if (!simd_available()) GTEST_SKIP() << "no SIMD kernel set";
  SimdGuard guard;
  util::Rng rng(7);
  for (const std::size_t n : kSizes) {
    for (const double p_scale : {1.0, 1.0 / 0.97}) {
      // Build a symmetric P = B B^T + I.
      std::vector<double> b = random_vec(n * n, rng, -0.5, 0.5);
      std::vector<double> p(n * n, 0.0);
      for (std::size_t i = 0; i < n; ++i) {
        for (std::size_t j = 0; j < n; ++j) {
          double acc = i == j ? 1.0 : 0.0;
          for (std::size_t k = 0; k < n; ++k) {
            acc += b[i * n + k] * b[j * n + k];
          }
          p[i * n + j] = acc;
        }
      }
      const std::vector<double> u = random_vec(n, rng);
      std::vector<double> p_simd = p;
      std::vector<double> p_ref = p;
      sym_rank1_update(p_simd.data(), n, u.data(), 0.31, p_scale);
      scalar::sym_rank1_update(p_ref.data(), n, u.data(), 0.31, p_scale);
      for (std::size_t i = 0; i < n * n; ++i) {
        expect_close(p_simd[i], p_ref[i], "sym_rank1_update", n);
      }
      // Mirroring makes symmetry exact, not just approximate.
      for (std::size_t i = 0; i < n; ++i) {
        for (std::size_t j = 0; j < n; ++j) {
          EXPECT_EQ(p_simd[i * n + j], p_simd[j * n + i]);
        }
      }
    }
  }
}

/// Symmetric P = B B^T + I as a flat row-major buffer.
std::vector<double> random_spd(std::size_t n, util::Rng& rng) {
  std::vector<double> b = random_vec(n * n, rng, -0.5, 0.5);
  std::vector<double> p(n * n, 0.0);
  for (std::size_t i = 0; i < n; ++i) {
    for (std::size_t j = 0; j < n; ++j) {
      double acc = i == j ? 1.0 : 0.0;
      for (std::size_t k = 0; k < n; ++k) acc += b[i * n + k] * b[j * n + k];
      p[i * n + j] = acc;
    }
  }
  return p;
}

TEST(KernelSymRankK, MatchesDenseDowndateAndStaysSymmetric) {
  util::Rng rng(14);
  const struct RestoreDispatch {
    ~RestoreDispatch() { reset_simd_override(); }
  } restore;
  for (const bool simd : {false, true}) {
    if (simd && !simd_available()) continue;
    set_simd_enabled(simd);
    for (const std::size_t n : {9u, 31u, 64u}) {
      for (const std::size_t k : {2u, 3u, 5u, 8u, 13u, 32u}) {
        const std::vector<double> p0 = random_spd(n, rng);
        // U (as k x n transposed rows) and a symmetric K give the Eq. 5
        // shape: G = U K, downdate = G U^T symmetric.
        const std::vector<double> ut = random_vec(k * n, rng);
        std::vector<double> kmat = random_vec(k * k, rng, -0.3, 0.3);
        for (std::size_t r = 0; r < k; ++r) {
          for (std::size_t c = r + 1; c < k; ++c) {
            kmat[c * k + r] = kmat[r * k + c];
          }
        }
        std::vector<double> gt(k * n, 0.0);
        for (std::size_t c = 0; c < k; ++c) {
          for (std::size_t i = 0; i < n; ++i) {
            for (std::size_t d = 0; d < k; ++d) {
              gt[c * n + i] += kmat[c * k + d] * ut[d * n + i];
            }
          }
        }
        std::vector<double> p = p0;
        sym_rankk_downdate(p.data(), n, gt.data(), ut.data(), k);
        // Dense reference on the upper triangle.
        for (std::size_t i = 0; i < n; ++i) {
          for (std::size_t j = i; j < n; ++j) {
            double expected = p0[i * n + j];
            for (std::size_t c = 0; c < k; ++c) {
              expected -= gt[c * n + i] * ut[c * n + j];
            }
            expect_close(p[i * n + j], expected, "sym_rankk_downdate", n);
          }
        }
        // Exact symmetry via the mirror.
        for (std::size_t i = 0; i < n; ++i) {
          for (std::size_t j = 0; j < n; ++j) {
            EXPECT_EQ(p[i * n + j], p[j * n + i]);
          }
        }
      }
    }
  }
}

TEST(KernelSymRankK, TiledKernelIsTheAxpySweepBitForBit) {
  // The tiled kernel applies the k rows to each element in c order, with
  // the same (fused under SIMD) multiply-add as one axpy sweep per row, so
  // it reproduces the k-axpy-sweep loop exactly in both kernel sets.
  util::Rng rng(16);
  const struct RestoreDispatch {
    ~RestoreDispatch() { reset_simd_override(); }
  } restore;
  for (const bool simd : {false, true}) {
    if (simd && !simd_available()) continue;
    set_simd_enabled(simd);
    for (const std::size_t n : {9u, 31u, 64u}) {
      for (const std::size_t k : {2u, 3u, 5u, 8u, 13u, 32u}) {
        const std::vector<double> p0 = random_spd(n, rng);
        const std::vector<double> gt = random_vec(k * n, rng);
        const std::vector<double> ut = random_vec(k * n, rng);
        std::vector<double> sweep = p0;
        for (std::size_t i = 0; i < n; ++i) {
          double* row = sweep.data() + i * n;
          for (std::size_t c = 0; c < k; ++c) {
            axpy(row + i, -gt[c * n + i], ut.data() + c * n + i, n - i);
          }
        }
        for (std::size_t i = 0; i < n; ++i) {
          for (std::size_t j = 0; j < i; ++j) {
            sweep[i * n + j] = sweep[j * n + i];
          }
        }
        std::vector<double> tiled = p0;
        sym_rankk_downdate(tiled.data(), n, gt.data(), ut.data(), k);
        ASSERT_EQ(tiled, sweep)
            << "mode=" << (simd ? "avx2" : "scalar") << " n=" << n
            << " k=" << k;
      }
    }
  }
}

TEST(KernelGemm, MatchesTheTextbookLoopInBothModes) {
  util::Rng rng(17);
  const struct RestoreDispatch {
    ~RestoreDispatch() { reset_simd_override(); }
  } restore;
  for (const bool simd : {false, true}) {
    if (simd && !simd_available()) continue;
    set_simd_enabled(simd);
    for (const std::size_t m : {1u, 3u, 4u, 13u}) {
      for (const std::size_t n : {1u, 7u, 9u, 31u, 64u}) {
        const std::size_t inner = n + 2;
        const std::vector<double> a = random_vec(m * inner, rng);
        const std::vector<double> b = random_vec(inner * n, rng);
        std::vector<double> c(m * n, -1.0);
        gemm(a.data(), b.data(), c.data(), m, inner, n);
        for (std::size_t r = 0; r < m; ++r) {
          for (std::size_t j = 0; j < n; ++j) {
            double expected = 0.0;
            for (std::size_t l = 0; l < inner; ++l) {
              expected += a[r * inner + l] * b[l * n + j];
            }
            expect_close(c[r * n + j], expected, "gemm", n);
          }
        }
      }
    }
  }
}

TEST(KernelSymRankK, KEqualsOneMatchesTheRank1Kernel) {
  // gt = u * inv reproduces sym_rank1_update's p_scale == 1 arithmetic
  // exactly (axpy with a negated multiplier is the same FMA).
  util::Rng rng(15);
  const std::size_t n = 100;
  const std::vector<double> p0 = random_spd(n, rng);
  const std::vector<double> u = random_vec(n, rng);
  const double inv = 0.37;
  std::vector<double> gt(n);
  for (std::size_t i = 0; i < n; ++i) gt[i] = u[i] * inv;
  std::vector<double> via_rankk = p0;
  sym_rankk_downdate(via_rankk.data(), n, gt.data(), u.data(), 1);
  std::vector<double> via_rank1 = p0;
  sym_rank1_update(via_rank1.data(), n, u.data(), inv, 1.0);
  ASSERT_EQ(via_rankk, via_rank1);
}

// ---------------------------------------------------------------------------
// Q20 kernels: bit-exact, counters included
// ---------------------------------------------------------------------------

std::vector<std::int32_t> random_q20(std::size_t n, util::Rng& rng,
                                     double lo = -2.0, double hi = 2.0) {
  std::vector<std::int32_t> v(n);
  for (auto& w : v) w = fixed::Q20::from_double(rng.uniform(lo, hi)).raw();
  return v;
}

/// Values near the Q20 limits so multiplies and accumulations saturate.
std::vector<std::int32_t> extreme_q20(std::size_t n, util::Rng& rng) {
  std::vector<std::int32_t> v(n);
  for (auto& w : v) {
    const double huge = rng.uniform(900.0, 1023.0);  // Q20 max ~2047.99
    w = fixed::Q20::from_double(rng.bernoulli(0.5) ? huge : -huge).raw();
  }
  return v;
}

void expect_sat_eq(const Q20SatCounts& a, const Q20SatCounts& b,
                   const char* what, std::size_t n) {
  EXPECT_EQ(a.add, b.add) << what << " add n=" << n;
  EXPECT_EQ(a.mul, b.mul) << what << " mul n=" << n;
  EXPECT_EQ(a.conversion, b.conversion) << what << " conversion n=" << n;
}

// Each check_* runs one kernel under the active dispatch and the scalar
// reference on the same inputs and compares values and counters.

void check_dot(const std::vector<std::int32_t>& a,
               const std::vector<std::int32_t>& b, std::int32_t init,
               const std::string& label) {
  Q20SatCounts sat_simd;
  Q20SatCounts sat_ref;
  EXPECT_EQ(q20_dot(a.data(), b.data(), a.size(), init, sat_simd),
            scalar::q20_dot(a.data(), b.data(), a.size(), init, sat_ref))
      << label << " n=" << a.size();
  expect_sat_eq(sat_simd, sat_ref, label.c_str(), a.size());
}

void check_matvec(const std::vector<std::int32_t>& m,
                  const std::vector<std::int32_t>& x,
                  const std::string& label) {
  const std::size_t n = x.size();
  std::vector<std::int32_t> y_simd(n, 0);
  std::vector<std::int32_t> y_ref(n, 0);
  Q20SatCounts sat_simd;
  Q20SatCounts sat_ref;
  q20_matvec(m.data(), n, x.data(), y_simd.data(), sat_simd);
  scalar::q20_matvec(m.data(), n, x.data(), y_ref.data(), sat_ref);
  EXPECT_EQ(y_simd, y_ref) << label << " n=" << n;
  expect_sat_eq(sat_simd, sat_ref, label.c_str(), n);
}

void check_hidden_mac(const std::vector<std::int32_t>& a,
                      const std::vector<std::int32_t>& x,
                      const std::vector<std::int32_t>& init,
                      const std::string& label) {
  const std::size_t units = init.size();
  for (const bool relu : {false, true}) {
    std::vector<std::int32_t> out_simd(units, 0);
    std::vector<std::int32_t> out_ref(units, 0);
    Q20SatCounts sat_simd;
    Q20SatCounts sat_ref;
    q20_hidden_mac(a.data(), x.size(), units, x.data(), init.data(),
                   out_simd.data(), relu, sat_simd);
    scalar::q20_hidden_mac(a.data(), x.size(), units, x.data(), init.data(),
                           out_ref.data(), relu, sat_ref);
    EXPECT_EQ(out_simd, out_ref)
        << label << " units=" << units << " relu=" << relu;
    expect_sat_eq(sat_simd, sat_ref, label.c_str(), units);
  }
}

void check_action_dot(const std::vector<std::int32_t>& shared,
                      const std::vector<std::int32_t>& last,
                      std::int32_t code, const std::vector<std::int32_t>& beta,
                      const std::string& label) {
  Q20SatCounts sat_simd;
  Q20SatCounts sat_ref;
  EXPECT_EQ(q20_action_dot(shared.data(), last.data(), code, beta.data(),
                           beta.size(), sat_simd),
            scalar::q20_action_dot(shared.data(), last.data(), code,
                                   beta.data(), beta.size(), sat_ref))
      << label << " n=" << beta.size();
  expect_sat_eq(sat_simd, sat_ref, label.c_str(), beta.size());
}

void check_downdate(const std::vector<std::int32_t>& p0,
                    const std::vector<std::int32_t>& u, std::int32_t inv,
                    const std::string& label) {
  const std::size_t n = u.size();
  std::vector<std::int32_t> p_simd = p0;
  std::vector<std::int32_t> p_ref = p0;
  std::vector<std::int32_t> ws_simd(n, 0);
  std::vector<std::int32_t> ws_ref(n, 0);
  Q20SatCounts sat_simd;
  Q20SatCounts sat_ref;
  q20_rank1_downdate(p_simd.data(), n, u.data(), inv, ws_simd.data(),
                     sat_simd);
  scalar::q20_rank1_downdate(p_ref.data(), n, u.data(), inv, ws_ref.data(),
                             sat_ref);
  EXPECT_EQ(p_simd, p_ref) << label << " n=" << n;
  EXPECT_EQ(ws_simd, ws_ref) << label << " n=" << n;
  expect_sat_eq(sat_simd, sat_ref, label.c_str(), n);
}

void check_axpy(const std::vector<std::int32_t>& y0, std::int32_t a,
                const std::vector<std::int32_t>& x, const std::string& label) {
  std::vector<std::int32_t> y_simd = y0;
  std::vector<std::int32_t> y_ref = y0;
  Q20SatCounts sat_simd;
  Q20SatCounts sat_ref;
  q20_axpy(y_simd.data(), a, x.data(), x.size(), sat_simd);
  scalar::q20_axpy(y_ref.data(), a, x.data(), x.size(), sat_ref);
  EXPECT_EQ(y_simd, y_ref) << label << " n=" << x.size();
  expect_sat_eq(sat_simd, sat_ref, label.c_str(), x.size());
}

class Q20KernelTest : public ::testing::Test {
 protected:
  void SetUp() override {
    if (!simd_available()) GTEST_SKIP() << "no SIMD kernel set";
    set_simd_enabled(true);
  }
  void TearDown() override { reset_simd_override(); }
};

TEST_F(Q20KernelTest, DotIsBitExactIncludingSaturation) {
  util::Rng rng(10);
  for (const std::size_t n : kSizes) {
    for (const bool extreme : {false, true}) {
      const auto a = extreme ? extreme_q20(n, rng) : random_q20(n, rng);
      const auto b = extreme ? extreme_q20(n, rng) : random_q20(n, rng);
      check_dot(a, b, 12345, "q20_dot extreme=" + std::to_string(extreme));
    }
  }
}

TEST_F(Q20KernelTest, HiddenMacIsBitExactIncludingSaturation) {
  util::Rng rng(11);
  for (const std::size_t units : kSizes) {
    for (const std::size_t rows : {std::size_t{1}, std::size_t{5}}) {
      for (const bool extreme : {false, true}) {
        const auto a = extreme ? extreme_q20(rows * units, rng)
                               : random_q20(rows * units, rng);
        const auto x = extreme ? extreme_q20(rows, rng)
                               : random_q20(rows, rng);
        check_hidden_mac(a, x, random_q20(units, rng),
                         "q20_hidden_mac rows=" + std::to_string(rows) +
                             " extreme=" + std::to_string(extreme));
      }
    }
  }
}

TEST_F(Q20KernelTest, ActionDotIsBitExactIncludingSaturation) {
  util::Rng rng(12);
  for (const std::size_t n : kSizes) {
    for (const bool extreme : {false, true}) {
      const auto shared = extreme ? extreme_q20(n, rng) : random_q20(n, rng);
      const auto last = extreme ? extreme_q20(n, rng) : random_q20(n, rng);
      const auto beta = extreme ? extreme_q20(n, rng) : random_q20(n, rng);
      check_action_dot(shared, last, fixed::Q20::from_double(-1.0).raw(),
                       beta,
                       "q20_action_dot extreme=" + std::to_string(extreme));
    }
  }
}

TEST_F(Q20KernelTest, MatvecIsBitExact) {
  util::Rng rng(13);
  for (const std::size_t n : kSizes) {
    for (const bool extreme : {false, true}) {
      const auto m = extreme ? extreme_q20(n * n, rng)
                             : random_q20(n * n, rng);
      const auto x = extreme ? extreme_q20(n, rng) : random_q20(n, rng);
      check_matvec(m, x, "q20_matvec extreme=" + std::to_string(extreme));
    }
  }
}

TEST_F(Q20KernelTest, Rank1DowndateIsBitExactIncludingSaturation) {
  util::Rng rng(14);
  for (const std::size_t n : kSizes) {
    for (const bool extreme : {false, true}) {
      const auto p0 = extreme ? extreme_q20(n * n, rng)
                              : random_q20(n * n, rng);
      const auto u = extreme ? extreme_q20(n, rng) : random_q20(n, rng);
      check_downdate(p0, u, fixed::Q20::from_double(0.493).raw(),
                     "q20_rank1_downdate extreme=" + std::to_string(extreme));
    }
  }
}

TEST_F(Q20KernelTest, AxpyIsBitExactIncludingSaturation) {
  util::Rng rng(15);
  for (const std::size_t n : kSizes) {
    for (const bool extreme : {false, true}) {
      const auto x = extreme ? extreme_q20(n, rng) : random_q20(n, rng);
      const auto y0 = extreme ? extreme_q20(n, rng) : random_q20(n, rng);
      check_axpy(y0, fixed::Q20::from_double(extreme ? 800.0 : 0.7).raw(), x,
                 "q20_axpy extreme=" + std::to_string(extreme));
    }
  }
}

TEST_F(Q20KernelTest, QuantizeRoundTripIsBitExactIncludingSaturation) {
  util::Rng rng(16);
  for (const std::size_t n : kSizes) {
    std::vector<double> src(n);
    for (std::size_t i = 0; i < n; ++i) {
      // Mix healthy values with ones beyond the Q20 range (|x| < 2048).
      src[i] = rng.bernoulli(0.25) ? rng.uniform(-9000.0, 9000.0)
                                   : rng.uniform(-2.0, 2.0);
    }
    std::vector<std::int32_t> q_simd(n, 0);
    std::vector<std::int32_t> q_ref(n, 0);
    Q20SatCounts sat_simd;
    Q20SatCounts sat_ref;
    q20_quantize(src.data(), q_simd.data(), n, sat_simd);
    scalar::q20_quantize(src.data(), q_ref.data(), n, sat_ref);
    EXPECT_EQ(q_simd, q_ref) << "n=" << n;
    expect_sat_eq(sat_simd, sat_ref, "q20_quantize", n);
    // Quantize must agree with fixed::Q20::from_double itself.
    for (std::size_t i = 0; i < n; ++i) {
      EXPECT_EQ(q_ref[i], fixed::Q20::from_double(src[i]).raw()) << i;
    }

    std::vector<double> d_simd(n, 0.0);
    std::vector<double> d_ref(n, 0.0);
    q20_dequantize(q_simd.data(), d_simd.data(), n);
    scalar::q20_dequantize(q_ref.data(), d_ref.data(), n);
    EXPECT_EQ(d_simd, d_ref) << "n=" << n;
    for (std::size_t i = 0; i < n; ++i) {
      EXPECT_EQ(d_ref[i], fixed::Q20::from_raw(q_ref[i]).to_double()) << i;
    }
  }
}

// ---------------------------------------------------------------------------
// Q20 range-proof boundaries: the AVX2 set runs 8 wrap-free int32 lanes only
// when |a|*|b| < 2^51 - 2^19 (no multiply saturates) and |init| + n*term
// <= INT32_MAX (no prefix saturates). Cases sit one raw unit either side of
// each guard, land sums exactly on INT32_MAX/INT32_MIN, and use INT32_MIN
// operands (whose int32 abs overflows). Every case compares values and
// counters with the scalar reference.
// ---------------------------------------------------------------------------

constexpr std::int32_t kMax = std::numeric_limits<std::int32_t>::max();
constexpr std::int32_t kMin = std::numeric_limits<std::int32_t>::min();
constexpr std::int32_t kOne = 1 << 20;  // Q20 1.0

/// Operand pairs whose magnitude product sits at the multiply guard
/// L = 2^51 - 2^19: L - 1 (largest exact product, rounds to INT32_MAX),
/// L (the first saturating product) and the next product one raw unit of
/// `b` above it. L + 1 has no factorization into two int32 magnitudes.
struct MulPair {
  std::int32_t a;
  std::int32_t b;
  const char* name;
};
const MulPair kMulPairs[] = {
    {595980851, 3778309, "L-1"},  // 2351*253501 * 101*37409
    {16843009, 133693440, "L"},   // 257*65537 * 255*2^19
    {16843009, 133693441, "L+a"},
};

/// Sum targets around the accumulation guard, relative to INT32_MAX/MIN.
const std::int64_t kSumTargets[] = {
    std::int64_t{kMax} - 1, std::int64_t{kMax}, std::int64_t{kMax} + 1,
    std::int64_t{kMin} + 1, std::int64_t{kMin}, std::int64_t{kMin} - 1};

/// n words summing to `total` (each within one unit of total / n). A
/// single word cannot hold a total beyond int32, so it is clamped there.
std::vector<std::int32_t> spread(std::int64_t total, std::size_t n) {
  std::vector<std::int32_t> v(n);
  const auto count = static_cast<std::int64_t>(n);
  for (std::size_t j = 0; j < n; ++j) {
    const auto k = static_cast<std::int64_t>(j);
    v[j] = static_cast<std::int32_t>(std::clamp<std::int64_t>(
        total * (k + 1) / count - total * k / count, kMin, kMax));
  }
  return v;
}

const std::size_t kBoundarySizes[] = {1, 9, 64};

std::string case_label(const char* kernel, const std::string& what) {
  return std::string(kernel) + " " + what;
}

TEST_F(Q20KernelTest, MultiplyGuardBoundaryIsBitExact) {
  util::Rng rng(17);
  for (const std::size_t n : kBoundarySizes) {
    for (const MulPair& pair : kMulPairs) {
      for (const std::int32_t sign : {1, -1}) {
        const std::string what =
            std::string(pair.name) + (sign < 0 ? " negative" : "");
        const std::int32_t a = sign * pair.a;
        const std::size_t last = n - 1;

        // The guard product in one element, and split across elements
        // (max|a| and max|b| in different words: no real product is near
        // the limit, but the proof must still refuse).
        auto va = random_q20(n, rng);
        auto vb = random_q20(n, rng);
        va[last] = a;
        vb[last] = pair.b;
        check_dot(va, vb, 0, case_label("q20_dot", what));
        vb[last] = 3;
        vb[0] = pair.b;
        check_dot(va, vb, 0, case_label("q20_dot split", what));

        auto m = random_q20(n * n, rng);
        auto x = random_q20(n, rng);
        x[last] = a;
        m[last] = pair.b;  // row 0 hits the guard, the other rows do not
        check_matvec(m, x, case_label("q20_matvec", what));

        for (const std::size_t rows : {std::size_t{1}, std::size_t{5}}) {
          auto xs = random_q20(rows, rng);
          auto alpha = random_q20(rows * n, rng);
          xs[rows - 1] = a;
          alpha[(rows - 1) * n + last] = pair.b;
          check_hidden_mac(alpha, xs, std::vector<std::int32_t>(n, 0),
                           case_label("q20_hidden_mac", what));
        }

        // Correction guard (code * last_row) and output guard (h * beta).
        auto shared = random_q20(n, rng);
        auto last_row = random_q20(n, rng);
        auto beta = random_q20(n, rng);
        last_row[last] = pair.b;
        check_action_dot(shared, last_row, a, beta,
                         case_label("q20_action_dot corr", what));
        last_row[last] = 0;
        shared[last] = pair.a;  // relu keeps h = a > 0
        beta[last] = sign * pair.b;
        check_action_dot(shared, last_row, kOne, beta,
                         case_label("q20_action_dot out", what));

        // inv = 1.0 makes scaled == u, so row i's guard is |u_i| * max|u|.
        auto u = random_q20(n, rng);
        u[0] = sign * pair.b;
        if (n > 1) u[last] = a;
        check_downdate(random_q20(n * n, rng), u, kOne,
                       case_label("q20_rank1_downdate", what));

        auto xa = random_q20(n, rng);
        xa[last] = pair.b;
        check_axpy(random_q20(n, rng), a, xa, case_label("q20_axpy", what));
      }
    }
  }
}

TEST_F(Q20KernelTest, SumGuardBoundaryIsBitExact) {
  util::Rng rng(18);
  for (const std::size_t n : kBoundarySizes) {
    const std::vector<std::int32_t> ones(n, kOne);  // 1.0 * b == b exactly
    for (const std::int64_t target : kSumTargets) {
      const std::string what = "target=" + std::to_string(target);
      // Tight dot proof: n equal terms t and init = target - n*t.
      const std::int32_t t = target > 0 ? 1000003 : -1000003;
      const auto init =
          static_cast<std::int32_t>(target - static_cast<std::int64_t>(n) * t);
      check_dot(ones, std::vector<std::int32_t>(n, t), init,
                case_label("q20_dot", what));
      check_dot(ones, spread(target, n), 0,
                case_label("q20_dot spread", what));

      // Matvec rows land on the target, next to healthy rows.
      auto m = random_q20(n * n, rng);
      const auto row = spread(target, n);
      std::copy(row.begin(), row.end(), m.begin());
      check_matvec(m, ones, case_label("q20_matvec", what));

      // Hidden MAC: every column is init + sum_i 1.0 * a(i, j).
      for (const std::size_t rows : {std::size_t{1}, std::size_t{5}}) {
        std::vector<std::int32_t> alpha(rows * n, t);
        check_hidden_mac(
            alpha, std::vector<std::int32_t>(rows, kOne),
            std::vector<std::int32_t>(
                n, static_cast<std::int32_t>(
                       target - static_cast<std::int64_t>(rows) * t)),
            case_label("q20_hidden_mac", what));
      }

      // Action dot: h = shared + 1.0 * last_row lands on the target (then
      // relu), and the output sum of 1.0 * beta lands on the target.
      const std::int32_t corr = target > 0 ? 4096 : -4096;
      check_action_dot(
          std::vector<std::int32_t>(n,
                                    static_cast<std::int32_t>(target - corr)),
          std::vector<std::int32_t>(n, corr), kOne, random_q20(n, rng),
          case_label("q20_action_dot h", what));
      check_action_dot(ones, std::vector<std::int32_t>(n, 0), kOne,
                       spread(target, n),
                       case_label("q20_action_dot out", what));

      // Elementwise kernels: y + product lands on the target.
      check_axpy(std::vector<std::int32_t>(
                     n, static_cast<std::int32_t>(target - t)),
                 kOne, std::vector<std::int32_t>(n, t),
                 case_label("q20_axpy", what));
      // Downdate with u = +-1.0 and inv = 1.0: p(i, j) - u_i * u_j.
      std::vector<std::int32_t> u(n);
      for (std::size_t j = 0; j < n; ++j) u[j] = j % 2 == 0 ? kOne : -kOne;
      std::vector<std::int32_t> p0(n * n);
      for (std::size_t i = 0; i < n; ++i) {
        for (std::size_t j = 0; j < n; ++j) {
          const std::int64_t product = (i + j) % 2 == 0 ? kOne : -kOne;
          p0[i * n + j] = static_cast<std::int32_t>(
              std::clamp<std::int64_t>(target + product, kMin, kMax));
        }
      }
      check_downdate(p0, u, kOne, case_label("q20_rank1_downdate", what));
    }
  }
}

TEST_F(Q20KernelTest, Int32MinOperandsAreBitExact) {
  util::Rng rng(19);
  for (const std::size_t n : kBoundarySizes) {
    for (const std::int32_t other : {1, kOne, -kOne, 3 * kOne, kMin}) {
      const std::string what = "other=" + std::to_string(other);
      auto a = random_q20(n, rng, -0.01, 0.01);
      a[n / 2] = kMin;
      const std::vector<std::int32_t> b(n, other);
      check_dot(a, b, 0, case_label("q20_dot", what));
      check_dot(a, b, -1, case_label("q20_dot init=-1", what));

      auto m = random_q20(n * n, rng, -0.01, 0.01);
      m[n / 2] = kMin;
      check_matvec(m, b, case_label("q20_matvec", what));

      check_hidden_mac(a, std::vector<std::int32_t>(1, other),
                       random_q20(n, rng),
                       case_label("q20_hidden_mac", what));
      check_hidden_mac(b, std::vector<std::int32_t>(1, kMin),
                       std::vector<std::int32_t>(n, 0),
                       case_label("q20_hidden_mac x=min", what));

      check_action_dot(a, b, kOne, random_q20(n, rng),
                       case_label("q20_action_dot shared", what));
      check_action_dot(random_q20(n, rng), a, other, random_q20(n, rng),
                       case_label("q20_action_dot last", what));
      check_action_dot(std::vector<std::int32_t>(n, kOne),
                       std::vector<std::int32_t>(n, 0), kOne, a,
                       case_label("q20_action_dot beta", what));

      check_downdate(m, a, other, case_label("q20_rank1_downdate", what));
      check_downdate(m, b, kOne, case_label("q20_rank1_downdate u", what));

      check_axpy(a, other, b, case_label("q20_axpy y", what));
      check_axpy(b, kOne, a, case_label("q20_axpy x", what));
      check_axpy(b, kMin, random_q20(n, rng, -0.01, 0.01),
                 case_label("q20_axpy a=min", what));
    }
  }
}

/// Words with log-uniform magnitudes over the whole int32 range, so the
/// range proofs hold for some calls, rows and groups and fail for others.
std::vector<std::int32_t> log_uniform_q20(std::size_t n, util::Rng& rng) {
  std::vector<std::int32_t> v(n);
  for (auto& w : v) {
    const double magnitude = std::pow(2.0, rng.uniform(0.0, 31.0));
    const auto word = static_cast<std::int64_t>(magnitude);
    w = static_cast<std::int32_t>(rng.bernoulli(0.5) ? word : -word);
  }
  return v;
}

TEST_F(Q20KernelTest, RandomMagnitudesAreBitExact) {
  util::Rng rng(20);
  for (int trial = 0; trial < 150; ++trial) {
    const std::size_t n = 1 + rng.uniform_index(70);
    const std::string what = "trial=" + std::to_string(trial);
    const auto a = log_uniform_q20(n, rng);
    const auto b = log_uniform_q20(n, rng);
    const auto word = log_uniform_q20(1, rng)[0];
    check_dot(a, b, word, case_label("q20_dot", what));
    check_matvec(log_uniform_q20(n * n, rng), a,
                 case_label("q20_matvec", what));
    check_hidden_mac(log_uniform_q20(5 * n, rng), log_uniform_q20(5, rng), b,
                     case_label("q20_hidden_mac", what));
    check_action_dot(a, b, word, log_uniform_q20(n, rng),
                     case_label("q20_action_dot", what));
    check_downdate(log_uniform_q20(n * n, rng), a, word,
                   case_label("q20_rank1_downdate", what));
    check_axpy(a, word, b, case_label("q20_axpy", what));
  }
}

}  // namespace
}  // namespace oselm::linalg::kernels
