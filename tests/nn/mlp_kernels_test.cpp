// The DQN baseline's AVX2 training kernels (kernels::mlp_forward,
// mlp_backward, adam_update) against the scalar reference in nn::Mlp and
// nn::AdamOptimizer, bit for bit: every shape combination over remainder
// sizes, plus the IEEE edge cases the reference pins (zero-skips against
// ±inf, dead units, ±0.0 and NaN pre-activations, subnormal Adam moments).
#include <gtest/gtest.h>

#include <array>
#include <bit>
#include <cmath>
#include <cstdint>
#include <limits>
#include <string>
#include <utility>

#include "linalg/kernels.hpp"
#include "nn/adam.hpp"
#include "nn/mlp.hpp"
#include "test_support.hpp"
#include "util/rng.hpp"

namespace oselm::nn {
namespace {

namespace kernels = linalg::kernels;

constexpr double kInf = std::numeric_limits<double>::infinity();
constexpr double kNaN = std::numeric_limits<double>::quiet_NaN();

using test_support::KernelSetScope;

class MlpKernels : public ::testing::Test {
 protected:
  void SetUp() override {
    if (!kernels::simd_available()) GTEST_SKIP() << "no SIMD kernel set";
  }
};

void expect_same_bits(const double* a, const double* b, std::size_t n,
                      const std::string& what) {
  for (std::size_t i = 0; i < n; ++i) {
    ASSERT_EQ(std::bit_cast<std::uint64_t>(a[i]),
              std::bit_cast<std::uint64_t>(b[i]))
        << what << "[" << i << "]: " << a[i] << " vs " << b[i];
  }
}

void expect_same_bits(const linalg::MatD& a, const linalg::MatD& b,
                      const std::string& what) {
  ASSERT_EQ(a.rows(), b.rows()) << what;
  ASSERT_EQ(a.cols(), b.cols()) << what;
  expect_same_bits(a.data(), b.data(), a.size(), what);
}

void expect_same_bits(const linalg::VecD& a, const linalg::VecD& b,
                      const std::string& what) {
  ASSERT_EQ(a.size(), b.size()) << what;
  expect_same_bits(a.data(), b.data(), a.size(), what);
}

struct StepResult {
  MlpCache cache;
  MlpGradients grads;
  linalg::MatD dhidden;
  Mlp net;
  AdamOptimizer adam;
};

/// Forward, backward and two Adam steps of `net` on (x, dout) with the
/// kernel set pinned to `simd`; the cache may be edited by `edit` between
/// the forward and the backward pass.
template <class Edit>
StepResult train_step(const Mlp& net, const linalg::MatD& x,
                      const linalg::MatD& dout, bool simd, Edit&& edit) {
  const KernelSetScope set(simd);
  StepResult r{{}, {}, {}, net, AdamOptimizer(AdamConfig{}, net.config())};
  r.net.forward_cached(x, r.cache);
  edit(r.cache);
  r.net.backward_into(r.cache, dout, r.grads, r.dhidden);
  r.adam.step(r.net, r.grads);
  r.adam.step(r.net, r.grads);
  return r;
}

void expect_same_step(const StepResult& simd, const StepResult& scalar,
                      const std::string& label) {
  expect_same_bits(simd.cache.h_pre, scalar.cache.h_pre, label + " h_pre");
  expect_same_bits(simd.cache.h, scalar.cache.h, label + " h");
  expect_same_bits(simd.cache.out, scalar.cache.out, label + " out");
  expect_same_bits(simd.dhidden, scalar.dhidden, label + " dh");
  expect_same_bits(simd.grads.w1, scalar.grads.w1, label + " dw1");
  expect_same_bits(simd.grads.b1, scalar.grads.b1, label + " db1");
  expect_same_bits(simd.grads.w2, scalar.grads.w2, label + " dw2");
  expect_same_bits(simd.grads.b2, scalar.grads.b2, label + " db2");
  expect_same_bits(simd.net.w1(), scalar.net.w1(), label + " w1");
  expect_same_bits(simd.net.b1(), scalar.net.b1(), label + " b1");
  expect_same_bits(simd.net.w2(), scalar.net.w2(), label + " w2");
  expect_same_bits(simd.net.b2(), scalar.net.b2(), label + " b2");
  const auto a = simd.adam.moments();
  const auto b = scalar.adam.moments();
  for (std::size_t t = 0; t < a.size(); ++t) {
    expect_same_bits(*a[t], *b[t], label + " moment " + std::to_string(t));
  }
}

template <class Edit>
void expect_parity(const Mlp& net, const linalg::MatD& x,
                   const linalg::MatD& dout, const std::string& label,
                   Edit&& edit) {
  const StepResult simd = train_step(net, x, dout, true, edit);
  const StepResult scalar = train_step(net, x, dout, false, edit);
  expect_same_step(simd, scalar, label);
}

void expect_parity(const Mlp& net, const linalg::MatD& x,
                   const linalg::MatD& dout, const std::string& label) {
  expect_parity(net, x, dout, label, [](MlpCache&) {});
}

TEST_F(MlpKernels, EveryShapeMatchesTheScalarReference) {
  util::Rng rng(21);
  for (const std::size_t batch : {1, 2, 3, 4, 5, 31, 32, 33}) {
    for (const std::size_t hidden : {1, 3, 4, 5, 8, 9, 63, 64, 65}) {
      for (const std::size_t input : {1, 4, 5}) {
        for (const std::size_t output : {1, 2, 3}) {
          const Mlp net(MlpConfig{input, hidden, output}, rng);
          linalg::MatD x(batch, input);
          linalg::MatD dout(batch, output);
          rng.fill_uniform(x.storage(), -2.0, 2.0);
          rng.fill_uniform(dout.storage(), -0.5, 0.5);
          const std::string label =
              testing::PrintToString(std::array{batch, hidden, input, output});
          expect_parity(net, x, dout, label);
          if (HasFatalFailure()) return;
        }
      }
    }
  }
}

TEST_F(MlpKernels, ZeroInputsAgainstInfiniteWeightsMatch) {
  // Forward: 0 * inf is NaN in both sets (layer 1 has no skip). Backward:
  // dW1 skips zero x terms, so an infinite dH gives 0, not NaN.
  util::Rng rng(22);
  Mlp net(MlpConfig{5, 9, 3}, rng);
  net.mutable_w1()(1, 2) = kInf;
  net.mutable_w1()(3, 7) = -kInf;
  linalg::MatD x(6, 5);
  linalg::MatD dout(6, 3);
  rng.fill_uniform(x.storage(), -1.0, 1.0);
  rng.fill_uniform(dout.storage(), -0.5, 0.5);
  for (std::size_t r = 0; r < x.rows(); ++r) {
    x(r, 1) = 0.0;
    x(r, 3) = -0.0;
  }
  expect_parity(net, x, dout, "forward inf");

  // An infinite w2 entry makes dH infinite wherever its unit is live.
  Mlp backward_net(MlpConfig{5, 9, 3}, rng);
  backward_net.mutable_w2()(4, 1) = kInf;
  backward_net.mutable_w2()(8, 0) = -kInf;
  const auto force_live = [](MlpCache& cache) {
    for (std::size_t r = 0; r < cache.h.rows(); ++r) {
      for (const std::size_t j : {4u, 8u}) {
        cache.h_pre(r, j) = 1.0;
        cache.h(r, j) = 1.0;
      }
    }
  };
  expect_parity(backward_net, x, dout, "backward inf", force_live);
  const StepResult simd = train_step(backward_net, x, dout, true, force_live);
  for (const std::size_t k : {1u, 3u}) {
    for (const std::size_t j : {4u, 8u}) {
      EXPECT_EQ(std::bit_cast<std::uint64_t>(simd.grads.w1(k, j)), 0u)
          << "a skipped 0 * inf term reached dW1(" << k << ", " << j << ")";
    }
  }
}

TEST_F(MlpKernels, DeadUnitsSkipInfiniteOutputGradients) {
  // dW2 = h^T dOut skips h == 0, so a dead unit's row stays 0 even when
  // dOut is ±inf.
  util::Rng rng(23);
  const Mlp net(MlpConfig{4, 8, 2}, rng);
  linalg::MatD x(7, 4);
  rng.fill_uniform(x.storage(), -1.0, 1.0);
  linalg::MatD dout(7, 2);
  rng.fill_uniform(dout.storage(), -0.5, 0.5);
  dout(2, 0) = kInf;
  dout(5, 1) = -kInf;
  const auto kill_units = [](MlpCache& cache) {
    for (std::size_t r = 0; r < cache.h.rows(); ++r) {
      for (const std::size_t j : {0u, 3u, 6u}) {
        cache.h_pre(r, j) = -1.0;
        cache.h(r, j) = 0.0;
      }
    }
  };
  expect_parity(net, x, dout, "dead units", kill_units);
  const StepResult simd = train_step(net, x, dout, true, kill_units);
  for (const std::size_t j : {0u, 3u, 6u}) {
    EXPECT_EQ(std::bit_cast<std::uint64_t>(simd.grads.w2(j, 0)), 0u);
    EXPECT_EQ(std::bit_cast<std::uint64_t>(simd.grads.w2(j, 1)), 0u);
  }
}

TEST_F(MlpKernels, SignedZeroAndNaNPreActivationsMatch) {
  util::Rng rng(24);
  Mlp net(MlpConfig{4, 9, 2}, rng);
  // Forward: a NaN bias gives NaN pre-activations, zero weights and bias
  // give exactly +0.0; ReLU must pass NaN through and keep +0.0.
  net.mutable_b1()[2] = kNaN;
  for (std::size_t k = 0; k < 4; ++k) net.mutable_w1()(k, 5) = 0.0;
  net.mutable_b1()[5] = 0.0;
  linalg::MatD x(5, 4);
  linalg::MatD dout(5, 2);
  rng.fill_uniform(x.storage(), -1.0, 1.0);
  rng.fill_uniform(dout.storage(), -0.5, 0.5);
  expect_parity(net, x, dout, "forward zero/NaN");

  // Backward: the ReLU' mask (h_pre <= 0) zeroes -0.0 and +0.0 and keeps
  // NaN, on cached pre-activations the forward pass cannot produce.
  const Mlp clean(MlpConfig{4, 9, 2}, rng);
  const auto edit = [](MlpCache& cache) {
    for (std::size_t r = 0; r < cache.h.rows(); ++r) {
      cache.h_pre(r, 0) = -0.0;
      cache.h(r, 0) = -0.0;
      cache.h_pre(r, 4) = 0.0;
      cache.h(r, 4) = 0.0;
      cache.h_pre(r, 8) = kNaN;
      cache.h(r, 8) = kNaN;
    }
  };
  expect_parity(clean, x, dout, "backward -0/+0/NaN", edit);
  const StepResult simd = train_step(clean, x, dout, true, edit);
  for (std::size_t r = 0; r < x.rows(); ++r) {
    EXPECT_EQ(std::bit_cast<std::uint64_t>(simd.dhidden(r, 0)), 0u);
    EXPECT_EQ(std::bit_cast<std::uint64_t>(simd.dhidden(r, 4)), 0u);
  }
  {
    const KernelSetScope set(true);
    MlpCache cache;
    net.forward_cached(x, cache);
    for (std::size_t r = 0; r < x.rows(); ++r) {
      EXPECT_TRUE(std::isnan(cache.h(r, 2)));
      EXPECT_EQ(std::bit_cast<std::uint64_t>(cache.h(r, 5)), 0u);
    }
  }
}

TEST_F(MlpKernels, AdamMatchesOnZeroGradientsAndSubnormalMoments) {
  // Zero gradients decay the moments geometrically into subnormals; both
  // sets must track them bit for bit (no flush-to-zero anywhere).
  util::Rng rng(25);
  const Mlp start(MlpConfig{3, 5, 2}, rng);
  MlpGradients grads{linalg::MatD(3, 5), linalg::VecD(5, 0.0),
                     linalg::MatD(5, 2), linalg::VecD(2, 0.0)};
  rng.fill_uniform(grads.w1.storage(), -1e-150, 1e-150);
  grads.w2(1, 1) = 1e-300;
  grads.b2[0] = std::numeric_limits<double>::denorm_min();
  const auto run = [&](bool simd) {
    const KernelSetScope set(simd);
    Mlp net = start;
    AdamOptimizer adam(AdamConfig{}, net.config());
    adam.step(net, grads);
    const MlpGradients zero{linalg::MatD(3, 5), linalg::VecD(5, 0.0),
                            linalg::MatD(5, 2), linalg::VecD(2, 0.0)};
    for (int t = 0; t < 400; ++t) adam.step(net, zero);
    return std::pair{net, adam};
  };
  const auto [simd_net, simd_adam] = run(true);
  const auto [scalar_net, scalar_adam] = run(false);
  expect_same_bits(simd_net.w1(), scalar_net.w1(), "w1");
  expect_same_bits(simd_net.b1(), scalar_net.b1(), "b1");
  expect_same_bits(simd_net.w2(), scalar_net.w2(), "w2");
  expect_same_bits(simd_net.b2(), scalar_net.b2(), "b2");
  const auto a = simd_adam.moments();
  const auto b = scalar_adam.moments();
  bool saw_subnormal = false;
  for (std::size_t t = 0; t < a.size(); ++t) {
    expect_same_bits(*a[t], *b[t], "moment " + std::to_string(t));
    for (const double m : *a[t]) {
      saw_subnormal |= std::fpclassify(m) == FP_SUBNORMAL;
    }
  }
  EXPECT_TRUE(saw_subnormal) << "the decay never reached a subnormal moment";
}

TEST(MlpKernelEntries, ReportNotRunWhenSimdIsOff) {
  const KernelSetScope set(false);
  double value = 1.0;
  const kernels::MlpShape shape{1, 1, 1, 1};
  EXPECT_FALSE(kernels::mlp_forward(&value, &value, &value, &value, &value,
                                    shape, &value, &value, &value));
  EXPECT_FALSE(kernels::mlp_backward(&value, &value, &value, &value, &value,
                                     shape, &value, &value, &value, &value,
                                     &value));
  EXPECT_FALSE(kernels::adam_update(&value, &value, &value, &value, 1,
                                    kernels::AdamCoeffs{}));
  EXPECT_EQ(value, 1.0);
}

}  // namespace
}  // namespace oselm::nn
