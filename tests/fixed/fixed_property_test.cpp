// Property-based sweeps: fixed-point arithmetic must track double within
// quantifiable error bounds over random operand streams — this is the
// foundation the FPGA fidelity argument rests on.
#include <gtest/gtest.h>

#include <cmath>
#include <cstdint>

#include "fixed/fixed_point.hpp"
#include "util/rng.hpp"

namespace oselm::fixed {
namespace {

constexpr double kUlp = 1.0 / (1 << 20);

enum class RangeName : std::uint64_t { kUnit, kTiny, kModerate, kPositive };

// ctest appends the parameter's raw bytes to each test ID, so the case
// names its range by value: a `const char*` label put an address there,
// and the ID changed from build to build.
struct RangeCase {
  double lo;
  double hi;
  RangeName name;

  const char* label() const {
    switch (name) {
      case RangeName::kUnit: return "unit";
      case RangeName::kTiny: return "tiny";
      case RangeName::kModerate: return "moderate";
      case RangeName::kPositive: return "positive";
    }
    return "?";
  }
};

class FixedArithmeticProperty : public ::testing::TestWithParam<RangeCase> {
 protected:
  void SetUp() override { overflow_stats().reset(); }
};

TEST_P(FixedArithmeticProperty, AdditionErrorWithinOneUlp) {
  const auto& range = GetParam();
  util::Rng rng(101);
  for (int i = 0; i < 5000; ++i) {
    const double a = rng.uniform(range.lo, range.hi);
    const double b = rng.uniform(range.lo, range.hi);
    const double got =
        (Q20::from_double(a) + Q20::from_double(b)).to_double();
    // Two conversions each contribute <= ulp/2; the add itself is exact.
    EXPECT_NEAR(got, a + b, kUlp) << range.label();
  }
}

TEST_P(FixedArithmeticProperty, SubtractionErrorWithinOneUlp) {
  const auto& range = GetParam();
  util::Rng rng(102);
  for (int i = 0; i < 5000; ++i) {
    const double a = rng.uniform(range.lo, range.hi);
    const double b = rng.uniform(range.lo, range.hi);
    const double got =
        (Q20::from_double(a) - Q20::from_double(b)).to_double();
    EXPECT_NEAR(got, a - b, kUlp) << range.label();
  }
}

TEST_P(FixedArithmeticProperty, MultiplicationRelativeError) {
  const auto& range = GetParam();
  util::Rng rng(103);
  const double span = std::max(std::abs(range.lo), std::abs(range.hi));
  for (int i = 0; i < 5000; ++i) {
    const double a = rng.uniform(range.lo, range.hi);
    const double b = rng.uniform(range.lo, range.hi);
    const double got =
        (Q20::from_double(a) * Q20::from_double(b)).to_double();
    // Input quantization of a*b is bounded by (|a|+|b|)*ulp/2 + rounding.
    const double bound = (std::abs(a) + std::abs(b) + 2.0) * kUlp +
                         span * span * 1e-9;
    EXPECT_NEAR(got, a * b, bound) << range.label();
  }
}

TEST_P(FixedArithmeticProperty, AdditionCommutes) {
  const auto& range = GetParam();
  util::Rng rng(104);
  for (int i = 0; i < 2000; ++i) {
    const Q20 a = Q20::from_double(rng.uniform(range.lo, range.hi));
    const Q20 b = Q20::from_double(rng.uniform(range.lo, range.hi));
    EXPECT_EQ((a + b).raw(), (b + a).raw());
  }
}

TEST_P(FixedArithmeticProperty, MultiplicationCommutes) {
  const auto& range = GetParam();
  util::Rng rng(105);
  for (int i = 0; i < 2000; ++i) {
    const Q20 a = Q20::from_double(rng.uniform(range.lo, range.hi));
    const Q20 b = Q20::from_double(rng.uniform(range.lo, range.hi));
    EXPECT_EQ((a * b).raw(), (b * a).raw());
  }
}

TEST_P(FixedArithmeticProperty, NegationIsInvolutive) {
  const auto& range = GetParam();
  util::Rng rng(106);
  for (int i = 0; i < 2000; ++i) {
    const Q20 a = Q20::from_double(rng.uniform(range.lo, range.hi));
    EXPECT_EQ((-(-a)).raw(), a.raw());
  }
}

TEST_P(FixedArithmeticProperty, DivideThenMultiplyApproximatesIdentity) {
  const auto& range = GetParam();
  util::Rng rng(107);
  for (int i = 0; i < 2000; ++i) {
    const double denom_raw = rng.uniform(range.lo, range.hi);
    if (std::abs(denom_raw) < 0.05) continue;  // avoid huge quotients
    const double numer_raw = rng.uniform(range.lo, range.hi);
    const Q20 numer = Q20::from_double(numer_raw);
    const Q20 denom = Q20::from_double(denom_raw);
    const Q20 back = (numer / denom) * denom;
    const double tolerance = kUlp * (2.0 + std::abs(denom_raw) * 2.0);
    EXPECT_NEAR(back.to_double(), numer.to_double(), tolerance)
        << range.label() << " num=" << numer_raw << " den=" << denom_raw;
  }
}

INSTANTIATE_TEST_SUITE_P(
    Ranges, FixedArithmeticProperty,
    ::testing::Values(RangeCase{-1.0, 1.0, RangeName::kUnit},
                      RangeCase{-0.01, 0.01, RangeName::kTiny},
                      RangeCase{-30.0, 30.0, RangeName::kModerate},
                      RangeCase{0.0, 2.0, RangeName::kPositive}),
    [](const ::testing::TestParamInfo<RangeCase>& info) {
      return info.param.label();
    });

TEST(FixedAccumulation, LongDotProductTracksDouble) {
  // Mimics the on-chip MAC loop: N = 192 terms with unit-range operands.
  util::Rng rng(108);
  for (int trial = 0; trial < 20; ++trial) {
    Q20 acc = Q20::zero();
    double ref = 0.0;
    for (int i = 0; i < 192; ++i) {
      const double a = rng.uniform(-1.0, 1.0);
      const double b = rng.uniform(-1.0, 1.0);
      acc += Q20::from_double(a) * Q20::from_double(b);
      ref += a * b;
    }
    // Error accumulates linearly in the number of MACs.
    EXPECT_NEAR(acc.to_double(), ref, 192 * 3 * kUlp) << trial;
  }
}

TEST(FixedAccumulation, SaturationIsStickyAtBound) {
  // Once saturated, adding more of the same sign must hold the bound
  // (rather than wrap) — the safety property saturating hardware gives.
  Q20 acc = Q20::zero();
  const Q20 big = Q20::from_double(1000.0);
  for (int i = 0; i < 10; ++i) acc += big;
  EXPECT_EQ(acc.raw(), Q20::kRawMax);
  acc += big;
  EXPECT_EQ(acc.raw(), Q20::kRawMax);
}

}  // namespace
}  // namespace oselm::fixed
