#include "hw/resource_model.hpp"

#include <gtest/gtest.h>

#include <ostream>

namespace oselm::hw {
namespace {

TEST(NextPow2, KnownValues) {
  EXPECT_EQ(next_pow2(1), 1u);
  EXPECT_EQ(next_pow2(2), 2u);
  EXPECT_EQ(next_pow2(3), 4u);
  EXPECT_EQ(next_pow2(4), 4u);
  EXPECT_EQ(next_pow2(15), 16u);
  EXPECT_EQ(next_pow2(33), 64u);
}

TEST(Zynq7020, DeviceDatabaseMatchesDatasheet) {
  const FpgaDevice dev = zynq7020();
  EXPECT_EQ(dev.bram36, 140u);
  EXPECT_EQ(dev.dsp, 220u);
  EXPECT_EQ(dev.ff, 106400u);
  EXPECT_EQ(dev.lut, 53200u);
}

TEST(BramModel, MatchesEveryFeasibleTable3Row) {
  // Table 3 BRAM%: 2.86 / 11.43 / 45.71 / 91.43 of 140 BRAM36 primitives
  // == 4 / 16 / 64 / 128 blocks.
  EXPECT_EQ(oselm_core_bram36(32), 4u);
  EXPECT_EQ(oselm_core_bram36(64), 16u);
  EXPECT_EQ(oselm_core_bram36(128), 64u);
  EXPECT_EQ(oselm_core_bram36(192), 128u);
}

TEST(BramModel, PredictsTheN256Failure) {
  // §4.2: "the largest design with 256 hidden-layer nodes cannot be
  // implemented for PYNQ-Z1 board due to an excessive BRAM requirement."
  EXPECT_GT(oselm_core_bram36(256), zynq7020().bram36);
}

struct Table3Row {
  std::size_t units;
  double bram_pct;
  double dsp_pct;
  double ff_pct;
  double lut_pct;
};

// The test ID's parameter part: the paper row's hidden-unit count, N32.
void PrintTo(const Table3Row& row, std::ostream* os) {
  *os << "N" << row.units;
}

class Table3Test : public ::testing::TestWithParam<Table3Row> {};

TEST_P(Table3Test, BramAndDspPercentagesMatchExactly) {
  const Table3Row& row = GetParam();
  const ResourceEstimate e = estimate_oselm_core(zynq7020(), row.units);
  EXPECT_NEAR(e.bram_pct, row.bram_pct, 0.01) << row.units;
  EXPECT_NEAR(e.dsp_pct, row.dsp_pct, 0.01) << row.units;
  EXPECT_TRUE(e.fits);
}

TEST_P(Table3Test, LutModelWithinTwoPercentRelative) {
  // The affine LUT calibration reproduces the table within ~2 %.
  const Table3Row& row = GetParam();
  const ResourceEstimate e = estimate_oselm_core(zynq7020(), row.units);
  EXPECT_NEAR(e.lut_pct, row.lut_pct, row.lut_pct * 0.02) << row.units;
}

TEST_P(Table3Test, FfModelWithinTableNoise) {
  // The paper's FF column is internally noisy (4.5 % for both 64 and 128
  // units); the affine model is asserted to within a factor-of-2 band.
  const Table3Row& row = GetParam();
  const ResourceEstimate e = estimate_oselm_core(zynq7020(), row.units);
  EXPECT_GT(e.ff_pct, row.ff_pct * 0.5) << row.units;
  EXPECT_LT(e.ff_pct, row.ff_pct * 2.0) << row.units;
}

INSTANTIATE_TEST_SUITE_P(
    PaperRows, Table3Test,
    ::testing::Values(Table3Row{32, 2.86, 1.82, 1.49, 3.52},
                      Table3Row{64, 11.43, 1.82, 4.5, 5.0},
                      Table3Row{128, 45.71, 1.82, 4.5, 7.93},
                      Table3Row{192, 91.43, 1.82, 6.44, 11.03}));

TEST(ResourceModel, N256DoesNotFit) {
  const ResourceEstimate e = estimate_oselm_core(zynq7020(), 256);
  EXPECT_FALSE(e.fits);
  EXPECT_GT(e.bram_pct, 100.0);
}

TEST(ResourceModel, DspIsConstantSingleMultiplier) {
  // §4.2: "only a single add, mult, and div unit" -> DSP use must not
  // scale with the layer width.
  for (const std::size_t n : {16u, 32u, 64u, 128u, 192u, 256u}) {
    EXPECT_EQ(estimate_oselm_core(zynq7020(), n).dsp, 4u) << n;
  }
}

TEST(ResourceModel, BramGrowsMonotonically) {
  std::size_t prev = 0;
  for (const std::size_t n : {8u, 16u, 32u, 64u, 128u, 192u, 256u}) {
    const std::size_t bram = oselm_core_bram36(n);
    EXPECT_GE(bram, prev) << n;
    prev = bram;
  }
}

TEST(ResourceModel, NarrowerWordsUseLessBram) {
  const ResourceEstimate q32 = estimate_oselm_core(zynq7020(), 192, 32);
  const ResourceEstimate q16 = estimate_oselm_core(zynq7020(), 192, 16);
  EXPECT_LT(q16.bram36, q32.bram36);
  EXPECT_TRUE(q16.fits);
}

TEST(ResourceModel, BiggestFittingDesignIs192) {
  // The paper deploys up to 192 hidden units; the model agrees that 192
  // fits and the next power-of-two step does not.
  EXPECT_TRUE(estimate_oselm_core(zynq7020(), 192).fits);
  EXPECT_FALSE(estimate_oselm_core(zynq7020(), 256).fits);
}

}  // namespace
}  // namespace oselm::hw
