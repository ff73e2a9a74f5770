#include "linalg/ops.hpp"

#include <gtest/gtest.h>

#include <bit>
#include <cmath>
#include <cstdint>
#include <limits>
#include <string>

#include "test_support.hpp"
#include "util/rng.hpp"

namespace oselm::linalg {
namespace {

using test_support::random_matrix;

/// Textbook O(n^3) reference used to validate the blocked kernel.
MatD naive_matmul(const MatD& a, const MatD& b) {
  MatD c(a.rows(), b.cols());
  for (std::size_t i = 0; i < a.rows(); ++i) {
    for (std::size_t j = 0; j < b.cols(); ++j) {
      double acc = 0.0;
      for (std::size_t k = 0; k < a.cols(); ++k) acc += a(i, k) * b(k, j);
      c(i, j) = acc;
    }
  }
  return c;
}

TEST(Matmul, TinyKnownProduct) {
  MatD a{{1.0, 2.0}, {3.0, 4.0}};
  MatD b{{5.0, 6.0}, {7.0, 8.0}};
  const MatD c = matmul(a, b);
  EXPECT_TRUE(approx_equal(c, MatD{{19.0, 22.0}, {43.0, 50.0}}, 1e-14));
}

TEST(Matmul, IdentityIsNeutral) {
  util::Rng rng(1);
  const MatD a = random_matrix(7, 7, rng);
  EXPECT_TRUE(approx_equal(matmul(a, MatD::identity(7)), a, 1e-14));
  EXPECT_TRUE(approx_equal(matmul(MatD::identity(7), a), a, 1e-14));
}

TEST(Matmul, DimensionMismatchThrows) {
  MatD a(2, 3);
  MatD b(4, 2);
  EXPECT_THROW(matmul(a, b), std::invalid_argument);
}

// Parameterized sweep: the blocked kernel must agree with the naive
// kernel across shapes, including ones crossing the block size (64).
class MatmulShapeTest
    : public ::testing::TestWithParam<std::tuple<int, int, int>> {};

TEST_P(MatmulShapeTest, MatchesNaiveKernel) {
  const auto [m, k, n] = GetParam();
  util::Rng rng(static_cast<std::uint64_t>(m * 10007 + k * 101 + n));
  const MatD a = random_matrix(static_cast<std::size_t>(m),
                               static_cast<std::size_t>(k), rng);
  const MatD b = random_matrix(static_cast<std::size_t>(k),
                               static_cast<std::size_t>(n), rng);
  EXPECT_TRUE(approx_equal(matmul(a, b), naive_matmul(a, b), 1e-10));
}

INSTANTIATE_TEST_SUITE_P(
    Shapes, MatmulShapeTest,
    ::testing::Values(std::tuple{1, 1, 1}, std::tuple{1, 5, 1},
                      std::tuple{3, 4, 5}, std::tuple{16, 16, 16},
                      std::tuple{63, 65, 64}, std::tuple{64, 64, 64},
                      std::tuple{65, 63, 66}, std::tuple{128, 32, 96},
                      std::tuple{70, 70, 70}, std::tuple{1, 192, 192},
                      // Row counts that are not multiples of the 64-row
                      // block, above 64^3 elements of work.
                      std::tuple{130, 70, 40}, std::tuple{200, 64, 64},
                      std::tuple{65, 100, 80}));

TEST(MatmulAtB, EqualsExplicitTranspose) {
  util::Rng rng(2);
  const MatD a = random_matrix(17, 5, rng);
  const MatD b = random_matrix(17, 9, rng);
  EXPECT_TRUE(
      approx_equal(matmul_at_b(a, b), matmul(a.transposed(), b), 1e-11));
}

TEST(MatmulABt, EqualsExplicitTranspose) {
  util::Rng rng(3);
  const MatD a = random_matrix(6, 13, rng);
  const MatD b = random_matrix(8, 13, rng);
  EXPECT_TRUE(
      approx_equal(matmul_a_bt(a, b), matmul(a, b.transposed()), 1e-11));
}

TEST(MatmulAtB, MismatchThrows) {
  EXPECT_THROW(matmul_at_b(MatD(3, 2), MatD(4, 2)), std::invalid_argument);
}

TEST(MatmulABt, MismatchThrows) {
  EXPECT_THROW(matmul_a_bt(MatD(3, 2), MatD(3, 4)), std::invalid_argument);
}

// Seed-order references: each C element summed from 0.0 in ascending k,
// one multiply then one add per term (this file is compiled with
// -ffp-contract=off, like the library). matmul_at_b skips the terms of a
// zero A element.
enum class Form { kAB, kAtB, kABt };

MatD reference_product(const MatD& a, const MatD& b, Form form) {
  const std::size_t m = form == Form::kAtB ? a.cols() : a.rows();
  const std::size_t n = form == Form::kABt ? b.rows() : b.cols();
  const std::size_t inner = form == Form::kAtB ? a.rows() : a.cols();
  MatD c(m, n);
  for (std::size_t i = 0; i < m; ++i) {
    for (std::size_t j = 0; j < n; ++j) {
      double acc = 0.0;
      for (std::size_t k = 0; k < inner; ++k) {
        const double a_ik = form == Form::kAtB ? a(k, i) : a(i, k);
        if (form == Form::kAtB && a_ik == 0.0) continue;
        acc += a_ik * (form == Form::kABt ? b(j, k) : b(k, j));
      }
      c(i, j) = acc;
    }
  }
  return c;
}

MatD tiled_product(const MatD& a, const MatD& b, Form form) {
  switch (form) {
    case Form::kAB:
      return matmul(a, b);
    case Form::kAtB:
      return matmul_at_b(a, b);
    case Form::kABt:
      return matmul_a_bt(a, b);
  }
  return {};
}

/// Uniform entries with about a quarter set to exactly 0.0.
MatD random_with_zeros(std::size_t rows, std::size_t cols, util::Rng& rng) {
  MatD m = random_matrix(rows, cols, rng);
  for (double& v : m.storage()) {
    if (rng.uniform() < 0.25) v = 0.0;
  }
  return m;
}

void expect_bit_identical(const MatD& got, const MatD& want,
                          const std::string& what) {
  ASSERT_EQ(got.rows(), want.rows()) << what;
  ASSERT_EQ(got.cols(), want.cols()) << what;
  for (std::size_t i = 0; i < got.size(); ++i) {
    ASSERT_EQ(std::bit_cast<std::uint64_t>(got.data()[i]),
              std::bit_cast<std::uint64_t>(want.data()[i]))
        << what << " element " << i;
  }
}

TEST(MatmulTiled, BitIdenticalToSeedOrderAcrossTileEdges) {
  const std::size_t dims[] = {1, 2, 3, 4, 5, 7, 8, 9, 31, 32, 33, 64, 65};
  util::Rng rng(404);
  for (const std::size_t m : dims) {
    for (const std::size_t k : dims) {
      for (const std::size_t n : dims) {
        const std::string shape = std::to_string(m) + "x" +
                                  std::to_string(k) + "x" + std::to_string(n);
        const MatD a = random_with_zeros(m, k, rng);
        const MatD b = random_matrix(k, n, rng);
        expect_bit_identical(matmul(a, b), reference_product(a, b, Form::kAB),
                             "matmul " + shape);
        const MatD at = random_with_zeros(k, m, rng);
        expect_bit_identical(matmul_at_b(at, b),
                             reference_product(at, b, Form::kAtB),
                             "matmul_at_b " + shape);
        const MatD bt = random_matrix(n, k, rng);
        expect_bit_identical(matmul_a_bt(a, bt),
                             reference_product(a, bt, Form::kABt),
                             "matmul_a_bt " + shape);
      }
    }
  }
}

TEST(MatmulTiled, BitIdenticalAcrossKBlocks) {
  // Inner dimensions beyond one k block resume from partial sums in C.
  util::Rng rng(405);
  for (const std::size_t k : {255u, 256u, 257u, 600u}) {
    const MatD a = random_with_zeros(9, k, rng);
    const MatD at = random_with_zeros(k, 9, rng);
    const MatD b = random_matrix(k, 7, rng);
    const MatD bt = random_matrix(7, k, rng);
    const std::string shape = "k=" + std::to_string(k);
    expect_bit_identical(matmul(a, b), reference_product(a, b, Form::kAB),
                         "matmul " + shape);
    expect_bit_identical(matmul_at_b(at, b),
                         reference_product(at, b, Form::kAtB),
                         "matmul_at_b " + shape);
    expect_bit_identical(matmul_a_bt(a, bt),
                         reference_product(a, bt, Form::kABt),
                         "matmul_a_bt " + shape);
  }
}

TEST(MatmulAtB, ZeroElementOfASkipsANonFiniteTerm) {
  MatD a{{0.0, 1.0}, {2.0, 0.0}};
  MatD b{{std::numeric_limits<double>::infinity(), 1.0}, {3.0, 4.0}};
  const MatD c = matmul_at_b(a, b);
  expect_bit_identical(c, reference_product(a, b, Form::kAtB), "at_b");
  EXPECT_EQ(c(0, 0), 6.0);  // 0 * inf is skipped, not NaN
  EXPECT_TRUE(std::isinf(c(1, 0)));
}

TEST(MatmulInto, MatchesValueFormsAndReusesStorage) {
  util::Rng rng(406);
  const MatD a = random_matrix(12, 7, rng);
  const MatD b = random_matrix(7, 10, rng);
  const MatD bt = random_matrix(10, 7, rng);
  const MatD at = random_matrix(7, 12, rng);
  MatD c;
  for (const Form form : {Form::kAB, Form::kAtB, Form::kABt}) {
    const MatD& lhs = form == Form::kAtB ? at : a;
    const MatD& rhs = form == Form::kABt ? bt : b;
    switch (form) {
      case Form::kAB:
        matmul_into(lhs, rhs, c);
        break;
      case Form::kAtB:
        matmul_at_b_into(lhs, rhs, c);
        break;
      case Form::kABt:
        matmul_a_bt_into(lhs, rhs, c);
        break;
    }
    expect_bit_identical(c, tiled_product(lhs, rhs, form), "into");
  }
  const double* storage = c.data();
  matmul_into(a, b, c);  // same 12 x 10 shape: no reallocation
  EXPECT_EQ(c.data(), storage);
  MatD square = random_matrix(4, 4, rng);
  EXPECT_THROW(matmul_into(square, square, square), std::invalid_argument);
}

TEST(Matvec, KnownProduct) {
  MatD a{{1.0, 2.0}, {3.0, 4.0}};
  const VecD y = matvec(a, {1.0, 1.0});
  EXPECT_DOUBLE_EQ(y[0], 3.0);
  EXPECT_DOUBLE_EQ(y[1], 7.0);
}

TEST(Matvec, MatchesMatmulWithColumn) {
  util::Rng rng(4);
  const MatD a = random_matrix(9, 6, rng);
  VecD x(6);
  rng.fill_uniform(x, -1.0, 1.0);
  const VecD y = matvec(a, x);
  const MatD y_mat = matmul(a, MatD::col_vector(x));
  for (std::size_t i = 0; i < y.size(); ++i) {
    EXPECT_NEAR(y[i], y_mat(i, 0), 1e-12);
  }
}

TEST(MatvecInto, MatchesMatvecAndReusesCapacity) {
  util::Rng rng(41);
  const MatD a = random_matrix(9, 6, rng);
  VecD x(6);
  rng.fill_uniform(x, -1.0, 1.0);
  const VecD expected = matvec(a, x);
  VecD y(32, 99.0);  // oversized + dirty: must be resized and overwritten
  matvec_into(a, x, y);
  ASSERT_EQ(y.size(), 9u);
  const double* storage_before = y.data();
  for (std::size_t i = 0; i < y.size(); ++i) EXPECT_EQ(y[i], expected[i]);
  // A second call must not reallocate (the hot-loop guarantee).
  matvec_into(a, x, y);
  EXPECT_EQ(y.data(), storage_before);
  EXPECT_THROW(matvec_into(a, VecD(5), y), std::invalid_argument);
}

TEST(MatvecT, MatchesTransposedMatvec) {
  util::Rng rng(5);
  const MatD a = random_matrix(9, 6, rng);
  VecD x(9);
  rng.fill_uniform(x, -1.0, 1.0);
  const VecD expected = matvec(a.transposed(), x);
  const VecD got = matvec_t(a, x);
  for (std::size_t i = 0; i < got.size(); ++i) {
    EXPECT_NEAR(got[i], expected[i], 1e-12);
  }
}

TEST(ElementWise, AddSubScale) {
  MatD a{{1.0, 2.0}};
  MatD b{{3.0, 5.0}};
  EXPECT_TRUE(approx_equal(add(a, b), MatD{{4.0, 7.0}}, 0.0));
  EXPECT_TRUE(approx_equal(sub(b, a), MatD{{2.0, 3.0}}, 0.0));
  EXPECT_TRUE(approx_equal(scale(a, -2.0), MatD{{-2.0, -4.0}}, 0.0));
}

TEST(ElementWise, ShapeMismatchThrows) {
  EXPECT_THROW(add(MatD(1, 2), MatD(2, 1)), std::invalid_argument);
  EXPECT_THROW(sub(MatD(1, 2), MatD(2, 1)), std::invalid_argument);
}

TEST(AxpyInplace, AccumulatesScaledMatrix) {
  MatD a{{1.0, 1.0}};
  axpy_inplace(a, 2.0, MatD{{3.0, 4.0}});
  EXPECT_TRUE(approx_equal(a, MatD{{7.0, 9.0}}, 0.0));
}

TEST(Outer, ProductShapeAndValues) {
  const MatD o = outer({1.0, 2.0}, {3.0, 4.0, 5.0});
  EXPECT_EQ(o.rows(), 2u);
  EXPECT_EQ(o.cols(), 3u);
  EXPECT_DOUBLE_EQ(o(1, 2), 10.0);
}

TEST(DotAndNorm, BasicIdentities) {
  EXPECT_DOUBLE_EQ(dot({1.0, 2.0, 3.0}, {4.0, 5.0, 6.0}), 32.0);
  EXPECT_DOUBLE_EQ(norm2({3.0, 4.0}), 5.0);
  EXPECT_THROW(dot({1.0}, {1.0, 2.0}), std::invalid_argument);
}

TEST(AddDiagonal, AddsOnlyDiagonal) {
  MatD a(3, 3, 1.0);
  add_diagonal_inplace(a, 2.0);
  EXPECT_DOUBLE_EQ(a(0, 0), 3.0);
  EXPECT_DOUBLE_EQ(a(1, 1), 3.0);
  EXPECT_DOUBLE_EQ(a(0, 1), 1.0);
}

TEST(Symmetrize, AveragesOffDiagonalPairs) {
  MatD a{{1.0, 2.0}, {4.0, 5.0}};
  symmetrize_inplace(a);
  EXPECT_DOUBLE_EQ(a(0, 1), 3.0);
  EXPECT_DOUBLE_EQ(a(1, 0), 3.0);
  EXPECT_DOUBLE_EQ(a(0, 0), 1.0);
}

TEST(Symmetrize, RejectsNonSquare) {
  MatD rect(2, 3);
  EXPECT_THROW(symmetrize_inplace(rect), std::invalid_argument);
}

}  // namespace
}  // namespace oselm::linalg
