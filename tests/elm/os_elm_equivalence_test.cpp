// The defining invariant of OS-ELM (Liang et al. 2006, §2.2): sequential
// training over a data stream yields EXACTLY the same model as batch
// (Re)ELM training on the concatenated data, for any chunking. These
// parameterized suites pin that equivalence across sizes and chunkings.
#include <gtest/gtest.h>

#include <ostream>

#include "elm/elm.hpp"
#include "elm/os_elm.hpp"
#include "linalg/ops.hpp"
#include "test_support.hpp"
#include "util/rng.hpp"

namespace oselm::elm {
namespace {

struct EquivCase {
  std::size_t input_dim;
  std::size_t hidden_units;
  std::size_t output_dim;
  std::size_t init_samples;
  std::size_t stream_samples;
  double delta;
};

// The test ID's parameter part (ctest prints it), e.g.
// in3_hidden8_out1_init16_stream10_delta0.5.
void PrintTo(const EquivCase& c, std::ostream* os) {
  *os << "in" << c.input_dim << "_hidden" << c.hidden_units << "_out"
      << c.output_dim << "_init" << c.init_samples << "_stream"
      << c.stream_samples << "_delta" << c.delta;
}

using test_support::random_matrix;

class OsElmEquivalence : public ::testing::TestWithParam<EquivCase> {};

TEST_P(OsElmEquivalence, SequentialEqualsBatchSolution) {
  const EquivCase& c = GetParam();
  // Identical initial weights for the batch and online models.
  ElmConfig cfg;
  cfg.input_dim = c.input_dim;
  cfg.hidden_units = c.hidden_units;
  cfg.output_dim = c.output_dim;
  cfg.l2_delta = c.delta;

  util::Rng rng_a(42);
  Elm batch(cfg, rng_a);
  util::Rng rng_b(42);
  OsElm online(cfg, rng_b);
  ASSERT_TRUE(linalg::approx_equal(batch.alpha(), online.alpha(), 0.0));

  util::Rng data_rng(77);
  const linalg::MatD x_all =
      random_matrix(c.init_samples + c.stream_samples, c.input_dim, data_rng);
  const linalg::MatD t_all = random_matrix(
      c.init_samples + c.stream_samples, c.output_dim, data_rng);

  // Online: init chunk then one-by-one sequential updates.
  linalg::MatD x0(c.init_samples, c.input_dim);
  linalg::MatD t0(c.init_samples, c.output_dim);
  for (std::size_t i = 0; i < c.init_samples; ++i) {
    x0.set_row(i, x_all.row(i));
    t0.set_row(i, t_all.row(i));
  }
  online.init_train(x0, t0);
  for (std::size_t i = c.init_samples; i < x_all.rows(); ++i) {
    online.seq_train_one(x_all.row(i), t_all.row(i));
  }

  // Batch: ReELM closed form on everything at once.
  batch.train_batch(x_all, t_all);

  EXPECT_TRUE(linalg::approx_equal(online.beta(), batch.beta(), 1e-6))
      << "max diff " << linalg::max_abs_diff(online.beta(), batch.beta());
}

TEST_P(OsElmEquivalence, PredictionsAgreeOnFreshInputs) {
  const EquivCase& c = GetParam();
  ElmConfig cfg;
  cfg.input_dim = c.input_dim;
  cfg.hidden_units = c.hidden_units;
  cfg.output_dim = c.output_dim;
  cfg.l2_delta = c.delta;

  util::Rng rng_a(43);
  Elm batch(cfg, rng_a);
  util::Rng rng_b(43);
  OsElm online(cfg, rng_b);

  util::Rng data_rng(78);
  const std::size_t total = c.init_samples + c.stream_samples;
  const linalg::MatD x_all = random_matrix(total, c.input_dim, data_rng);
  const linalg::MatD t_all = random_matrix(total, c.output_dim, data_rng);

  linalg::MatD x0(c.init_samples, c.input_dim);
  linalg::MatD t0(c.init_samples, c.output_dim);
  for (std::size_t i = 0; i < c.init_samples; ++i) {
    x0.set_row(i, x_all.row(i));
    t0.set_row(i, t_all.row(i));
  }
  online.init_train(x0, t0);
  for (std::size_t i = c.init_samples; i < total; ++i) {
    online.seq_train_one(x_all.row(i), t_all.row(i));
  }
  batch.train_batch(x_all, t_all);

  const linalg::MatD probes = random_matrix(10, c.input_dim, data_rng);
  const linalg::MatD pa = online.predict(probes);
  const linalg::MatD pb = batch.predict(probes);
  EXPECT_LT(linalg::max_abs_diff(pa, pb), 1e-6);
}

INSTANTIATE_TEST_SUITE_P(
    Cases, OsElmEquivalence,
    ::testing::Values(
        EquivCase{3, 8, 1, 16, 10, 0.5},     // small, ridged
        EquivCase{5, 16, 1, 32, 40, 1.0},    // the paper's delta = 1
        EquivCase{5, 16, 2, 24, 24, 0.5},    // multi-output
        EquivCase{2, 4, 1, 8, 100, 0.1},     // long stream
        EquivCase{8, 32, 1, 64, 16, 0.25},   // wider hidden layer
        EquivCase{4, 12, 3, 20, 30, 2.0}));  // strong regularization

TEST(OsElmEquivalence, ChunkedStreamMatchesBatchToo) {
  // Eq. 5 with k > 1 chunks must land on the same solution as well.
  ElmConfig cfg;
  cfg.input_dim = 4;
  cfg.hidden_units = 12;
  cfg.output_dim = 1;
  cfg.l2_delta = 0.5;

  util::Rng rng_a(44);
  Elm batch(cfg, rng_a);
  util::Rng rng_b(44);
  OsElm online(cfg, rng_b);

  util::Rng data_rng(79);
  const linalg::MatD x_all = random_matrix(60, 4, data_rng);
  const linalg::MatD t_all = random_matrix(60, 1, data_rng);

  linalg::MatD x0(20, 4);
  linalg::MatD t0(20, 1);
  for (std::size_t i = 0; i < 20; ++i) {
    x0.set_row(i, x_all.row(i));
    t0.set_row(i, t_all.row(i));
  }
  online.init_train(x0, t0);
  // Stream the rest in chunks of 8, 8, 8, 8, 8 (last partial).
  for (std::size_t start = 20; start < 60; start += 8) {
    const std::size_t k = std::min<std::size_t>(8, 60 - start);
    linalg::MatD xi(k, 4);
    linalg::MatD ti(k, 1);
    for (std::size_t i = 0; i < k; ++i) {
      xi.set_row(i, x_all.row(start + i));
      ti.set_row(i, t_all.row(start + i));
    }
    online.seq_train(xi, ti);
  }
  batch.train_batch(x_all, t_all);
  EXPECT_TRUE(linalg::approx_equal(online.beta(), batch.beta(), 1e-6));
}

struct ChunkCase {
  std::size_t input_dim;
  std::size_t hidden_units;
  std::size_t output_dim;
  std::size_t chunk;     ///< k of the Eq. 5 update under test
  std::uint64_t seed;
  double delta;
};

// The test ID's parameter part, e.g. in4_hidden12_out1_k2_seed21_delta0.5.
void PrintTo(const ChunkCase& c, std::ostream* os) {
  *os << "in" << c.input_dim << "_hidden" << c.hidden_units << "_out"
      << c.output_dim << "_k" << c.chunk << "_seed" << c.seed << "_delta"
      << c.delta;
}

class OsElmChunkEquivalence : public ::testing::TestWithParam<ChunkCase> {};

TEST_P(OsElmChunkEquivalence, ChunkUpdateEqualsRowByRowUpdates) {
  // Property (matrix-inversion lemma): one Eq. 5 update on a k-row chunk
  // is algebraically identical to applying the same rows one at a time
  // through the k = 1 fast path. The general-k branch previously had no
  // equivalence coverage at all — a transposed gain or a dropped
  // symmetrization would have sailed through.
  const ChunkCase& c = GetParam();
  ElmConfig cfg;
  cfg.input_dim = c.input_dim;
  cfg.hidden_units = c.hidden_units;
  cfg.output_dim = c.output_dim;
  cfg.l2_delta = c.delta;

  util::Rng rng_a(c.seed);
  OsElm chunked(cfg, rng_a);
  util::Rng rng_b(c.seed);
  OsElm row_by_row(cfg, rng_b);
  ASSERT_TRUE(linalg::approx_equal(chunked.alpha(), row_by_row.alpha(), 0.0));

  util::Rng data_rng(c.seed * 31 + 5);
  const std::size_t init_samples = 2 * c.hidden_units;
  chunked.init_train(random_matrix(init_samples, c.input_dim, data_rng),
                     random_matrix(init_samples, c.output_dim, data_rng));
  // Rewind the data stream so both models see the identical init chunk.
  util::Rng data_rng_b(c.seed * 31 + 5);
  row_by_row.init_train(
      random_matrix(init_samples, c.input_dim, data_rng_b),
      random_matrix(init_samples, c.output_dim, data_rng_b));

  // Several consecutive chunk updates so errors would compound.
  for (int round = 0; round < 4; ++round) {
    const linalg::MatD x = random_matrix(c.chunk, c.input_dim, data_rng);
    const linalg::MatD t = random_matrix(c.chunk, c.output_dim, data_rng);
    chunked.seq_train(x, t);
    for (std::size_t i = 0; i < c.chunk; ++i) {
      row_by_row.seq_train_one(x.row(i), t.row(i));
    }
  }

  EXPECT_TRUE(linalg::approx_equal(chunked.beta(), row_by_row.beta(), 1e-8))
      << "beta max diff "
      << linalg::max_abs_diff(chunked.beta(), row_by_row.beta());
  EXPECT_TRUE(linalg::approx_equal(chunked.p(), row_by_row.p(), 1e-8))
      << "P max diff " << linalg::max_abs_diff(chunked.p(), row_by_row.p());
  EXPECT_EQ(chunked.p(), chunked.p().transposed());  // exact symmetry

  // And the models keep agreeing on fresh inputs.
  const linalg::MatD probes = random_matrix(10, c.input_dim, data_rng);
  EXPECT_LT(linalg::max_abs_diff(chunked.predict(probes),
                                 row_by_row.predict(probes)),
            1e-8);
}

INSTANTIATE_TEST_SUITE_P(
    Chunkings, OsElmChunkEquivalence,
    ::testing::Values(ChunkCase{4, 12, 1, 2, 21, 0.5},   // smallest k > 1
                      ChunkCase{5, 16, 1, 3, 22, 1.0},   // paper's delta
                      ChunkCase{5, 16, 2, 5, 23, 0.5},   // multi-output
                      ChunkCase{3, 8, 1, 8, 24, 0.1},    // k == N/1 band
                      ChunkCase{6, 20, 1, 7, 25, 0.25},  // k coprime to N
                      ChunkCase{4, 10, 3, 4, 26, 2.0},   // strong ridge
                      // The serving shape: CartPole (s, a) rows, N-tilde
                      // 64, the chunk sizes a coalesced drain produces.
                      ChunkCase{5, 64, 1, 8, 27, 0.5},
                      ChunkCase{5, 64, 1, 13, 28, 0.5},
                      ChunkCase{5, 64, 1, 32, 29, 0.5}));

}  // namespace
}  // namespace oselm::elm
