// google-benchmark micro-benchmarks for the numerical kernels behind the
// figures: OS-ELM predict / seq_train latency vs layer width, GEMM
// scaling, decomposition costs, fixed- vs floating-point arithmetic, and
// the DQN training step.
#include <benchmark/benchmark.h>

#include <algorithm>
#include <cmath>
#include <vector>

#include "elm/os_elm.hpp"
#include "fixed/fixed_point.hpp"
#include "hw/fpga_backend.hpp"
#include "linalg/cholesky.hpp"
#include "linalg/kernels.hpp"
#include "linalg/ops.hpp"
#include "linalg/svd.hpp"
#include "nn/adam.hpp"
#include "nn/huber.hpp"
#include "nn/mlp.hpp"
#include "util/rng.hpp"

namespace {

using namespace oselm;

linalg::MatD random_matrix(std::size_t r, std::size_t c, util::Rng& rng) {
  linalg::MatD m(r, c);
  rng.fill_uniform(m.storage(), -1.0, 1.0);
  return m;
}

void BM_Gemm(benchmark::State& state) {
  const auto n = static_cast<std::size_t>(state.range(0));
  util::Rng rng(1);
  const linalg::MatD a = random_matrix(n, n, rng);
  const linalg::MatD b = random_matrix(n, n, rng);
  for (auto _ : state) {
    benchmark::DoNotOptimize(linalg::matmul(a, b));
  }
  state.SetItemsProcessed(static_cast<std::int64_t>(state.iterations()) *
                          static_cast<std::int64_t>(2 * n * n * n));
}
BENCHMARK(BM_Gemm)->Arg(32)->Arg(64)->Arg(128)->Arg(256);

void BM_OsElmPredict(benchmark::State& state) {
  const auto units = static_cast<std::size_t>(state.range(0));
  util::Rng rng(2);
  elm::ElmConfig cfg;
  cfg.input_dim = 5;
  cfg.hidden_units = units;
  cfg.output_dim = 1;
  cfg.l2_delta = 0.5;
  elm::OsElm net(cfg, rng);
  linalg::VecD x(5);
  rng.fill_uniform(x, -1.0, 1.0);
  for (auto _ : state) {
    benchmark::DoNotOptimize(net.predict_one(x));
  }
}
BENCHMARK(BM_OsElmPredict)->Arg(32)->Arg(64)->Arg(128)->Arg(192);

void BM_OsElmSeqTrain(benchmark::State& state) {
  const auto units = static_cast<std::size_t>(state.range(0));
  util::Rng rng(3);
  elm::ElmConfig cfg;
  cfg.input_dim = 5;
  cfg.hidden_units = units;
  cfg.output_dim = 1;
  cfg.l2_delta = 0.5;
  elm::OsElm net(cfg, rng);
  net.init_train(random_matrix(units, 5, rng), random_matrix(units, 1, rng));
  linalg::VecD x(5);
  rng.fill_uniform(x, -1.0, 1.0);
  for (auto _ : state) {
    net.seq_train_one(x, {0.5});
    benchmark::ClobberMemory();
  }
}
BENCHMARK(BM_OsElmSeqTrain)->Arg(32)->Arg(64)->Arg(128)->Arg(192);

void BM_OsElmInitTrain(benchmark::State& state) {
  const auto units = static_cast<std::size_t>(state.range(0));
  util::Rng rng(4);
  elm::ElmConfig cfg;
  cfg.input_dim = 5;
  cfg.hidden_units = units;
  cfg.output_dim = 1;
  cfg.l2_delta = 0.5;
  const linalg::MatD x0 = random_matrix(units, 5, rng);
  const linalg::MatD t0 = random_matrix(units, 1, rng);
  for (auto _ : state) {
    state.PauseTiming();
    elm::OsElm net(cfg, rng);
    state.ResumeTiming();
    net.init_train(x0, t0);
    benchmark::ClobberMemory();
  }
}
BENCHMARK(BM_OsElmInitTrain)->Arg(32)->Arg(64)->Arg(128);

void BM_FpgaSeqTrainFunctional(benchmark::State& state) {
  // Host cost of SIMULATING the fixed-point core (the modeled PL time is
  // a formula; this measures the functional model itself).
  const auto units = static_cast<std::size_t>(state.range(0));
  hw::FpgaBackendConfig cfg;
  cfg.hidden_units = units;
  hw::FpgaOsElmBackend backend(cfg, 5);
  util::Rng rng(6);
  backend.init_train(random_matrix(units, 5, rng),
                     random_matrix(units, 1, rng));
  linalg::VecD x(5);
  rng.fill_uniform(x, -1.0, 1.0);
  for (auto _ : state) {
    backend.seq_train(x, 0.25);
    benchmark::DoNotOptimize(backend.beta_fixed());
  }
}
BENCHMARK(BM_FpgaSeqTrainFunctional)->Arg(32)->Arg(64)->Arg(128);

void BM_DqnTrainStep(benchmark::State& state) {
  const auto units = static_cast<std::size_t>(state.range(0));
  util::Rng rng(7);
  nn::MlpConfig cfg{4, units, 2};
  nn::Mlp net(cfg, rng);
  nn::AdamOptimizer opt(nn::AdamConfig{}, cfg);
  const linalg::MatD x = random_matrix(32, 4, rng);
  const linalg::MatD t = random_matrix(32, 2, rng);
  for (auto _ : state) {
    nn::MlpCache cache;
    const linalg::MatD out = net.forward_cached(x, cache);
    const nn::HuberResult loss = nn::huber_loss_mean(out, t);
    opt.step(net, net.backward(cache, loss.grad));
    benchmark::ClobberMemory();
  }
}
BENCHMARK(BM_DqnTrainStep)->Arg(32)->Arg(64)->Arg(128)->Arg(192);

void BM_SymRank1Update(benchmark::State& state) {
  // The kernel behind seq_train_one's P update (upper triangle + mirrored
  // lower). Toggle arg(1) to time the scalar reference instead.
  const auto n = static_cast<std::size_t>(state.range(0));
  const bool simd = state.range(1) == 1;
  linalg::kernels::set_simd_enabled(simd &&
                                    linalg::kernels::simd_available());
  util::Rng rng(20);
  linalg::MatD b = random_matrix(n, n, rng);
  linalg::MatD p = linalg::matmul_a_bt(b, b);
  linalg::add_diagonal_inplace(p, 1.0);
  linalg::VecD u(n);
  rng.fill_uniform(u, -1.0, 1.0);
  for (auto _ : state) {
    linalg::kernels::sym_rank1_update(p.data(), n, u.data(), 1e-4, 1.0);
    benchmark::ClobberMemory();
  }
  state.SetItemsProcessed(static_cast<std::int64_t>(state.iterations()) *
                          static_cast<std::int64_t>(n * n));
  linalg::kernels::reset_simd_override();
}
BENCHMARK(BM_SymRank1Update)
    ->ArgsProduct({{32, 64, 128, 192}, {0, 1}})
    ->ArgNames({"n", "simd"});

void BM_FusedProjection(benchmark::State& state) {
  // The fused shared-projection + activation + output-dot kernel of the
  // batched predict path (one call = one action's Q value).
  const auto units = static_cast<std::size_t>(state.range(0));
  const bool simd = state.range(1) == 1;
  linalg::kernels::set_simd_enabled(simd &&
                                    linalg::kernels::simd_available());
  util::Rng rng(21);
  linalg::VecD shared(units);
  linalg::VecD last(units);
  linalg::VecD bias(units);
  linalg::VecD beta(units);
  rng.fill_uniform(shared, -1.0, 1.0);
  rng.fill_uniform(last, -1.0, 1.0);
  rng.fill_uniform(bias, -1.0, 1.0);
  rng.fill_uniform(beta, -1.0, 1.0);
  double acc = 0.0;
  for (auto _ : state) {
    acc += linalg::kernels::fused_act_dot(shared.data(), last.data(), 1.0,
                                          bias.data(), beta.data(), units,
                                          linalg::kernels::Act::kReLU);
    benchmark::DoNotOptimize(acc);
  }
  state.SetItemsProcessed(static_cast<std::int64_t>(state.iterations()) *
                          static_cast<std::int64_t>(units));
  linalg::kernels::reset_simd_override();
}
BENCHMARK(BM_FusedProjection)
    ->ArgsProduct({{32, 64, 128, 192}, {0, 1}})
    ->ArgNames({"units", "simd"});

void BM_SvdSigmaMax(benchmark::State& state) {
  const auto units = static_cast<std::size_t>(state.range(0));
  util::Rng rng(8);
  const linalg::MatD alpha = random_matrix(5, units, rng);
  for (auto _ : state) {
    benchmark::DoNotOptimize(linalg::largest_singular_value(alpha));
  }
}
BENCHMARK(BM_SvdSigmaMax)->Arg(64)->Arg(192);

void BM_CholeskyInverse(benchmark::State& state) {
  const auto n = static_cast<std::size_t>(state.range(0));
  util::Rng rng(9);
  linalg::MatD b = random_matrix(n, n, rng);
  linalg::MatD gram = linalg::matmul_at_b(b, b);
  linalg::add_diagonal_inplace(gram, 0.5);
  for (auto _ : state) {
    benchmark::DoNotOptimize(linalg::inverse_spd(gram));
  }
}
BENCHMARK(BM_CholeskyInverse)->Arg(32)->Arg(64)->Arg(128);

void BM_FixedDotVsDouble(benchmark::State& state) {
  const bool use_fixed = state.range(0) == 1;
  util::Rng rng(10);
  constexpr std::size_t kN = 192;
  std::vector<double> a(kN);
  std::vector<double> b(kN);
  rng.fill_uniform(a, -1.0, 1.0);
  rng.fill_uniform(b, -1.0, 1.0);
  std::vector<fixed::Q20> fa(kN);
  std::vector<fixed::Q20> fb(kN);
  for (std::size_t i = 0; i < kN; ++i) {
    fa[i] = fixed::Q20::from_double(a[i]);
    fb[i] = fixed::Q20::from_double(b[i]);
  }
  for (auto _ : state) {
    if (use_fixed) {
      fixed::Q20 acc = fixed::Q20::zero();
      for (std::size_t i = 0; i < kN; ++i) acc += fa[i] * fb[i];
      benchmark::DoNotOptimize(acc);
    } else {
      double acc = 0.0;
      for (std::size_t i = 0; i < kN; ++i) acc += a[i] * b[i];
      benchmark::DoNotOptimize(acc);
    }
  }
}
BENCHMARK(BM_FixedDotVsDouble)
    ->Arg(0)
    ->Arg(1)
    ->ArgNames({"fixed"});

}  // namespace

BENCHMARK_MAIN();
