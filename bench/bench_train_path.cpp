// Training hot-path benchmark: the OS-ELM rank-1 sequential update
// (Eq. 5, k = 1) before and after the SIMD kernel layer, plus lockstep
// serving throughput (rl::AsyncQServer under rl::lockstep_config).
//
// Three seq_train_one variants are timed on identical update streams:
//   * seed scalar  — a self-contained replica of the seed's plain-loop
//     implementation (full-matrix P downdate, no symmetry exploitation),
//     compiled at the same -O3 as everything else: the honest baseline;
//   * scalar kernels — today's symmetric upper-triangle+mirror algorithm
//     on the portable scalar kernel set (the OSELM_SIMD=off path);
//   * simd kernels — the same algorithm on the AVX2/FMA set.
//
// It also times the FPGA model's host-side Q20 layers at the same N:
// FpgaOsElmBackend::seq_train and a two-action predict_actions, once on
// each Q20 kernel set, and the DQN baseline's training step: one
// DqnAgent::observe at 4 -> 64 -> 2, batch 32 (two batch forwards, the
// backward pass and Adam), once on each MLP kernel set. Both are
// telemetry only, no gate.
//
// The chunk row times one k-row OsElm::seq_train (the general-k Eq. 5
// update the serving stack applies to a drain's co-tenant train rows)
// against k seq_train_one calls on the same rows, per row, for k = 1..32
// on the active kernel set: a median and the range of the per-repeat
// ratios over interleaved repeats. Telemetry, no gate.
//
// The regression gate (OSELM_BENCH_MIN_SPEEDUP_PCT, CI passes 130) binds
// simd-vs-seed: the acceptance target is >= 1.5x locally, gated at 1.3x
// to absorb shared-runner noise. Emits BENCH_train.json for the CI
// artifact trail.
//
// Dependency-free on purpose (plain chrono timing, no google-benchmark)
// so it is always built and runs in every CI image.
#include <algorithm>
#include <cstdio>
#include <string>
#include <vector>

#include "bench_common.hpp"
#include "elm/os_elm.hpp"
#include "hw/fpga_backend.hpp"
#include "linalg/kernels.hpp"
#include "rl/async_server.hpp"
#include "rl/backend_registry.hpp"
#include "rl/dqn_agent.hpp"
#include "util/env_flags.hpp"
#include "util/rng.hpp"
#include "util/timer.hpp"

namespace {

using oselm::linalg::MatD;
using oselm::linalg::VecD;
namespace kernels = oselm::linalg::kernels;

constexpr std::size_t kInputDim = 5;  // CartPole states + action (§4.2)
constexpr std::size_t kSamplePool = 256;

oselm::elm::ElmConfig train_config(std::size_t hidden_units) {
  oselm::elm::ElmConfig cfg;
  cfg.input_dim = kInputDim;
  cfg.hidden_units = hidden_units;
  cfg.output_dim = 1;
  cfg.l2_delta = 0.5;
  return cfg;
}

/// The seed's seq_train_one, reproduced verbatim as plain loops on copies
/// of the model state: axpy-style hidden projection, full-matrix rank-1
/// downdate (both triangles), scalar beta update.
struct SeedScalarModel {
  MatD alpha;  // kInputDim x N
  VecD bias;
  MatD beta;  // N x 1
  MatD p;     // N x N
  VecD h;
  VecD u;

  explicit SeedScalarModel(const oselm::elm::OsElm& net)
      : alpha(net.alpha()),
        bias(net.bias()),
        beta(net.beta()),
        p(net.p()),
        h(net.config().hidden_units, 0.0),
        u(net.config().hidden_units, 0.0) {}

  void seq_train_one(const VecD& x, double t) {
    const std::size_t n = bias.size();
    h.assign(n, 0.0);
    for (std::size_t i = 0; i < kInputDim; ++i) {
      const double xi = x[i];
      if (xi == 0.0) continue;
      const double* row = alpha.row_ptr(i);
      for (std::size_t j = 0; j < n; ++j) h[j] += xi * row[j];
    }
    for (std::size_t j = 0; j < n; ++j) {
      const double pre = h[j] + bias[j];
      h[j] = pre >= 0.0 ? pre : 0.0;  // ReLU, the deployed activation
    }
    for (std::size_t i = 0; i < n; ++i) {
      const double* row = p.row_ptr(i);
      double acc = 0.0;
      for (std::size_t j = 0; j < n; ++j) acc += row[j] * h[j];
      u[i] = acc;
    }
    double denom = 1.0;
    for (std::size_t j = 0; j < n; ++j) denom += h[j] * u[j];
    const double inv = 1.0 / denom;
    for (std::size_t i = 0; i < n; ++i) {
      const double scaled = u[i] * inv;
      if (scaled == 0.0) continue;
      double* row = p.row_ptr(i);
      for (std::size_t j = 0; j < n; ++j) row[j] -= scaled * u[j];
    }
    double pred = 0.0;
    for (std::size_t i = 0; i < n; ++i) pred += h[i] * beta(i, 0);
    const double err = (t - pred) * inv;
    for (std::size_t i = 0; i < n; ++i) beta(i, 0) += u[i] * err;
  }
};

struct TrainMeasurement {
  double seed_scalar_ns = 0.0;
  double scalar_kernels_ns = 0.0;
  double simd_ns = 0.0;
  double checksum = 0.0;  ///< anti-DCE accumulator, also printed
};

/// The update stream every variant digests: an Eq. 8 initial batch
/// (hidden_units rows) and a pool of (x, target) samples.
struct TrainStream {
  MatD x0;
  MatD t0;
  std::vector<VecD> xs;
  VecD targets;

  explicit TrainStream(std::size_t hidden_units)
      : x0(hidden_units, kInputDim),
        t0(hidden_units, 1),
        xs(kSamplePool, VecD(kInputDim, 0.0)),
        targets(kSamplePool, 0.0) {
    oselm::util::Rng data_rng(7);
    data_rng.fill_uniform(x0.storage(), -0.5, 0.5);
    data_rng.fill_uniform(t0.storage(), -1.0, 1.0);
    oselm::util::Rng sample_rng(11);
    for (auto& x : xs) sample_rng.fill_uniform(x, -0.5, 0.5);
    sample_rng.fill_uniform(targets, -1.0, 1.0);
  }
};

TrainMeasurement measure_seq_train(std::size_t hidden_units,
                                   std::size_t iters, bool simd_variant) {
  oselm::util::Rng rng(42);
  oselm::elm::OsElm reference(train_config(hidden_units), rng);
  const TrainStream stream(hidden_units);
  reference.init_train(stream.x0, stream.t0);
  const std::vector<VecD>& xs = stream.xs;
  const VecD& targets = stream.targets;

  const std::size_t warmup = iters / 10 + 1;
  TrainMeasurement out;
  VecD t_one(1, 0.0);

  // --- Seed scalar replica.
  {
    SeedScalarModel model(reference);
    for (std::size_t it = 0; it < warmup; ++it) {
      model.seq_train_one(xs[it % kSamplePool], targets[it % kSamplePool]);
    }
    oselm::util::WallTimer timer;
    for (std::size_t it = 0; it < iters; ++it) {
      model.seq_train_one(xs[it % kSamplePool], targets[it % kSamplePool]);
    }
    out.seed_scalar_ns = timer.seconds() * 1e9 / static_cast<double>(iters);
    out.checksum += model.beta(0, 0) + model.p(0, 0);
  }

  // --- Symmetric update on each kernel set (OsElm state copies so every
  // variant digests the identical stream from the same starting point).
  const auto run_kernel_variant = [&](bool simd) {
    kernels::set_simd_enabled(simd);
    oselm::elm::OsElm model = oselm::elm::OsElm::from_parts(
        train_config(hidden_units), reference.alpha(), reference.bias(),
        reference.beta(), reference.p(), /*initialized=*/true);
    for (std::size_t it = 0; it < warmup; ++it) {
      t_one[0] = targets[it % kSamplePool];
      model.seq_train_one(xs[it % kSamplePool], t_one);
    }
    oselm::util::WallTimer timer;
    for (std::size_t it = 0; it < iters; ++it) {
      t_one[0] = targets[it % kSamplePool];
      model.seq_train_one(xs[it % kSamplePool], t_one);
    }
    const double ns = timer.seconds() * 1e9 / static_cast<double>(iters);
    out.checksum += model.beta()(0, 0) + model.p()(0, 0);
    return ns;
  };
  out.scalar_kernels_ns = run_kernel_variant(false);
  out.simd_ns = run_kernel_variant(simd_variant);
  // Back to following OSELM_SIMD for the serving measurements below.
  kernels::reset_simd_override();
  return out;
}

/// Per-row cost of one k-row OsElm::seq_train chunk (Eq. 5 in
/// Cholesky-factor form) against k seq_train_one calls on the same rows,
/// from the same state, on the active kernel set.
struct ChunkRow {
  std::size_t k = 0;
  double loop_us = 0.0;   ///< median per-row µs of the seq_train_one loop
  double chunk_us = 0.0;  ///< median per-row µs of the chunk path
  double speedup_p50 = 0.0;  ///< median of the per-repeat loop/chunk ratios
  double speedup_lo = 0.0;   ///< smallest per-repeat ratio
  double speedup_hi = 0.0;   ///< largest per-repeat ratio
  double checksum = 0.0;     ///< anti-DCE accumulator, also printed
};

double median_of(std::vector<double> v) {
  std::sort(v.begin(), v.end());
  const std::size_t mid = v.size() / 2;
  return v.size() % 2 == 1 ? v[mid] : 0.5 * (v[mid - 1] + v[mid]);
}

/// `repeats` interleaved (loop, chunk) pairs, alternating which runs
/// first, each over `rows` training rows.
ChunkRow measure_chunk(std::size_t hidden_units, std::size_t k,
                       std::size_t rows, int repeats) {
  oselm::util::Rng rng(42);
  oselm::elm::OsElm reference(train_config(hidden_units), rng);
  const TrainStream stream(hidden_units);
  reference.init_train(stream.x0, stream.t0);
  const std::size_t chunks = std::max<std::size_t>(rows / k, 1);
  std::vector<MatD> xs(kSamplePool, MatD(k, kInputDim));
  std::vector<MatD> ts(kSamplePool, MatD(k, 1));
  for (std::size_t c = 0; c < kSamplePool; ++c) {
    for (std::size_t r = 0; r < k; ++r) {
      const std::size_t at = (c * k + r) % kSamplePool;
      xs[c].set_row(r, stream.xs[at]);
      ts[c](r, 0) = stream.targets[at];
    }
  }
  const auto fresh = [&] {
    return oselm::elm::OsElm::from_parts(
        train_config(hidden_units), reference.alpha(), reference.bias(),
        reference.beta(), reference.p(), /*initialized=*/true);
  };
  VecD x_one(kInputDim, 0.0);
  VecD t_one(1, 0.0);
  ChunkRow row;
  row.k = k;
  const auto time_loop = [&] {
    oselm::elm::OsElm model = fresh();
    oselm::util::WallTimer timer;
    for (std::size_t c = 0; c < chunks; ++c) {
      const MatD& x = xs[c % kSamplePool];
      for (std::size_t r = 0; r < k; ++r) {
        std::copy(x.row_ptr(r), x.row_ptr(r) + kInputDim, x_one.begin());
        t_one[0] = ts[c % kSamplePool](r, 0);
        model.seq_train_one(x_one, t_one);
      }
    }
    const double us = timer.seconds() * 1e6 / static_cast<double>(chunks * k);
    row.checksum += model.beta()(0, 0);
    return us;
  };
  const auto time_chunk = [&] {
    oselm::elm::OsElm model = fresh();
    oselm::util::WallTimer timer;
    for (std::size_t c = 0; c < chunks; ++c) {
      model.seq_train(xs[c % kSamplePool], ts[c % kSamplePool]);
    }
    const double us = timer.seconds() * 1e6 / static_cast<double>(chunks * k);
    row.checksum += model.beta()(0, 0);
    return us;
  };
  std::vector<double> loop_us;
  std::vector<double> chunk_us;
  std::vector<double> ratios;
  (void)time_loop();  // warm-up: first-touch of the workspaces
  (void)time_chunk();
  for (int rep = 0; rep < repeats; ++rep) {
    double loop = 0.0;
    double chunk = 0.0;
    if (rep % 2 == 0) {
      loop = time_loop();
      chunk = time_chunk();
    } else {
      chunk = time_chunk();
      loop = time_loop();
    }
    loop_us.push_back(loop);
    chunk_us.push_back(chunk);
    ratios.push_back(loop / chunk);
  }
  row.loop_us = median_of(loop_us);
  row.chunk_us = median_of(chunk_us);
  row.speedup_p50 = median_of(ratios);
  row.speedup_lo = *std::min_element(ratios.begin(), ratios.end());
  row.speedup_hi = *std::max_element(ratios.begin(), ratios.end());
  return row;
}

struct FpgaLayerTiming {
  double seq_train_us = 0.0;
  double predict_us = 0.0;  ///< one predict_actions over both actions
  double checksum = 0.0;    ///< anti-DCE; equal across kernel sets
};

/// Host wall time of the FPGA model's Q20 datapath on one update stream:
/// seq_train calls, then predict_actions calls, with the Q20 kernel set
/// pinned to `simd`. Both sets compute bit-identical words.
FpgaLayerTiming measure_fpga_layers(std::size_t hidden_units,
                                    std::size_t iters, bool simd) {
  kernels::set_simd_enabled(simd);
  oselm::hw::FpgaBackendConfig config;
  config.input_dim = kInputDim;
  config.hidden_units = hidden_units;
  oselm::hw::FpgaOsElmBackend backend(config, 404);
  const TrainStream stream(hidden_units);
  backend.init_train(stream.x0, stream.t0);
  const std::vector<VecD>& xs = stream.xs;
  const VecD& targets = stream.targets;

  FpgaLayerTiming out;
  oselm::util::WallTimer train_timer;
  for (std::size_t it = 0; it < iters; ++it) {
    backend.seq_train(xs[it % kSamplePool], targets[it % kSamplePool]);
  }
  out.seq_train_us = train_timer.seconds() * 1e6 / static_cast<double>(iters);

  const VecD codes = {-1.0, 1.0};
  VecD state(kInputDim - 1, 0.0);
  VecD q(codes.size(), 0.0);
  oselm::util::WallTimer predict_timer;
  for (std::size_t it = 0; it < iters; ++it) {
    const VecD& x = xs[it % kSamplePool];
    std::copy(x.begin(), x.end() - 1, state.begin());
    backend.predict_actions(state, codes, oselm::rl::QNetwork::kMain, q);
    out.checksum += q[0] - q[1];
  }
  out.predict_us = predict_timer.seconds() * 1e6 / static_cast<double>(iters);
  out.checksum += backend.beta_fixed()(0, 0).to_double();
  kernels::reset_simd_override();
  return out;
}

/// Microseconds per training DqnAgent::observe (paper DQN shapes: 4 -> 64
/// -> 2, batch 32) with the MLP kernel set pinned to `simd`, over a fixed
/// pool of transitions. Both sets compute bit-identical weights.
double measure_dqn_observe_us(std::size_t iters, bool simd) {
  kernels::set_simd_enabled(simd);
  const oselm::rl::DqnAgentConfig config;
  oselm::rl::DqnAgent agent(config, 2024);
  oselm::util::Rng rng(5);
  std::vector<oselm::nn::Transition> pool(kSamplePool);
  for (auto& t : pool) {
    t.state = VecD(config.state_dim, 0.0);
    t.next_state = VecD(config.state_dim, 0.0);
    rng.fill_uniform(t.state, -1.0, 1.0);
    rng.fill_uniform(t.next_state, -1.0, 1.0);
    t.action = rng.uniform_index(config.action_count);
    t.reward = 1.0;
    t.done = rng.bernoulli(0.05);
  }
  // Fill the replay past learning_starts so every timed call trains.
  for (std::size_t it = 0; it < config.learning_starts + iters / 10; ++it) {
    agent.observe(pool[it % kSamplePool]);
  }
  oselm::util::WallTimer timer;
  for (std::size_t it = 0; it < iters; ++it) {
    agent.observe(pool[it % kSamplePool]);
  }
  const double us = timer.seconds() * 1e6 / static_cast<double>(iters);
  kernels::reset_simd_override();
  return us;
}

struct ServingPoint {
  std::size_t sessions = 0;
  double sessions_per_sec = 0.0;
  double steps_per_sec = 0.0;
};

ServingPoint measure_serving(std::size_t n_sessions, std::size_t episodes,
                             std::size_t hidden_units) {
  const oselm::rl::SimplifiedOutputModel model(4, 2);
  oselm::rl::BackendConfig backend_config;
  backend_config.input_dim = model.input_dim();
  backend_config.hidden_units = hidden_units;
  backend_config.l2_delta = 0.5;
  backend_config.spectral_normalize = true;
  backend_config.seed = 404;
  oselm::rl::AsyncQServer server(
      oselm::rl::make_backend("software", backend_config), model,
      oselm::rl::lockstep_config(n_sessions));
  std::vector<oselm::rl::AsyncSessionSpec> specs(n_sessions);
  for (std::size_t i = 0; i < n_sessions; ++i) {
    oselm::rl::AsyncSessionSpec& spec = specs[i];
    spec.mode = oselm::rl::AsyncSessionMode::kTrain;
    spec.session.env_id = "ShapedCartPole-v0";
    spec.session.env_seed = 1000 + 17 * i;
    spec.session.agent_seed = 7 + i;
    spec.session.trainer.max_episodes = episodes;
    spec.session.trainer.solved_threshold = 1e9;
    spec.session.trainer.reset_interval = 0;
  }
  const oselm::util::WallTimer timer;
  oselm::rl::add_cohort(server, specs);
  std::uint64_t steps = 0;
  for (const auto& r : server.drain()) steps += r.train.total_steps;
  const double wall = timer.seconds();
  ServingPoint point;
  point.sessions = n_sessions;
  point.sessions_per_sec = static_cast<double>(n_sessions) / wall;
  point.steps_per_sec = static_cast<double>(steps) / wall;
  return point;
}

}  // namespace

int main(int argc, char** argv) {
  const std::string out_path = argc > 1 ? argv[1] : "BENCH_train.json";
  const auto hidden_units = static_cast<std::size_t>(
      oselm::util::env_int("OSELM_UNITS", 64));
  const auto iters = static_cast<std::size_t>(
      oselm::util::env_int("OSELM_BENCH_ITERS", 20000));
  const auto serving_episodes = static_cast<std::size_t>(
      oselm::util::env_int("OSELM_SERVING_EPISODES", 30));
  // Captured BEFORE any programmatic override: honors OSELM_SIMD=off, so
  // the CI fallback-proof run measures the scalar set end to end.
  const bool simd_active = kernels::simd_enabled();

  // Best of 3 repetitions per variant to shrug off scheduler noise.
  TrainMeasurement best;
  for (int rep = 0; rep < 3; ++rep) {
    const TrainMeasurement m =
        measure_seq_train(hidden_units, iters, simd_active);
    if (rep == 0 || m.seed_scalar_ns < best.seed_scalar_ns) {
      best.seed_scalar_ns = m.seed_scalar_ns;
    }
    if (rep == 0 || m.scalar_kernels_ns < best.scalar_kernels_ns) {
      best.scalar_kernels_ns = m.scalar_kernels_ns;
    }
    if (rep == 0 || m.simd_ns < best.simd_ns) best.simd_ns = m.simd_ns;
    best.checksum += m.checksum;
  }
  const double speedup_vs_seed = best.seed_scalar_ns / best.simd_ns;
  const double speedup_vs_scalar_kernels =
      best.scalar_kernels_ns / best.simd_ns;
  const double symmetry_only_speedup =
      best.seed_scalar_ns / best.scalar_kernels_ns;

  std::printf("seq_train_one @ N=%zu (%zu iters, checksum %.3g)\n",
              hidden_units, iters, best.checksum);
  std::printf("  seed scalar (full P sweep)     : %9.1f ns/update\n",
              best.seed_scalar_ns);
  std::printf("  scalar kernels (symmetric P)   : %9.1f ns/update  (%.2fx)\n",
              best.scalar_kernels_ns, symmetry_only_speedup);
  std::printf("  %-6s kernels (symmetric P)   : %9.1f ns/update  "
              "(%.2fx vs seed, %.2fx vs scalar kernels)\n",
              simd_active ? "avx2" : "scalar", best.simd_ns,
              speedup_vs_seed, speedup_vs_scalar_kernels);

  // --- Rank-k chunk vs the rank-1 loop, per row, on the active set.
  constexpr int kChunkRepeats = 9;
  std::vector<ChunkRow> chunk_rows;
  std::printf("seq_train chunk vs seq_train_one loop @ N=%zu (%s kernels, "
              "median of %d interleaved repeats)\n",
              hidden_units, simd_active ? "avx2" : "scalar", kChunkRepeats);
  for (const std::size_t k : {1, 2, 4, 8, 16, 32}) {
    chunk_rows.push_back(
        measure_chunk(hidden_units, k, iters / 4, kChunkRepeats));
    const ChunkRow& r = chunk_rows.back();
    std::printf("  k=%-2zu loop %7.3f us/row  chunk %7.3f us/row  "
                "x%.2f [%.2f, %.2f]  (checksum %.3g)\n",
                r.k, r.loop_us, r.chunk_us, r.speedup_p50, r.speedup_lo,
                r.speedup_hi, r.checksum);
  }

  // --- FPGA model Q20 layers, best of 3 per kernel set.
  FpgaLayerTiming fpga_scalar;
  FpgaLayerTiming fpga_simd;
  for (int rep = 0; rep < 3; ++rep) {
    const auto keep_best = [rep](FpgaLayerTiming& best_t,
                                 const FpgaLayerTiming& m) {
      if (rep == 0 || m.seq_train_us < best_t.seq_train_us) {
        best_t.seq_train_us = m.seq_train_us;
      }
      if (rep == 0 || m.predict_us < best_t.predict_us) {
        best_t.predict_us = m.predict_us;
      }
      best_t.checksum = m.checksum;
    };
    keep_best(fpga_scalar, measure_fpga_layers(hidden_units, iters, false));
    keep_best(fpga_simd,
              measure_fpga_layers(hidden_units, iters, simd_active));
  }
  std::printf("fpga-q20 host layers @ N=%zu (checksum %.6g / %.6g)\n",
              hidden_units, fpga_scalar.checksum, fpga_simd.checksum);
  std::printf("  seq_train       : scalar %8.3f us  %-6s %8.3f us\n",
              fpga_scalar.seq_train_us, simd_active ? "avx2" : "scalar",
              fpga_simd.seq_train_us);
  std::printf("  predict_actions : scalar %8.3f us  %-6s %8.3f us\n",
              fpga_scalar.predict_us, simd_active ? "avx2" : "scalar",
              fpga_simd.predict_us);

  // --- DQN baseline training step, best of 3 per kernel set.
  const std::size_t dqn_iters = std::max<std::size_t>(iters / 4, 1);
  double dqn_scalar_us = 0.0;
  double dqn_simd_us = 0.0;
  for (int rep = 0; rep < 3; ++rep) {
    const double scalar_us = measure_dqn_observe_us(dqn_iters, false);
    const double simd_us = measure_dqn_observe_us(dqn_iters, simd_active);
    if (rep == 0 || scalar_us < dqn_scalar_us) dqn_scalar_us = scalar_us;
    if (rep == 0 || simd_us < dqn_simd_us) dqn_simd_us = simd_us;
  }
  std::printf("dqn observe (4->64->2, batch 32, %zu iters)\n", dqn_iters);
  std::printf("  train step      : scalar %8.3f us  %-6s %8.3f us\n",
              dqn_scalar_us, simd_active ? "avx2" : "scalar", dqn_simd_us);

  // --- Lockstep serving throughput.
  const std::size_t session_counts[] = {1, 8, 32};
  std::vector<ServingPoint> serving;
  for (const std::size_t n : session_counts) {
    serving.push_back(measure_serving(n, serving_episodes, hidden_units));
    const ServingPoint& p = serving.back();
    std::printf("serving N=%-2zu: %8.2f sessions/sec (%.0f steps/sec)\n",
                p.sessions, p.sessions_per_sec, p.steps_per_sec);
  }

  std::FILE* f = std::fopen(out_path.c_str(), "w");
  if (f == nullptr) {
    std::fprintf(stderr, "cannot open %s\n", out_path.c_str());
    return 1;
  }
  std::fprintf(
      f,
      "{\n"
      "  \"config\": {\"hidden_units\": %zu, \"iterations\": %zu, "
      "\"simd_available\": %s, \"kernel_set\": \"%s\"},\n"
      "  \"seq_train\": {\"seed_scalar_ns\": %.1f, "
      "\"scalar_kernels_ns\": %.1f, \"simd_ns\": %.1f, "
      "\"speedup_vs_seed\": %.3f, \"speedup_vs_scalar_kernels\": %.3f, "
      "\"symmetry_only_speedup\": %.3f},\n"
      "  \"fpga_q20\": {\"seq_train_scalar_us\": %.3f, "
      "\"seq_train_simd_us\": %.3f, \"predict_actions_scalar_us\": %.3f, "
      "\"predict_actions_simd_us\": %.3f},\n"
      "  \"dqn_observe\": {\"scalar_us\": %.3f, \"simd_us\": %.3f},\n",
      hidden_units, iters, kernels::simd_available() ? "true" : "false",
      simd_active ? "avx2" : "scalar", best.seed_scalar_ns,
      best.scalar_kernels_ns, best.simd_ns, speedup_vs_seed,
      speedup_vs_scalar_kernels, symmetry_only_speedup,
      fpga_scalar.seq_train_us, fpga_simd.seq_train_us,
      fpga_scalar.predict_us, fpga_simd.predict_us, dqn_scalar_us,
      dqn_simd_us);
  std::fprintf(f,
               "  \"seq_train_chunk\": {\"repeats\": %d, \"kernel_set\": "
               "\"%s\", \"rows\": [\n",
               kChunkRepeats, simd_active ? "avx2" : "scalar");
  for (std::size_t i = 0; i < chunk_rows.size(); ++i) {
    const ChunkRow& r = chunk_rows[i];
    std::fprintf(
        f,
        "    {\"k\": %zu, \"loop_us_per_row\": %.4f, "
        "\"chunk_us_per_row\": %.4f, \"speedup_p50\": %.3f, "
        "\"speedup_min\": %.3f, \"speedup_max\": %.3f}%s\n",
        r.k, r.loop_us, r.chunk_us, r.speedup_p50, r.speedup_lo,
        r.speedup_hi, i + 1 < chunk_rows.size() ? "," : "");
  }
  std::fprintf(f, "  ]},\n  \"serving\": [\n");
  for (std::size_t i = 0; i < serving.size(); ++i) {
    const ServingPoint& p = serving[i];
    std::fprintf(
        f,
        "    {\"sessions\": %zu, \"sessions_per_sec\": %.3f, "
        "\"steps_per_sec\": %.1f}%s\n",
        p.sessions, p.sessions_per_sec, p.steps_per_sec,
        i + 1 < serving.size() ? "," : "");
  }
  std::fprintf(f, "  ]\n}\n");
  std::fclose(f);
  std::printf("wrote %s\n", out_path.c_str());

  // Regression gate (see bench_predict_path): only meaningful where a SIMD
  // kernel set exists — on scalar-only hosts the two variants are the
  // same code and the gate would measure nothing.
  if (simd_active &&
      !oselm::bench::check_speedup_gate("OSELM_BENCH_MIN_SPEEDUP_PCT",
                                        "seq_train simd", speedup_vs_seed)) {
    return 1;
  }
  if (!simd_active) {
    std::printf("note: SIMD kernel set unavailable or disabled — speedup "
                "gate skipped\n");
  }
  return 0;
}
