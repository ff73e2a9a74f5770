// rl::AsyncQServer — the asynchronous continuous-batching serving engine.
//
// Load-bearing properties:
//   * per-session determinism for evaluation sessions: the same seed
//     yields the exact same trajectory at ANY worker-thread count, alone
//     or co-scheduled — even though cross-session batch composition is
//     scheduling-dependent (the acceptance pin for the async redesign);
//   * a solo training session reproduces the single-agent run_training
//     trajectory exactly, backend call stream included;
//   * the lockstep configuration (lockstep_config + add_cohort) makes
//     co-tenant training deterministic across reruns and worker counts;
//   * lifecycle robustness: admission control rejects past the cap with a
//     clear error, a session whose environment throws mid-step retires
//     without poisoning the batch thread, and shutdown with in-flight
//     requests joins cleanly (exercised under ASan/UBSan and TSan in CI),
//     also when the server is destroyed on a pool that outlives it.
#include "rl/async_server.hpp"

#include <gtest/gtest.h>

#include <algorithm>
#include <atomic>
#include <chrono>
#include <future>
#include <limits>
#include <map>
#include <memory>
#include <mutex>
#include <thread>
#include <tuple>

#include "env/registry.hpp"
#include "obs/metrics.hpp"
#include "rl/backend_registry.hpp"
#include "rl/oselm_q_agent.hpp"
#include "rl/trainer.hpp"
#include "util/rng.hpp"
#include "util/thread_pool.hpp"

namespace oselm::rl {
namespace {

constexpr std::size_t kHidden = 16;

BackendConfig backend_config(std::uint64_t seed) {
  BackendConfig config;
  config.input_dim = 5;
  config.hidden_units = kHidden;
  config.l2_delta = 0.5;
  config.spectral_normalize = true;
  config.seed = seed;
  return config;
}

/// Runs the Eq. 8 initial training on deterministic random data so
/// evaluation sessions see a non-trivial Q surface.
void prime_backend(OsElmQBackend& backend, std::uint64_t seed) {
  util::Rng rng(seed);
  const std::size_t rows = backend.hidden_units();
  linalg::MatD x(rows, backend.input_dim());
  linalg::MatD t(rows, 1);
  rng.fill_uniform(x.storage(), -1.0, 1.0);
  rng.fill_uniform(t.storage(), -1.0, 1.0);
  backend.init_train(x, t);
}

AsyncSessionSpec eval_spec(std::uint64_t env_seed, std::uint64_t agent_seed,
                           std::size_t episodes = 6) {
  AsyncSessionSpec spec;
  spec.mode = AsyncSessionMode::kEvaluate;
  spec.session.env_id = "ShapedCartPole-v0";
  spec.session.env_seed = env_seed;
  spec.session.agent_seed = agent_seed;
  spec.session.trainer.max_episodes = episodes;
  spec.session.trainer.solved_threshold = 1e9;  // run the full budget
  spec.session.trainer.reset_interval = 0;
  return spec;
}

struct Trajectory {
  std::vector<double> steps;
  std::vector<double> returns;
  std::size_t episodes = 0;
  std::size_t total_steps = 0;

  explicit Trajectory(const TrainResult& r)
      : steps(r.episode_steps),
        returns(r.episode_returns),
        episodes(r.episodes),
        total_steps(r.total_steps) {}
  bool operator==(const Trajectory&) const = default;
};

class PerBackend : public ::testing::TestWithParam<std::string> {};

TEST_P(PerBackend, EvalSessionIsDeterministicAcrossThreadsAndCoTenants) {
  const std::string backend_id = GetParam();
  const std::size_t hardware =
      std::max<std::size_t>(2, std::thread::hardware_concurrency());

  // The probe session under four schedules: worker pools of 1 and
  // hardware width, alone and co-scheduled with 7 other sessions.
  const auto run_probe = [&](std::size_t workers, bool co_tenants) {
    OsElmQBackendPtr backend =
        make_backend(backend_id, backend_config(2024));
    prime_backend(*backend, 77);
    AsyncQServerConfig config;
    config.worker_threads = workers;
    config.max_batch = 8;
    config.max_wait_us = 50;
    AsyncQServer server(std::move(backend), SimplifiedOutputModel(4, 2),
                        config);
    const std::size_t probe = server.add_session(eval_spec(913, 37));
    if (co_tenants) {
      for (std::size_t i = 0; i < 7; ++i) {
        server.add_session(eval_spec(400 + i, 90 + i, 8));
      }
    }
    const AsyncSessionResult result = server.wait(probe);
    server.drain();
    EXPECT_TRUE(result.completed);
    EXPECT_FALSE(result.failed);
    return Trajectory(result.train);
  };

  const Trajectory alone_serial = run_probe(1, false);
  ASSERT_GT(alone_serial.total_steps, 0u);
  ASSERT_EQ(alone_serial.episodes, 6u);
  EXPECT_EQ(run_probe(hardware, false), alone_serial) << "threads change it";
  EXPECT_EQ(run_probe(1, true), alone_serial) << "co-tenants change it";
  EXPECT_EQ(run_probe(hardware, true), alone_serial)
      << "threads + co-tenants change it";
}

/// The single-agent reference for a spec, on a fresh backend of the same
/// id/seed (exactly what the server multiplexes).
TrainResult single_agent_reference(const std::string& backend_id,
                                   std::uint64_t backend_seed,
                                   const ServingSessionSpec& spec,
                                   util::OpBreakdown* breakdown_out,
                                   QNetState* weights_out = nullptr) {
  OsElmQBackendPtr backend =
      make_backend(backend_id, backend_config(backend_seed));
  OsElmQBackend* raw = backend.get();
  OsElmQAgent agent(std::move(backend), SimplifiedOutputModel(4, 2),
                    spec.agent, spec.agent_seed);
  const env::EnvironmentPtr env =
      env::make_environment(spec.env_id, spec.env_seed);
  const TrainResult result = run_training(agent, *env, spec.trainer);
  if (breakdown_out != nullptr) *breakdown_out = raw->ledger().breakdown();
  if (weights_out != nullptr && raw->initialized()) {
    *weights_out = raw->export_state();
  }
  return result;
}

AsyncSessionSpec train_spec(std::uint64_t env_seed, std::uint64_t agent_seed,
                            std::size_t episodes) {
  AsyncSessionSpec spec;
  spec.mode = AsyncSessionMode::kTrain;
  spec.session.env_seed = env_seed;
  spec.session.agent_seed = agent_seed;
  spec.session.trainer.max_episodes = episodes;
  spec.session.trainer.reset_interval = 0;  // shared network: no resets
  return spec;
}

/// One lockstep cohort run on a fresh backend: results in spec order, the
/// server's counters, the backend's ledger and the trained weights.
struct LockstepRun {
  std::vector<AsyncSessionResult> sessions;
  AsyncServerStats stats;
  util::OpBreakdown ledger;
  QNetState weights;
};

LockstepRun run_lockstep(const std::string& backend_id,
                         std::uint64_t backend_seed,
                         const std::vector<AsyncSessionSpec>& specs,
                         std::size_t workers = 0) {
  OsElmQBackendPtr backend =
      make_backend(backend_id, backend_config(backend_seed));
  const OsElmQBackend* raw = backend.get();
  AsyncQServerConfig config = lockstep_config(specs.size());
  if (workers != 0) config.worker_threads = workers;
  AsyncQServer server(std::move(backend), SimplifiedOutputModel(4, 2),
                      config);
  add_cohort(server, specs);
  LockstepRun out;
  out.sessions = server.drain();
  out.stats = server.stats();
  server.stop();  // the backend is quiescent from here on
  out.ledger = raw->ledger().breakdown();
  if (raw->initialized()) out.weights = raw->export_state();
  return out;
}

constexpr util::OpCategory kBackendCategories[] = {
    util::OpCategory::kPredictInit, util::OpCategory::kPredictSeq,
    util::OpCategory::kSeqTrain, util::OpCategory::kInitTrain};

/// One row of the N=1 fidelity table: a training spec that drives one
/// branch of Algorithm 1, plus the property of the reference run that
/// proves the branch was reached.
struct FidelityRow {
  std::string name;  ///< "" for the base row (keeps the historical names)
  void (*configure)(ServingSessionSpec&);
  bool (*reached)(const TrainResult&, const util::OpBreakdown&);
};

const std::vector<FidelityRow>& fidelity_rows() {
  static const std::vector<FidelityRow> rows = {
      // §4.3 resets before any solve.
      {"",
       [](ServingSessionSpec&) {},
       [](const TrainResult& r, const util::OpBreakdown&) {
         return r.resets > 0;
       }},
      // Episodes truncated by the step cap rather than by the pole.
      {"step_cap",
       [](ServingSessionSpec& s) { s.trainer.episode_step_cap = 15; },
       [](const TrainResult& r, const util::OpBreakdown&) {
         return std::count(r.episode_steps.begin(), r.episode_steps.end(),
                           15.0) > 0;
       }},
      // Training continues past the first solve; resets stop firing.
      {"train_past_solve",
       [](ServingSessionSpec& s) {
         s.trainer.stop_on_solved = false;
         s.trainer.solved_threshold = 20.0;
       },
       [](const TrainResult& r, const util::OpBreakdown&) {
         return r.solved && r.first_solved_episode < r.episodes &&
                r.resets > 0;
       }},
      // Every step trains (no epsilon_2 coin).
      {"update_every_step",
       [](ServingSessionSpec& s) { s.agent.random_update = false; },
       [](const TrainResult&, const util::OpBreakdown& b) {
         return b.invocations(util::OpCategory::kSeqTrain) > 0;
       }},
      // Unclipped TD targets.
      {"unclipped",
       [](ServingSessionSpec& s) { s.agent.clip_targets = false; },
       [](const TrainResult&, const util::OpBreakdown& b) {
         return b.invocations(util::OpCategory::kSeqTrain) > 0;
       }},
      // UPDATE_STEP = 3 target-sync cadence, restarted by a reset.
      {"sync_every_3",
       [](ServingSessionSpec& s) { s.agent.target_sync_interval = 3; },
       [](const TrainResult& r, const util::OpBreakdown&) {
         return r.resets > 0;
       }},
  };
  return rows;
}

using FidelityParam = std::tuple<std::string, std::size_t>;

class SingleSessionFidelity : public ::testing::TestWithParam<FidelityParam> {
};

TEST_P(SingleSessionFidelity, ReproducesTheSingleAgentTrajectoryExactly) {
  // N=1 lockstep serving must reproduce rl::run_training EXACTLY (same rng
  // streams, same backend call order, same §4.3 reset and target-sync
  // schedules): serving may change WHERE predictions are batched, never
  // WHAT is computed.
  const auto& [backend_id, row_index] = GetParam();
  const FidelityRow& row = fidelity_rows()[row_index];
  AsyncSessionSpec spec = train_spec(913, 37, 60);
  spec.session.trainer.reset_interval = 25;  // exercise the §4.3 reset too
  row.configure(spec.session);

  util::OpBreakdown agent_breakdown;
  QNetState agent_weights;
  const TrainResult reference = single_agent_reference(
      backend_id, 5150, spec.session, &agent_breakdown, &agent_weights);
  ASSERT_TRUE(row.reached(reference, agent_breakdown))
      << "row does not reach its branch";
  const LockstepRun run = run_lockstep(backend_id, 5150, {spec});
  ASSERT_EQ(run.sessions.size(), 1u);
  const TrainResult& served = run.sessions[0].train;

  ASSERT_TRUE(run.sessions[0].completed);
  EXPECT_EQ(Trajectory(served), Trajectory(reference));
  EXPECT_EQ(served.resets, reference.resets);
  EXPECT_EQ(served.solved, reference.solved);
  EXPECT_EQ(served.first_solved_episode, reference.first_solved_episode);
  // The server issued exactly the backend calls the agent would have...
  for (const util::OpCategory cat : kBackendCategories) {
    EXPECT_EQ(run.ledger.invocations(cat), agent_breakdown.invocations(cat))
        << util::op_category_name(cat);
  }
  // ...and left the shared network in exactly the agent's final state.
  ASSERT_EQ(run.weights.initialized, agent_weights.initialized);
  EXPECT_EQ(run.weights.beta.storage(), agent_weights.beta.storage());
  EXPECT_EQ(run.weights.beta_target.storage(),
            agent_weights.beta_target.storage());
  EXPECT_EQ(run.weights.p.storage(), agent_weights.p.storage());
}

INSTANTIATE_TEST_SUITE_P(
    AllRegisteredBackends, SingleSessionFidelity,
    ::testing::Combine(
        ::testing::ValuesIn(registered_backends()),
        ::testing::Range<std::size_t>(0, fidelity_rows().size())),
    [](const ::testing::TestParamInfo<FidelityParam>& i) {
      std::string name = std::get<0>(i.param);
      for (char& c : name) {
        if (c == '-' || c == '.') c = '_';
      }
      const std::string& row = fidelity_rows()[std::get<1>(i.param)].name;
      return row.empty() ? name : name + "_" + row;
    });

TEST(AsyncQServer, SoloTrainFpgaModeledTimeMatchesBitForBit) {
  // Deterministic modeled PL seconds: with one session every coalesced
  // batch carries one state, so the as-batched charges degenerate to the
  // single agent's per-call stream bit-for-bit.
  const AsyncSessionSpec spec = train_spec(4242, 11, 40);
  util::OpBreakdown agent_breakdown;
  (void)single_agent_reference("fpga-q20", 999, spec.session,
                               &agent_breakdown);
  const LockstepRun run = run_lockstep("fpga-q20", 999, {spec});

  // kInitTrain is excluded: the Eq. 7/8 solve runs on the CPU side of the
  // Fig. 3 split and charges measured wall-clock, never bit-stable.
  for (const util::OpCategory cat :
       {util::OpCategory::kPredictInit, util::OpCategory::kPredictSeq,
        util::OpCategory::kSeqTrain}) {
    EXPECT_DOUBLE_EQ(run.ledger.get(cat), agent_breakdown.get(cat))
        << util::op_category_name(cat);
  }
}

/// A three-session lockstep training cohort with shared §4.3 resets.
/// Session 0 sleeps in every env step, so with several workers its
/// requests arrive last while with one worker they arrive first.
std::vector<AsyncSessionSpec> lockstep_cohort() {
  std::vector<AsyncSessionSpec> specs;
  for (std::size_t i = 0; i < 3; ++i) {
    specs.push_back(train_spec(500 + i, 130 + i, 12));
  }
  specs[0].session.trainer.reset_interval = 5;
  specs[0].session.env_id = "delay:50:ShapedCartPole-v0";
  return specs;
}

/// Pins two lockstep runs bit-identical: trajectories, resets, batch
/// composition, backend call stream and the trained weights.
void expect_identical_runs(const LockstepRun& run, const LockstepRun& ref,
                           const std::string& label) {
  ASSERT_EQ(run.sessions.size(), ref.sessions.size()) << label;
  for (std::size_t i = 0; i < ref.sessions.size(); ++i) {
    EXPECT_EQ(Trajectory(run.sessions[i].train),
              Trajectory(ref.sessions[i].train))
        << label << " session " << i;
    EXPECT_EQ(run.sessions[i].train.resets, ref.sessions[i].train.resets)
        << label << " session " << i;
  }
  EXPECT_EQ(run.stats.batches, ref.stats.batches) << label;
  EXPECT_EQ(run.stats.batch_rows, ref.stats.batch_rows) << label;
  EXPECT_EQ(run.stats.train_updates, ref.stats.train_updates) << label;
  EXPECT_EQ(run.weights.beta.storage(), ref.weights.beta.storage()) << label;
  EXPECT_EQ(run.weights.p.storage(), ref.weights.p.storage()) << label;
  for (const util::OpCategory cat : kBackendCategories) {
    EXPECT_EQ(run.ledger.invocations(cat), ref.ledger.invocations(cat))
        << label << " " << util::op_category_name(cat);
  }
}

// QServer.* pins the lockstep Q-serving schedule: every drain carries the
// whole live cohort and is applied in session-id order, so co-tenant
// training evolves the shared weights bit-identically.

TEST(QServer, MultiSessionRunIsDeterministic) {
  const std::vector<AsyncSessionSpec> specs = lockstep_cohort();
  for (const std::string& backend_id : registered_backends()) {
    const LockstepRun first = run_lockstep(backend_id, 33, specs);
    ASSERT_EQ(first.sessions.size(), 3u) << backend_id;
    ASSERT_TRUE(first.weights.initialized) << backend_id;
    EXPECT_GT(first.stats.train_updates, 0u) << backend_id;
    expect_identical_runs(run_lockstep(backend_id, 33, specs), first,
                          backend_id + " rerun");
  }
}

TEST(QServer, ParallelEnvSteppingMatchesSerialExactly) {
  // Per-session envs, RNGs and scratch make the result independent of the
  // worker count; 4 workers oversubscribe 3 sessions on purpose.
  const std::vector<AsyncSessionSpec> specs = lockstep_cohort();
  for (const std::string& backend_id : registered_backends()) {
    const LockstepRun serial = run_lockstep(backend_id, 77, specs, 1);
    ASSERT_EQ(serial.sessions.size(), 3u) << backend_id;
    ASSERT_TRUE(serial.weights.initialized) << backend_id;
    expect_identical_runs(run_lockstep(backend_id, 77, specs, 4), serial,
                          backend_id + " 4 workers");
  }
}

INSTANTIATE_TEST_SUITE_P(AllRegisteredBackends, PerBackend,
                         ::testing::ValuesIn(registered_backends()),
                         [](const ::testing::TestParamInfo<std::string>& i) {
                           std::string name = i.param;
                           for (char& c : name) {
                             if (c == '-' || c == '.') c = '_';
                           }
                           return name;
                         });

TEST(AsyncQServer, ValidatesConstructionAndSpecs) {
  EXPECT_THROW(AsyncQServer(nullptr, SimplifiedOutputModel(4, 2)),
               std::invalid_argument);
  AsyncQServer server(make_backend("software", backend_config(1)),
                      SimplifiedOutputModel(4, 2));
  AsyncSessionSpec mismatched;
  mismatched.session.env_id = "GridWorld";  // width 3 vs backend width 5
  EXPECT_THROW(server.add_session(mismatched), std::invalid_argument);
  AsyncSessionSpec null_factory = eval_spec(1, 2);
  null_factory.env_factory = [](std::uint64_t) {
    return env::EnvironmentPtr{};
  };
  EXPECT_THROW(server.add_session(null_factory), std::invalid_argument);
  EXPECT_EQ(server.live_sessions(), 0u);
  EXPECT_THROW(server.wait(99), std::invalid_argument);
}

TEST(AdmissionError, WhatEmbedsReasonAndSessionInTheCanonicalFormat) {
  // The pinned canonical format —
  //   <who>: admission rejected (<reason>) for session '<session>': <detail>
  // — so a bare catch-and-log already tells the operator which session
  // was refused and why, without switching on reason().
  const AdmissionError capacity(AdmissionRejectReason::kCapacity,
                                "AsyncQServer::add_session",
                                "ShapedCartPole-v0#12#22", "cap reached");
  EXPECT_STREQ(capacity.what(),
               "AsyncQServer::add_session: admission rejected (capacity) "
               "for session 'ShapedCartPole-v0#12#22': cap reached");
  const AdmissionError stopping(AdmissionRejectReason::kStopping,
                                "RouterQServer::add_session", "k7",
                                "router is stopping");
  EXPECT_STREQ(stopping.what(),
               "RouterQServer::add_session: admission rejected (stopping) "
               "for session 'k7': router is stopping");
  const AdmissionError duplicate(AdmissionRejectReason::kDuplicateId,
                                 "driver", "k7", "key already live");
  EXPECT_STREQ(duplicate.what(),
               "driver: admission rejected (duplicate-id) for session "
               "'k7': key already live");
}

TEST(AsyncQServer, AdmissionControlRejectsBeyondTheCapWithAClearError) {
  AsyncQServerConfig config;
  config.max_live_sessions = 2;
  config.worker_threads = 2;
  AsyncQServer server(make_backend("software", backend_config(7)),
                      SimplifiedOutputModel(4, 2), config);
  // Slow sessions so both stay live while the third knocks.
  AsyncSessionSpec slow = eval_spec(10, 20, 50);
  slow.session.env_id = "delay:2000:ShapedCartPole-v0";
  const std::size_t a = server.add_session(slow);
  slow.session.env_seed = 11;
  const std::size_t b = server.add_session(slow);
  try {
    server.add_session(eval_spec(12, 22));
    FAIL() << "expected admission rejection";
  } catch (const AdmissionError& e) {
    // Structured reason + a clear message: callers can branch on the
    // enum (retry later vs give up) without parsing the text.
    EXPECT_EQ(e.reason(), AdmissionRejectReason::kCapacity);
    EXPECT_NE(std::string(e.what()).find("admission rejected"),
              std::string::npos)
        << e.what();
    EXPECT_NE(std::string(e.what()).find("cap (2)"), std::string::npos)
        << e.what();
  }
  EXPECT_EQ(server.stats().admission_rejections, 1u);
  EXPECT_EQ(server.stats().stopping_rejections, 0u);
  server.stop();
  // The cap frees as sessions retire: after stop() everything is retired,
  // but admission is closed — and the rejection says WHY.
  try {
    server.add_session(eval_spec(13, 23));
    FAIL() << "expected a stopping rejection";
  } catch (const AdmissionError& e) {
    EXPECT_EQ(e.reason(), AdmissionRejectReason::kStopping);
  }
  EXPECT_EQ(server.stats().stopping_rejections, 1u);
  (void)a;
  (void)b;
}

/// Every counter series labeled server="<server>" in a fresh snapshot of
/// the process-wide registry, by series name.
std::map<std::string, std::uint64_t> server_series(const std::string& server) {
  std::map<std::string, std::uint64_t> out;
  for (const auto& series :
       obs::MetricsRegistry::global().snapshot().counters) {
    if (series.labels == obs::Labels{{"server", server}}) {
      out[series.name] = series.value;
    }
  }
  return out;
}

/// Asserts the registry's series for `server` are exactly its stats().
void expect_series_equal_stats(const AsyncQServer& server) {
  const AsyncServerStats stats = server.stats();
  const std::map<std::string, std::uint64_t> series =
      server_series(server.name());
  EXPECT_EQ(series.size(), std::size(kAsyncServerCounters));
  for (const auto& [key, field] : kAsyncServerCounters) {
    const std::string name = "oselm_async_" + std::string(key) + "_total";
    ASSERT_TRUE(series.contains(name)) << name;
    EXPECT_EQ(series.at(name), stats.*field) << name;
  }
}

TEST(AsyncQServer, RegistrySeriesAreTheServerStatsUnderItsName) {
  // Each server's atomics are the only count of its events; the
  // process-wide registry reads them through the server's collector as
  // oselm_async_<field>_total{server="<name>"}, so the two views are
  // equal by construction, for every counter field.
  AsyncQServerConfig config;
  config.name = "registry-series-test";
  config.max_live_sessions = 2;
  config.worker_threads = 2;
  AsyncQServerConfig failing_config = config;
  failing_config.name = "registry-series-test/failing";
  {
    AsyncQServer server(make_backend("software", backend_config(15)),
                        SimplifiedOutputModel(4, 2), config);
    // Every backend call of this one throws.
    AsyncQServer failing(
        make_backend("fault:throw:1:1:software", backend_config(16)),
        SimplifiedOutputModel(4, 2), failing_config);
    // A training session to completion: init_train and seq_train run.
    EXPECT_TRUE(server.wait(server.add_session(train_spec(160, 170, 20)))
                    .completed);
    // A session whose environment throws retires as an env failure.
    AsyncSessionSpec broken = eval_spec(164, 174);
    broken.session.env_id = "fault:throw:1:3:ShapedCartPole-v0";
    EXPECT_EQ(server.wait(server.add_session(broken)).cause,
              SessionEndCause::kEnvError);
    // Two slow sessions fill the cap, so a third is refused.
    AsyncSessionSpec slow = eval_spec(161, 171, 50);
    slow.session.env_id = "delay:2000:ShapedCartPole-v0";
    server.add_session(slow);
    slow.session.env_seed = 162;
    server.add_session(slow);
    EXPECT_THROW(server.add_session(eval_spec(163, 173)), AdmissionError);
    // Their 2 ms env steps outlast the default 100 us linger, so once
    // they drift apart a lone request is served without lingering.
    const auto give_up = std::chrono::steady_clock::now() +
                         std::chrono::seconds(10);
    while (server.stats().lingers_skipped == 0 &&
           std::chrono::steady_clock::now() < give_up) {
      std::this_thread::sleep_for(std::chrono::milliseconds(1));
    }
    server.stop();
    EXPECT_THROW(server.add_session(eval_spec(163, 173)), AdmissionError);
    (void)failing.wait(failing.add_session(train_spec(165, 175, 5)));
    failing.stop();

    const AsyncServerStats stats = server.stats();
    for (const auto& [key, field] : kAsyncServerCounters) {
      if (std::string(key) != "backend_failures") {
        EXPECT_GT(stats.*field, 0u) << key << " not exercised";
      }
    }
    EXPECT_GT(failing.stats().backend_failures, 0u);
    expect_series_equal_stats(server);
    expect_series_equal_stats(failing);
  }
  // Destroyed servers detach: their series are gone.
  EXPECT_TRUE(server_series(config.name).empty());
  EXPECT_TRUE(server_series(failing_config.name).empty());
}

/// Every `oselm_ledger_*` gauge labeled server="<server>" in a fresh
/// snapshot of the process-wide registry, by series name.
std::map<std::string, double> ledger_series(const std::string& server) {
  std::map<std::string, double> out;
  for (const auto& series : obs::MetricsRegistry::global().snapshot().gauges) {
    if (series.name.starts_with("oselm_ledger_") &&
        series.labels == obs::Labels{{"server", server}}) {
      out[series.name] = series.value;
    }
  }
  return out;
}

/// Asserts the ledger series of `server` are its backend ledger's
/// breakdown: one series per charged category, none for the others.
void expect_ledger_series_equal_breakdown(const AsyncQServer& server) {
  const util::OpBreakdown& breakdown = server.backend().ledger().breakdown();
  const std::map<std::string, double> series = ledger_series(server.name());
  std::size_t charged = 0;
  for (std::size_t c = 0; c < util::kOpCategoryCount; ++c) {
    const auto category = static_cast<util::OpCategory>(c);
    const std::string name = "oselm_ledger_" +
                             std::string(util::op_category_name(category)) +
                             "_seconds";
    if (breakdown.get(category) == 0.0) {
      EXPECT_FALSE(series.contains(name)) << name;
      continue;
    }
    ++charged;
    ASSERT_TRUE(series.contains(name)) << name;
    EXPECT_EQ(series.at(name), breakdown.get(category)) << name;
  }
  EXPECT_GT(charged, 0u);
  EXPECT_EQ(series.size(), charged);
}

TEST(AsyncQServer, LedgerSeriesArePerServerAndPublishedAtStop) {
  // Each server exports its own backend ledger under its own label, so
  // two servers give two series rather than one process-wide sum.
  AsyncQServerConfig first_config;
  first_config.name = "ledger-series-test/a";
  AsyncQServerConfig second_config;
  second_config.name = "ledger-series-test/b";
  AsyncQServer first(make_backend("fpga-q20", backend_config(17)),
                     SimplifiedOutputModel(4, 2), first_config);
  AsyncQServer second(make_backend("fpga-q20", backend_config(18)),
                      SimplifiedOutputModel(4, 2), second_config);
  EXPECT_TRUE(first.wait(first.add_session(train_spec(180, 190, 20)))
                  .completed);
  EXPECT_TRUE(second.wait(second.add_session(train_spec(181, 191, 5)))
                  .completed);
  // Published at stop(), once the backend is quiescent.
  EXPECT_TRUE(ledger_series(first_config.name).empty());
  first.stop();
  second.stop();
  expect_ledger_series_equal_breakdown(first);
  expect_ledger_series_equal_breakdown(second);
  EXPECT_NE(ledger_series(first_config.name),
            ledger_series(second_config.name));
}

TEST(AsyncQServer, ConcurrentJoinsRacingStopNeverHangOrMiscount) {
  // Regression for the join()-racing-stop() window: joins that land
  // while stop() tears the server down must either be admitted (and then
  // retired by the stop) or rejected with a structured AdmissionError —
  // never a hang, a crash, or a lost session. TSan covers the race in CI.
  AsyncQServerConfig config;
  config.worker_threads = 4;
  config.max_live_sessions = 8;
  AsyncQServer server(make_backend("software", backend_config(41)),
                      SimplifiedOutputModel(4, 2), config);
  constexpr std::size_t kAttempts = 24;
  std::atomic<std::uint64_t> admitted{0};
  std::atomic<std::uint64_t> rejected_capacity{0};
  std::atomic<std::uint64_t> rejected_stopping{0};
  util::ThreadPool joiners(4);
  std::vector<std::future<void>> futures;
  for (std::size_t i = 0; i < kAttempts; ++i) {
    futures.push_back(joiners.submit([&server, &admitted,
                                      &rejected_capacity,
                                      &rejected_stopping, i] {
      AsyncSessionSpec spec = eval_spec(300 + i, 310 + i, 50);
      spec.session.env_id = "delay:500:ShapedCartPole-v0";
      try {
        server.add_session(spec);
        admitted.fetch_add(1);
      } catch (const AdmissionError& e) {
        if (e.reason() == AdmissionRejectReason::kCapacity) {
          rejected_capacity.fetch_add(1);
        } else {
          EXPECT_EQ(e.reason(), AdmissionRejectReason::kStopping);
          rejected_stopping.fetch_add(1);
        }
      }
    }));
  }
  std::this_thread::sleep_for(std::chrono::milliseconds(5));
  server.stop();  // races the joins above
  for (std::future<void>& f : futures) f.get();
  server.stop();  // idempotent after the race

  // Conservation: every attempt is admitted or rejected with a reason,
  // every admitted session has exactly one result, and the server's own
  // ledger agrees with the driver's.
  EXPECT_EQ(admitted + rejected_capacity + rejected_stopping, kAttempts);
  EXPECT_EQ(server.drain().size(), admitted.load());
  const AsyncServerStats stats = server.stats();
  EXPECT_EQ(stats.sessions_admitted, admitted.load());
  EXPECT_EQ(stats.sessions_retired, admitted.load());
  EXPECT_EQ(stats.admission_rejections, rejected_capacity.load());
  EXPECT_EQ(stats.stopping_rejections, rejected_stopping.load());
  EXPECT_EQ(server.live_sessions(), 0u);
}

/// CartPole wrapper whose step() throws after a fixed number of calls —
/// the "sensor disconnected mid-episode" failure.
class FlakyEnv final : public env::Environment {
 public:
  static constexpr std::size_t kNever = std::numeric_limits<std::size_t>::max();

  /// Throws from every step() after the first `fail_after` and from every
  /// reset() after the first `resets_before_failure`.
  FlakyEnv(std::uint64_t seed, std::size_t fail_after,
           std::size_t resets_before_failure = kNever)
      : inner_(env::make_environment("ShapedCartPole-v0", seed)),
        fail_after_(fail_after),
        resets_before_failure_(resets_before_failure) {}

  env::Observation reset() override {
    if (resets_++ >= resets_before_failure_) {
      throw std::runtime_error("simulator reset failed");
    }
    return inner_->reset();
  }
  env::StepResult step(std::size_t action) override {
    if (++calls_ > fail_after_) {
      throw std::runtime_error("sensor disconnected");
    }
    return inner_->step(action);
  }
  void seed(std::uint64_t seed_value) override { inner_->seed(seed_value); }
  [[nodiscard]] const env::BoxSpace& observation_space() const override {
    return inner_->observation_space();
  }
  [[nodiscard]] const env::DiscreteSpace& action_space() const override {
    return inner_->action_space();
  }
  [[nodiscard]] std::string_view name() const override { return "Flaky"; }
  [[nodiscard]] std::size_t max_episode_steps() const override {
    return inner_->max_episode_steps();
  }

 private:
  env::EnvironmentPtr inner_;
  std::size_t fail_after_;
  std::size_t resets_before_failure_;
  std::size_t calls_ = 0;
  std::size_t resets_ = 0;
};

TEST(AsyncQServer, EnvFailureRetiresTheSessionWithoutPoisoningTheRest) {
  AsyncQServer server(make_backend("software", backend_config(8)),
                      SimplifiedOutputModel(4, 2));
  AsyncSessionSpec flaky = eval_spec(30, 40, 50);
  flaky.env_factory = [](std::uint64_t seed) {
    return std::make_unique<FlakyEnv>(seed, 25);
  };
  const std::size_t failing = server.add_session(flaky);
  const std::size_t healthy = server.add_session(eval_spec(31, 41));

  const AsyncSessionResult failed = server.wait(failing);
  EXPECT_TRUE(failed.failed);
  EXPECT_FALSE(failed.completed);
  EXPECT_NE(failed.error.find("sensor disconnected"), std::string::npos);

  const AsyncSessionResult ok = server.wait(healthy);
  EXPECT_TRUE(ok.completed);
  EXPECT_FALSE(ok.failed);

  // The batch thread survived: a session admitted AFTER the failure is
  // served to completion.
  const AsyncSessionResult after =
      server.wait(server.add_session(eval_spec(32, 42)));
  EXPECT_TRUE(after.completed);
  EXPECT_EQ(server.stats().sessions_retired, 3u);
}

TEST(AsyncQServer, TrainSessionEnvFailureAlsoRetiresCleanly) {
  AsyncQServer server(make_backend("software", backend_config(9)),
                      SimplifiedOutputModel(4, 2));
  AsyncSessionSpec flaky;
  flaky.mode = AsyncSessionMode::kTrain;
  flaky.session.env_seed = 50;
  flaky.session.agent_seed = 60;
  flaky.session.trainer.max_episodes = 100;
  flaky.session.trainer.reset_interval = 0;
  flaky.env_factory = [](std::uint64_t seed) {
    // Fails after the Eq. 7/8 buffer has filled, mid sequential training.
    return std::make_unique<FlakyEnv>(seed, 3 * kHidden);
  };
  const AsyncSessionResult failed =
      server.wait(server.add_session(flaky));
  EXPECT_TRUE(failed.failed);
  EXPECT_NE(failed.error.find("sensor disconnected"), std::string::npos);
  // Co-tenant trained on the same backend afterwards — not poisoned.
  AsyncSessionSpec train = flaky;
  train.env_factory = nullptr;
  train.session.trainer.max_episodes = 5;
  EXPECT_TRUE(server.wait(server.add_session(train)).completed);
}

TEST(AsyncQServer, TrainSessionEnvResetFailureRetiresWithItsMessage) {
  // reset() throws on the first episode, and on the episode that follows
  // a §4.3 weight reset (reset_interval 3: the fourth reset() call). The
  // session retires kEnvError with the message; co-tenants finish.
  for (const std::size_t good_resets : {std::size_t{0}, std::size_t{3}}) {
    AsyncQServerConfig config;
    config.worker_threads = 2;
    AsyncQServer server(make_backend("software", backend_config(12)),
                        SimplifiedOutputModel(4, 2), config);
    AsyncSessionSpec flaky = train_spec(50, 60, 100);
    flaky.session.trainer.reset_interval = 3;
    flaky.session.trainer.solved_threshold = 1e9;
    flaky.env_factory = [good_resets](std::uint64_t seed) {
      return std::make_unique<FlakyEnv>(seed, FlakyEnv::kNever, good_resets);
    };
    const std::size_t failing = server.add_session(flaky);
    std::vector<std::size_t> tenants;
    for (std::size_t i = 0; i < 2; ++i) {
      tenants.push_back(server.add_session(train_spec(70 + i, 80 + i, 8)));
    }

    const AsyncSessionResult failed = server.wait(failing);
    EXPECT_EQ(failed.cause, SessionEndCause::kEnvError) << good_resets;
    EXPECT_TRUE(failed.failed);
    EXPECT_FALSE(failed.completed);
    EXPECT_NE(failed.error.find("simulator reset failed"), std::string::npos)
        << failed.error;
    EXPECT_EQ(failed.train.episodes, good_resets);
    EXPECT_EQ(failed.train.resets, good_resets == 0 ? 0u : 1u);
    for (const std::size_t id : tenants) {
      const AsyncSessionResult tenant = server.wait(id);
      EXPECT_TRUE(tenant.completed) << good_resets;
      EXPECT_FALSE(tenant.failed) << tenant.error;
    }
    EXPECT_EQ(server.stats().env_failures, 1u);
  }
}

TEST(AsyncQServer, StopWithInFlightSlowSessionsJoinsCleanly) {
  // Sessions sleeping inside env steps while stop() lands: in-flight
  // requests must be served, every session retired at its next step
  // boundary, and all threads joined (ASan/UBSan and TSan cover the
  // teardown races in CI).
  AsyncQServerConfig config;
  config.worker_threads = 4;
  AsyncQServer server(make_backend("software", backend_config(10)),
                      SimplifiedOutputModel(4, 2), config);
  for (std::size_t i = 0; i < 4; ++i) {
    AsyncSessionSpec spec = eval_spec(70 + i, 80 + i, 100000);
    spec.session.env_id = "delay:1000:ShapedCartPole-v0";
    server.add_session(spec);
  }
  std::this_thread::sleep_for(std::chrono::milliseconds(30));
  server.stop();
  EXPECT_EQ(server.live_sessions(), 0u);
  const std::vector<AsyncSessionResult> results = server.drain();
  ASSERT_EQ(results.size(), 4u);
  for (const AsyncSessionResult& r : results) {
    EXPECT_FALSE(r.completed);  // interrupted, not finished
    EXPECT_FALSE(r.failed);
  }
}

TEST(AsyncQServer, DestructionWithoutStopIsAGracefulStop) {
  {
    AsyncQServer server(make_backend("software", backend_config(11)),
                        SimplifiedOutputModel(4, 2));
    AsyncSessionSpec spec = eval_spec(90, 91, 100000);
    spec.session.env_id = "delay:500:ShapedCartPole-v0";
    server.add_session(spec);
    // Destructor runs with the session mid-flight.
  }
  SUCCEED();
}

TEST(AsyncQServer, DestroyedMidStepOnASharedPoolEndsEverySessionOnce) {
  // A shared pool outlives the servers on it. Each round destroys a
  // server while its sessions sleep inside env steps: every session must
  // retire exactly once, and no worker may touch the dead server after
  // stop() returned (ASan/UBSan and TSan run this in CI).
  const auto pool = std::make_shared<util::ThreadPool>(4);
  for (std::size_t round = 0; round < 50; ++round) {
    std::mutex ends_mutex;
    std::map<std::size_t, int> ends;
    std::vector<std::size_t> admitted;
    {
      AsyncQServerConfig config;
      config.max_batch = 4;
      config.on_retire = [&](AsyncSessionResult&& result) {
        const std::scoped_lock lk(ends_mutex);
        ++ends[result.id];
      };
      AsyncQServer server(make_backend("software", backend_config(12)),
                          SimplifiedOutputModel(4, 2), config, pool);
      for (std::size_t i = 0; i < 6; ++i) {
        AsyncSessionSpec spec = eval_spec(100 * round + i, 7 + i, 100000);
        spec.session.env_id = "delay:300:ShapedCartPole-v0";
        admitted.push_back(server.add_session(spec));
      }
      // Land the teardown at varying points of the sessions' steps.
      std::this_thread::sleep_for(
          std::chrono::microseconds(150 * (round % 4)));
    }
    ASSERT_EQ(ends.size(), admitted.size()) << "round " << round;
    for (const std::size_t id : admitted) {
      EXPECT_EQ(ends[id], 1) << "round " << round << " session " << id;
    }
  }
}

TEST(AsyncQServer, CoDrainedSessionsDoNotQueueBehindASleepingOne) {
  // Every lockstep drain carries all four sessions, and each resumed
  // session then sleeps 20 ms in its env step. A drain's sessions take
  // one lane each, so the sleeps overlap; resumed one after another (a
  // whole drain inside one pool task) they would add up to 20 ms times
  // the steps of all four sessions.
  constexpr double kStepSleepMs = 20.0;
  AsyncQServer server(make_backend("software", backend_config(16)),
                      SimplifiedOutputModel(4, 2), lockstep_config(4));
  std::vector<AsyncSessionSpec> specs;
  for (std::size_t i = 0; i < 4; ++i) {
    AsyncSessionSpec spec = eval_spec(120 + i, 130 + i, 1);
    spec.session.env_id = "delay:20000:ShapedCartPole-v0";
    spec.session.agent.epsilon_greedy = 1.0;  // every step is served
    spec.session.trainer.episode_step_cap = 8;
    specs.push_back(spec);
  }
  const auto start = std::chrono::steady_clock::now();
  add_cohort(server, specs);
  std::size_t steps = 0;
  for (const AsyncSessionResult& r : server.drain()) {
    EXPECT_TRUE(r.completed) << r.id;
    for (const double s : r.train.episode_steps) {
      steps += static_cast<std::size_t>(s);
    }
  }
  const double elapsed_ms = std::chrono::duration<double, std::milli>(
                                std::chrono::steady_clock::now() - start)
                                .count();
  ASSERT_GE(steps, 4u);
  const double serial_ms = kStepSleepMs * static_cast<double>(steps);
  EXPECT_LT(elapsed_ms, 0.5 * serial_ms)
      << steps << " steps; co-drained sessions slept one after another";
}

TEST(AsyncQServer,
     DestroyedMidDrainWithMoreSessionsThanLanesEndsEverySessionOnce) {
  // Drains of up to eight sessions go back to a shared 2-lane pool, so a
  // lane claims several sessions from one list in turn. Each round
  // destroys the server while lanes are still claiming: every session
  // must retire exactly once, and no lane may touch the dead server
  // (ASan/UBSan and TSan run this in CI).
  const auto pool = std::make_shared<util::ThreadPool>(2);
  for (std::size_t round = 0; round < 50; ++round) {
    std::mutex ends_mutex;
    std::map<std::size_t, int> ends;
    std::vector<std::size_t> admitted;
    {
      AsyncQServerConfig config;
      config.max_batch = 8;
      config.on_retire = [&](AsyncSessionResult&& result) {
        const std::scoped_lock lk(ends_mutex);
        ++ends[result.id];
      };
      AsyncQServer server(make_backend("software", backend_config(17)),
                          SimplifiedOutputModel(4, 2), config, pool);
      for (std::size_t i = 0; i < 8; ++i) {
        AsyncSessionSpec spec = eval_spec(100 * round + i, 9 + i, 100000);
        spec.session.env_id = "delay:300:ShapedCartPole-v0";
        admitted.push_back(server.add_session(spec));
      }
      // Land the teardown at varying points of the lanes' lists.
      std::this_thread::sleep_for(
          std::chrono::microseconds(150 * (round % 8)));
    }
    ASSERT_EQ(ends.size(), admitted.size()) << "round " << round;
    for (const std::size_t id : admitted) {
      EXPECT_EQ(ends[id], 1) << "round " << round << " session " << id;
    }
  }
}

#if OSELM_CONTRACTS_ENABLED
TEST(AsyncQServerDeathTest, StopFromAWorkerOfItsOwnPoolAborts) {
  // stop() waits for sessions that need a pool lane to retire; run on one
  // of the pool's own lanes it could wait forever, so it aborts instead.
  ::testing::GTEST_FLAG(death_test_style) = "threadsafe";
  EXPECT_DEATH(
      {
        const auto pool = std::make_shared<util::ThreadPool>(2);
        AsyncQServer server(make_backend("software", backend_config(14)),
                            SimplifiedOutputModel(4, 2), {}, pool);
        pool->submit([&server] { server.stop(); }).get();
      },
      "contract failed: !pool_->on_worker_thread\\(\\)");
}
#endif  // OSELM_CONTRACTS_ENABLED

TEST(AsyncQServer, EvaluationNeverMutatesTheBackend) {
  OsElmQBackendPtr backend = make_backend("software", backend_config(13));
  prime_backend(*backend, 5);
  const OsElmQBackend* raw = backend.get();
  AsyncQServer server(std::move(backend), SimplifiedOutputModel(4, 2));
  for (std::size_t i = 0; i < 3; ++i) {
    server.add_session(eval_spec(120 + i, 130 + i));
  }
  server.drain();
  EXPECT_TRUE(raw->initialized());
  const AsyncServerStats stats = server.stats();
  EXPECT_EQ(stats.train_updates, 0u);
  EXPECT_EQ(stats.init_trains, 0u);
  EXPECT_GT(stats.steps, 0u);
}

TEST(AsyncQServer, TelemetryCountsAndJsonAreCoherent) {
  AsyncQServerConfig config;
  config.max_batch = 4;
  config.max_wait_us = 2000;
  config.worker_threads = 2;
  AsyncQServer server(make_backend("software", backend_config(14)),
                      SimplifiedOutputModel(4, 2), config);
  for (std::size_t i = 0; i < 4; ++i) {
    server.add_session(eval_spec(140 + i, 150 + i));
  }
  const std::vector<AsyncSessionResult> results = server.drain();
  const AsyncServerStats stats = server.stats();

  std::uint64_t session_steps = 0;
  for (const AsyncSessionResult& r : results) {
    session_steps += r.train.total_steps;
    EXPECT_EQ(r.step_latency_us.count(), r.train.total_steps) << r.id;
    EXPECT_GT(r.step_latency_us.quantile(0.5), 0.0) << r.id;
  }
  EXPECT_EQ(stats.steps, session_steps);
  // Every step latency landed in the merged histogram at retirement.
  EXPECT_EQ(stats.step_latency_us.count(), session_steps);
  // Each greedy evaluation is one row of some coalesced batch.
  EXPECT_GE(stats.batch_rows, stats.batches);
  EXPECT_LE(stats.mean_batch_rows(),
            static_cast<double>(config.max_batch));
  EXPECT_EQ(stats.batch_rows_hist.count(), stats.batches);
  EXPECT_EQ(stats.sessions_admitted, 4u);
  EXPECT_EQ(stats.sessions_retired, 4u);

  const std::string json = stats.to_json();
  for (const char* key :
       {"\"steps\"", "\"batches\"", "\"mean_batch_rows\"",
        "\"step_latency_us\"", "\"batch_rows_hist\"", "\"p95\""}) {
    EXPECT_NE(json.find(key), std::string::npos) << key << "\n" << json;
  }
}

TEST(AsyncQServer, DrainReturnsResultsInAdmissionOrder) {
  AsyncQServer server(make_backend("software", backend_config(15)),
                      SimplifiedOutputModel(4, 2));
  std::vector<std::size_t> ids;
  for (std::size_t i = 0; i < 3; ++i) {
    AsyncSessionSpec spec = eval_spec(160 + i, 170 + i, 2 + i);
    ids.push_back(server.add_session(spec));
  }
  const std::vector<AsyncSessionResult> results = server.drain();
  ASSERT_EQ(results.size(), 3u);
  for (std::size_t i = 0; i < 3; ++i) {
    EXPECT_EQ(results[i].id, ids[i]);
    EXPECT_EQ(results[i].train.episodes, 2 + i);
  }
  // Results are delivered exactly once: a second drain has nothing left
  // and re-waiting a claimed session is an error (this is what keeps a
  // long-lived server's memory bounded).
  EXPECT_TRUE(server.drain().empty());
  EXPECT_THROW((void)server.wait(ids[0]), std::logic_error);
}

TEST(AsyncQServer, WaitThatLosesItsResultToAClaimThrows) {
  // A wait() already blocked when drain() claims the result throws
  // instead of blocking forever; whichever claims first, it is claimed
  // exactly once.
  {
    AsyncQServer server(make_backend("software", backend_config(15)),
                        SimplifiedOutputModel(4, 2));
    AsyncSessionSpec spec = eval_spec(160, 170, 2);
    spec.session.env_id = "delay:500:ShapedCartPole-v0";
    const std::size_t id = server.add_session(spec);
    auto waiter = std::async(std::launch::async, [&server, id] {
      try {
        return server.wait(id).id == id;
      } catch (const std::logic_error&) {
        return false;
      }
    });
    const std::size_t drained = server.drain().size();
    EXPECT_EQ(drained + (waiter.get() ? 1u : 0u), 1u);
  }
  // In on_retire mode the callback is the claim.
  std::atomic<std::size_t> delivered{0};
  AsyncQServerConfig config;
  config.on_retire = [&delivered](AsyncSessionResult&&) { ++delivered; };
  AsyncQServer server(make_backend("software", backend_config(15)),
                      SimplifiedOutputModel(4, 2), config);
  const std::size_t id = server.add_session(eval_spec(161, 171, 2));
  EXPECT_THROW((void)server.wait(id), std::logic_error);
  EXPECT_EQ(delivered.load(), 1u);
  EXPECT_TRUE(server.drain().empty());
}

TEST(AsyncQServer, EmptyEpisodeBudgetRetiresImmediately) {
  AsyncQServer server(make_backend("software", backend_config(16)),
                      SimplifiedOutputModel(4, 2));
  const AsyncSessionResult result =
      server.wait(server.add_session(eval_spec(180, 181, 0)));
  EXPECT_TRUE(result.completed);
  EXPECT_EQ(result.train.episodes, 0u);
  EXPECT_EQ(result.train.total_steps, 0u);
}

TEST(AsyncQServer, SharedTrainingSessionsAllRetireAndTrainTheBackend) {
  // Co-tenant training is scheduling-dependent by contract, but the
  // lifecycle invariants hold: one init_train on the shared network,
  // sequential updates from many sessions, everyone retires.
  AsyncQServerConfig config;
  config.worker_threads = 4;
  OsElmQBackendPtr backend = make_backend("software", backend_config(17));
  const OsElmQBackend* raw = backend.get();
  AsyncQServer server(std::move(backend), SimplifiedOutputModel(4, 2),
                      config);
  for (std::size_t i = 0; i < 4; ++i) {
    AsyncSessionSpec spec;
    spec.mode = AsyncSessionMode::kTrain;
    spec.session.env_seed = 200 + i;
    spec.session.agent_seed = 210 + i;
    spec.session.trainer.max_episodes = 15;
    spec.session.trainer.solved_threshold = 1e9;
    spec.session.trainer.reset_interval = 0;  // shared net: no resets
    server.add_session(spec);
  }
  const std::vector<AsyncSessionResult> results = server.drain();
  ASSERT_EQ(results.size(), 4u);
  for (const AsyncSessionResult& r : results) {
    EXPECT_TRUE(r.completed);
    EXPECT_EQ(r.train.episodes, 15u);
  }
  EXPECT_TRUE(raw->initialized());
  const AsyncServerStats stats = server.stats();
  EXPECT_EQ(stats.init_trains, 1u);
  EXPECT_GT(stats.train_updates, 0u);
}

TEST(AsyncQServer, RunExclusiveTouchesTheBackendAndUnblocksBuffering) {
  AsyncQServer server(make_backend("software", backend_config(23)),
                      SimplifiedOutputModel(4, 2));
  EXPECT_FALSE(server.backend().initialized());
  // Priming through run_exclusive must also refresh the worker-visible
  // initialized mirror — sessions admitted afterwards train sequentially
  // instead of buffering toward their own init chunk.
  server.run_exclusive(
      [](OsElmQBackend& backend) { prime_backend(backend, 99); });
  EXPECT_TRUE(server.backend().initialized());

  AsyncSessionSpec train;
  train.mode = AsyncSessionMode::kTrain;
  train.session.env_seed = 7;
  train.session.agent_seed = 8;
  train.session.trainer.max_episodes = 5;
  train.session.trainer.solved_threshold = 1e9;
  train.session.trainer.reset_interval = 0;
  const AsyncSessionResult result = server.wait(server.add_session(train));
  EXPECT_TRUE(result.completed);
  const AsyncServerStats stats = server.stats();
  EXPECT_EQ(stats.init_trains, 0u) << "session re-ran its own init chunk";
  EXPECT_GT(stats.train_updates, 0u);
  EXPECT_EQ(server.train_update_count(), stats.train_updates);
}

TEST(AsyncQServer, RunExclusivePropagatesExceptionsAndWorksAfterStop) {
  AsyncQServer server(make_backend("software", backend_config(29)),
                      SimplifiedOutputModel(4, 2));
  EXPECT_THROW(server.run_exclusive([](OsElmQBackend&) {
                 throw std::runtime_error("sync fault");
               }),
               std::runtime_error);
  // The batch thread survives a throwing callback.
  const AsyncSessionResult ok = server.wait(server.add_session(
      eval_spec(60, 61, 2)));
  EXPECT_TRUE(ok.completed);

  server.stop();
  // After stop() the callback runs inline on the caller — state sync and
  // post-mortem inspection still work against the quiescent backend.
  bool ran = false;
  server.run_exclusive([&ran](OsElmQBackend& backend) {
    prime_backend(backend, 99);
    ran = true;
  });
  EXPECT_TRUE(ran);
  EXPECT_TRUE(server.backend().initialized());
}

TEST(AsyncQServer, ResultsCarryTheConfiguredServerName) {
  AsyncQServerConfig config;
  config.name = "edge-0";
  AsyncQServer server(make_backend("software", backend_config(31)),
                      SimplifiedOutputModel(4, 2), config);
  EXPECT_EQ(server.name(), "edge-0");
  const AsyncSessionResult result =
      server.wait(server.add_session(eval_spec(70, 71, 2)));
  EXPECT_EQ(result.served_by, "edge-0");
}

TEST(AsyncQServer, PerSessionBreakdownCarriesOnlyEnvironmentTime) {
  // Backend time is shared and lives on the backend's ledger; a session's
  // TrainResult accounts its own environment stepping only.
  const LockstepRun run =
      run_lockstep("software", 77, {train_spec(500, 120, 5)});
  const util::OpBreakdown& session = run.sessions.at(0).train.breakdown;
  EXPECT_GT(session.get(util::OpCategory::kEnvironment), 0.0);
  EXPECT_DOUBLE_EQ(session.total_excluding_env(), 0.0);
  EXPECT_GT(run.ledger.invocations(util::OpCategory::kSeqTrain), 0u);
}

TEST(AsyncQServer, UnrepresentableLingerMeansNoDeadline) {
  // max_wait_us = UINT64_MAX must linger until the batch is full, never
  // fire at once. Two sessions with identical seeds walk identical
  // trajectories, so with no deadline every batch carries both rows even
  // though one of them always arrives 200 us after the other.
  OsElmQBackendPtr backend = make_backend("software", backend_config(2024));
  prime_backend(*backend, 77);
  AsyncQServerConfig config;
  config.max_batch = 2;
  config.max_wait_us = std::numeric_limits<std::uint64_t>::max();
  AsyncQServer server(std::move(backend), SimplifiedOutputModel(4, 2),
                      config);
  AsyncSessionSpec late = eval_spec(913, 37, 3);
  late.session.env_id = "delay:200:ShapedCartPole-v0";
  add_cohort(server, {eval_spec(913, 37, 3), late});
  const std::vector<AsyncSessionResult> results = server.drain();
  ASSERT_EQ(results.size(), 2u);
  EXPECT_EQ(Trajectory(results[0].train), Trajectory(results[1].train));
  const AsyncServerStats stats = server.stats();
  ASSERT_GT(stats.batches, 0u);
  EXPECT_EQ(stats.batch_rows_hist.min(), 2.0);
  EXPECT_EQ(stats.batch_rows, 2 * stats.batches);
}

TEST(AsyncQServer, RetirementWakesTheBatchThread) {
  // A retirement can complete batch_full() for a co-tenant already
  // waiting in the ready queue; the batch thread must serve it at once,
  // not after the linger. The slow session's last slice ends in a 2 ms
  // env step, so the fast one is usually pending when it retires.
  AsyncQServerConfig config;
  config.max_batch = 2;
  config.max_wait_us = 10'000'000;
  AsyncQServer server(make_backend("software", backend_config(2025)),
                      SimplifiedOutputModel(4, 2), config);
  AsyncSessionSpec slow = eval_spec(10, 20, 1);
  slow.session.env_id = "delay:2000:ShapedCartPole-v0";
  const auto start = std::chrono::steady_clock::now();
  add_cohort(server, {slow, eval_spec(11, 21, 6)});
  for (const AsyncSessionResult& r : server.drain()) {
    EXPECT_TRUE(r.completed) << r.id;
  }
  const double seconds = std::chrono::duration<double>(
                             std::chrono::steady_clock::now() - start)
                             .count();
  EXPECT_LT(seconds, 3.0) << "a retirement left its co-tenant lingering";
}

/// The achieved batch linger of `server` from a fresh snapshot of the
/// process-wide registry (empty when it has none).
util::LatencyHistogram linger_series(const std::string& server) {
  for (const auto& series :
       obs::MetricsRegistry::global().snapshot().histograms) {
    if (series.name == "oselm_async_batch_linger_us" &&
        series.labels == obs::Labels{{"server", server}}) {
      return series.value;
    }
  }
  return {};
}

TEST(AsyncQServer, CoTenantsStuckInSlowEnvStepsAreServedWithoutLingering) {
  // Two greedy sessions spend 12 ms and 20 ms in every env.step, longer
  // than the 10 ms linger, so a lone request cannot gain a co-tenant by
  // waiting. Only the drain decided before any env step was measured
  // lingers (until the slower session's first step ends, ~8 ms); every
  // later partial batch is served at once.
  obs::set_timing_enabled(true);
  AsyncQServerConfig config;
  config.name = "slow-co-tenants";
  config.max_batch = 2;
  config.max_wait_us = 10'000;
  OsElmQBackendPtr backend = make_backend("software", backend_config(2026));
  prime_backend(*backend, 78);
  AsyncQServer server(std::move(backend), SimplifiedOutputModel(4, 2),
                      config);
  std::vector<AsyncSessionSpec> specs;
  for (const char* env_id :
       {"delay:12000:ShapedCartPole-v0", "delay:20000:ShapedCartPole-v0"}) {
    AsyncSessionSpec spec = eval_spec(30 + specs.size(), 40, 1);
    spec.session.env_id = env_id;
    spec.session.agent.epsilon_greedy = 1.0;  // every step parks
    spec.session.trainer.episode_step_cap = 12;
    specs.push_back(spec);
  }
  add_cohort(server, specs);
  for (const AsyncSessionResult& r : server.drain()) {
    EXPECT_TRUE(r.completed) << r.id;
  }
  server.stop();
  obs::set_timing_enabled(false);

  const AsyncServerStats stats = server.stats();
  EXPECT_GE(stats.lingers_skipped, 3u);
  const util::LatencyHistogram linger = linger_series(config.name);
  EXPECT_GE(linger.count(), 4u);
  // Lingering for the co-tenant would put the median near 8 ms.
  EXPECT_LT(linger.quantile(0.5), 0.25 * config.max_wait_us)
      << linger.to_json();
}

TEST(AsyncQServer, ZeroLatencyCoTenantsStillCoalesce) {
  // CartPole steps take microseconds, far below the linger, so a partial
  // batch keeps waiting for its co-tenants and batches coalesce.
  AsyncQServerConfig config;
  config.max_batch = 4;
  config.max_wait_us = 50'000;
  config.worker_threads = 2;
  AsyncQServer server(make_backend("software", backend_config(2027)),
                      SimplifiedOutputModel(4, 2), config);
  for (std::size_t i = 0; i < 4; ++i) {
    server.add_session(eval_spec(170 + i, 180 + i));
  }
  for (const AsyncSessionResult& r : server.drain()) {
    EXPECT_TRUE(r.completed) << r.id;
  }
  const AsyncServerStats stats = server.stats();
  EXPECT_GT(stats.mean_batch_rows(), 1.0);
  EXPECT_EQ(stats.lingers_skipped, 0u);
}

TEST(LockstepServing, SessionsEndIndependently) {
  // Sessions with different budgets retire at different drains; every
  // retirement re-arms the barrier for the survivors, which keep being
  // served (with no linger deadline a missed wake would hang here).
  const LockstepRun run = run_lockstep(
      "software", 66, {train_spec(400, 110, 3), train_spec(401, 111, 20)});
  ASSERT_EQ(run.sessions.size(), 2u);
  EXPECT_TRUE(run.sessions[0].completed);
  EXPECT_TRUE(run.sessions[1].completed);
  EXPECT_EQ(run.sessions[0].train.episodes, 3u);
  EXPECT_EQ(run.sessions[1].train.episodes, 20u);
}

TEST(LockstepServing, SharedBackendInitTrainsOnceAcrossSessions) {
  // With N sessions buffering toward one shared network, exactly one
  // session's Eq. 7/8 chunk initializes it; everyone else switches
  // straight to sequential updates against the initialized core.
  std::vector<AsyncSessionSpec> specs;
  for (std::size_t i = 0; i < 4; ++i) {
    specs.push_back(train_spec(200 + i, 70 + i, 15));
  }
  const LockstepRun run = run_lockstep("software", 44, specs);
  EXPECT_EQ(run.stats.init_trains, 1u);
  // kInitTrain counts the Eq. 7/8 solve plus its TD-target evaluations
  // (at most 2 per buffered sample): one session's chunk bounds it at
  // 1 + 2 * N-tilde. Four independent init trainings would blow past it.
  const std::uint64_t init_counts =
      run.ledger.invocations(util::OpCategory::kInitTrain);
  EXPECT_GE(init_counts, 1u);
  EXPECT_LE(init_counts, 1u + 2u * kHidden);
  EXPECT_GT(run.ledger.invocations(util::OpCategory::kSeqTrain), 0u);
}

TEST(LockstepServing, CoalescesAcrossSessions) {
  constexpr std::size_t kSessions = 6;
  std::vector<AsyncSessionSpec> specs;
  for (std::size_t i = 0; i < kSessions; ++i) {
    specs.push_back(train_spec(300 + i, 90 + i, 15));
  }
  const LockstepRun run = run_lockstep("software", 55, specs);
  EXPECT_GT(run.stats.batches, 0u);
  // With 6 concurrent sessions at epsilon_1 = 0.7, batches must actually
  // coalesce (mean well above one state per call)...
  EXPECT_GT(run.stats.mean_batch_rows(), 1.5);
  // ... and can never exceed the session count.
  EXPECT_LE(run.stats.mean_batch_rows(), static_cast<double>(kSessions));
}

}  // namespace
}  // namespace oselm::rl
