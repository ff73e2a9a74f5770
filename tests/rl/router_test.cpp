// rl::RouterQServer — the multi-replica router tier over AsyncQServer.
//
// Load-bearing properties:
//   * evaluation determinism across placement: a fixed-seed kEvaluate
//     session produces a bit-identical trajectory on a bare AsyncQServer,
//     on a 1-replica router, and on EVERY replica of a 4-replica router
//     (identically-primed fleets share one Q surface);
//   * session affinity and spillover: equal keys co-locate on the hashed
//     preferred replica, a full preferred replica spills to the least-
//     loaded one, and only a fully-saturated fleet rejects admission;
//   * failure isolation: a session failing on one replica never disturbs
//     sessions on another;
//   * training sync: sync_every_updates = 0 never exchanges state,
//     N > 0 averages the replicas' learned state and leaves every
//     replica with the identical imported average; a replacement never
//     makes a round fire early;
//   * one worker pool per fleet: a replacement starts no worker threads,
//     and an incarnation destroyed while its sessions sleep mid-step ends
//     each of them exactly once.
#include "rl/router.hpp"

#include <gtest/gtest.h>

#include <algorithm>
#include <atomic>
#include <chrono>
#include <filesystem>
#include <future>
#include <iterator>
#include <limits>
#include <map>
#include <memory>
#include <set>
#include <stdexcept>
#include <string>
#include <thread>
#include <vector>

#include "env/registry.hpp"
#include "obs/metrics.hpp"
#include "rl/backend_registry.hpp"
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

/// Eq. 8 initial training on deterministic random data; priming every
/// replica with the same seed gives the whole fleet one Q surface.
void prime_backend(OsElmQBackend& backend, std::uint64_t seed) {
  util::Rng rng(seed);
  const std::size_t rows = backend.hidden_units();
  linalg::MatD x(rows, backend.input_dim());
  linalg::MatD t(rows, 1);
  rng.fill_uniform(x.storage(), -1.0, 1.0);
  rng.fill_uniform(t.storage(), -1.0, 1.0);
  backend.init_train(x, t);
}

RouterConfig router_config(const std::string& backend_id,
                           std::size_t replicas,
                           std::uint64_t backend_seed = 2024) {
  RouterConfig config;
  config.replicas = replicas;
  config.backend_id = backend_id;
  config.backend = backend_config(backend_seed);
  config.server.worker_threads = 2;
  config.server.max_batch = 8;
  config.server.max_wait_us = 50;
  return config;
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

AsyncSessionSpec train_spec(std::uint64_t env_seed, std::uint64_t agent_seed,
                            std::size_t episodes = 25) {
  AsyncSessionSpec spec = eval_spec(env_seed, agent_seed, episodes);
  spec.mode = AsyncSessionMode::kTrain;
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

/// An affinity key whose FNV-1a hash lands on the wanted replica.
std::string key_for_replica(const RouterQServer& router, std::size_t want) {
  for (std::size_t i = 0; i < 10'000; ++i) {
    std::string key = "session-key-" + std::to_string(i);
    if (router.preferred_replica(key) == want) return key;
  }
  ADD_FAILURE() << "no key hashed to replica " << want;
  return {};
}

class PerBackend : public ::testing::TestWithParam<std::string> {};

TEST_P(PerBackend, EvalTrajectoryIsBitIdenticalAcrossPlacementAndFleetSize) {
  const std::string backend_id = GetParam();
  const auto prime_all = [](RouterQServer& router) {
    router.run_exclusive_on_all(
        [](OsElmQBackend& backend) { prime_backend(backend, 77); });
  };

  // Reference: a bare single-replica fleet.
  Trajectory reference = [&] {
    RouterQServer router(router_config(backend_id, 1),
                         SimplifiedOutputModel(4, 2));
    prime_all(router);
    const std::size_t id = router.add_session({eval_spec(913, 37), "any"});
    const AsyncSessionResult result = router.wait(id);
    EXPECT_TRUE(result.completed);
    EXPECT_FALSE(result.failed);
    EXPECT_EQ(result.served_by, "router/r0");
    return Trajectory(result.train);
  }();
  ASSERT_EQ(reference.episodes, 6u);
  ASSERT_GT(reference.total_steps, 0u);

  // The same probe pinned (via affinity key) to EACH replica of a
  // 4-replica fleet, with co-tenants everywhere — placement must not
  // change a single step of the trajectory.
  RouterQServer router(router_config(backend_id, 4),
                       SimplifiedOutputModel(4, 2));
  prime_all(router);
  for (std::size_t target = 0; target < 4; ++target) {
    const std::string key = key_for_replica(router, target);
    RouterSessionSpec probe{eval_spec(913, 37), key};
    const std::size_t id = router.add_session(probe);
    for (std::size_t i = 0; i < 3; ++i) {  // co-tenants on every replica
      router.add_session({eval_spec(400 + i, 90 + i, 4), ""});
    }
    const AsyncSessionResult result = router.wait(id);
    EXPECT_TRUE(result.completed);
    EXPECT_EQ(result.served_by,
              "router/r" + std::to_string(target))
        << "affinity placement broke";
    EXPECT_EQ(Trajectory(result.train), reference)
        << "replica " << target << " served a different trajectory";
    router.drain();
  }
}

TEST_P(PerBackend, EqualAffinityKeysColocateOnThePreferredReplica) {
  const std::string backend_id = GetParam();
  RouterQServer router(router_config(backend_id, 4),
                       SimplifiedOutputModel(4, 2));
  const std::string key = key_for_replica(router, 2);
  ASSERT_EQ(router.preferred_replica(key), 2u);  // mapping is stable

  const std::size_t a = router.add_session({eval_spec(1, 2, 2), key});
  const std::size_t b = router.add_session({eval_spec(3, 4, 2), key});
  const AsyncSessionResult ra = router.wait(a);
  const AsyncSessionResult rb = router.wait(b);
  EXPECT_EQ(ra.served_by, "router/r2");
  EXPECT_EQ(rb.served_by, "router/r2");
  EXPECT_EQ(router.stats().spillovers, 0u);
}

TEST(RouterQServer, SpilloverPlacesOnLeastLoadedWhenPreferredIsFull) {
  RouterConfig config = router_config("software", 2);
  config.server.max_live_sessions = 2;
  RouterQServer router(config, SimplifiedOutputModel(4, 2));
  const std::string key = key_for_replica(router, 0);
  const std::string preferred_name = "router/r0";

  // Slow sessions with huge budgets keep replica 0 pinned at its cap
  // while the spillover candidate arrives.
  AsyncSessionSpec slow = eval_spec(10, 20, 100'000);
  slow.session.env_id = "delay:3000:ShapedCartPole-v0";
  const std::size_t s1 = router.add_session({slow, key});
  slow.session.env_seed = 11;
  const std::size_t s2 = router.add_session({slow, key});
  slow.session.env_seed = 12;
  const std::size_t s3 = router.add_session({slow, key});  // must spill

  RouterStats stats = router.stats();
  EXPECT_EQ(stats.sessions_admitted, 3u);
  EXPECT_EQ(stats.spillovers, 1u);
  EXPECT_EQ(stats.placement_rejections, 0u);

  router.stop();  // retires the unbounded sessions at a step boundary
  EXPECT_EQ(router.wait(s1).served_by, preferred_name);
  EXPECT_EQ(router.wait(s2).served_by, preferred_name);
  EXPECT_EQ(router.wait(s3).served_by, "router/r1");
}

TEST(RouterQServer, AdmissionRejectsOnlyWhenEveryReplicaIsAtCap) {
  RouterConfig config = router_config("software", 2);
  config.server.max_live_sessions = 1;
  RouterQServer router(config, SimplifiedOutputModel(4, 2));
  const std::string key = key_for_replica(router, 1);

  AsyncSessionSpec slow = eval_spec(10, 20, 100'000);
  slow.session.env_id = "delay:3000:ShapedCartPole-v0";
  const std::size_t s1 = router.add_session({slow, key});
  slow.session.env_seed = 11;
  const std::size_t s2 = router.add_session({slow, key});  // spills to r0
  slow.session.env_seed = 12;
  try {
    router.add_session({slow, key});
    FAIL() << "expected a fleet-full rejection";
  } catch (const AdmissionError& e) {
    EXPECT_EQ(e.reason(), AdmissionRejectReason::kCapacity);
    EXPECT_NE(std::string(e.what()).find("admission rejected"),
              std::string::npos)
        << e.what();
  }

  RouterStats stats = router.stats();
  EXPECT_EQ(stats.sessions_admitted, 2u);
  EXPECT_EQ(stats.spillovers, 1u);
  EXPECT_EQ(stats.placement_rejections, 1u);
  EXPECT_EQ(stats.stopping_rejections, 0u);

  router.stop();
  EXPECT_EQ(router.wait(s1).served_by, "router/r1");
  EXPECT_EQ(router.wait(s2).served_by, "router/r0");
}

class FlakyEnv final : public env::Environment {
 public:
  FlakyEnv(std::uint64_t seed, std::size_t fail_after)
      : inner_(env::make_environment("ShapedCartPole-v0", seed)),
        fail_after_(fail_after) {}

  env::Observation reset() override { return inner_->reset(); }
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
  std::size_t calls_ = 0;
};

TEST(RouterQServer, SessionFailureOnOneReplicaLeavesTheOthersServing) {
  RouterQServer router(router_config("software", 2),
                       SimplifiedOutputModel(4, 2));
  AsyncSessionSpec flaky = eval_spec(30, 40, 50);
  flaky.env_factory = [](std::uint64_t seed) {
    return std::make_unique<FlakyEnv>(seed, 25);
  };
  const std::size_t failing =
      router.add_session({flaky, key_for_replica(router, 0)});
  const std::size_t healthy =
      router.add_session({eval_spec(31, 41), key_for_replica(router, 1)});

  const AsyncSessionResult failed = router.wait(failing);
  EXPECT_TRUE(failed.failed);
  EXPECT_EQ(failed.error, "sensor disconnected");
  EXPECT_EQ(failed.served_by, "router/r0");

  const AsyncSessionResult ok = router.wait(healthy);
  EXPECT_TRUE(ok.completed);
  EXPECT_FALSE(ok.failed);
  EXPECT_EQ(ok.served_by, "router/r1");
  EXPECT_EQ(ok.train.episodes, 6u);
}

TEST_P(PerBackend, PeriodicAverageLeavesEveryReplicaWithTheSameState) {
  const std::string backend_id = GetParam();
  RouterConfig config = router_config(backend_id, 2);
  config.sync_every_updates = 64;
  RouterQServer router(config, SimplifiedOutputModel(4, 2));

  // One training session per replica: different traffic, so the two
  // Q-networks would diverge without synchronization.
  router.add_session({train_spec(913, 37), key_for_replica(router, 0)});
  router.add_session({train_spec(555, 66), key_for_replica(router, 1)});
  router.drain();
  router.stop();  // flushes the final partial averaging round

  const RouterStats stats = router.stats();
  EXPECT_GT(stats.aggregate.train_updates, 0u);
  EXPECT_GE(stats.syncs, 1u) << "no averaging round ever ran";

  // The last round imported ONE average into both replicas, and no
  // training follows it — their learned state must now be identical.
  std::vector<QNetState> states;
  router.run_exclusive_on_all([&states](OsElmQBackend& backend) {
    states.push_back(backend.export_state());
  });
  ASSERT_EQ(states.size(), 2u);
  ASSERT_TRUE(states[0].initialized);
  ASSERT_TRUE(states[1].initialized);
  EXPECT_EQ(states[0].beta, states[1].beta);
  EXPECT_EQ(states[0].beta_target, states[1].beta_target);
  EXPECT_EQ(states[0].p, states[1].p);
}

TEST(RouterQServer, IndependentPolicyNeverExchangesState) {
  RouterConfig config = router_config("software", 2);
  config.sync_every_updates = 0;
  RouterQServer router(config, SimplifiedOutputModel(4, 2));
  router.add_session({train_spec(913, 37), key_for_replica(router, 0)});
  router.add_session({train_spec(555, 66), key_for_replica(router, 1)});
  router.drain();
  router.stop();

  const RouterStats stats = router.stats();
  EXPECT_GT(stats.aggregate.train_updates, 0u);
  EXPECT_EQ(stats.syncs, 0u);
}

TEST(RouterQServer, StatsAggregateAcrossReplicasAndEmitJson) {
  RouterQServer router(router_config("software", 3),
                       SimplifiedOutputModel(4, 2));
  for (std::size_t i = 0; i < 6; ++i) {
    router.add_session({eval_spec(100 + i, 200 + i, 3), ""});
  }
  router.drain();

  const RouterStats stats = router.stats();
  ASSERT_EQ(stats.per_replica.size(), 3u);
  std::uint64_t steps = 0;
  std::uint64_t retired = 0;
  for (const AsyncServerStats& replica : stats.per_replica) {
    steps += replica.steps;
    retired += replica.sessions_retired;
  }
  EXPECT_EQ(stats.aggregate.steps, steps);
  EXPECT_EQ(stats.aggregate.sessions_retired, retired);
  EXPECT_EQ(retired, 6u);
  EXPECT_EQ(stats.sessions_admitted, 6u);

  const std::string json = stats.to_json();
  EXPECT_NE(json.find("\"replicas\": 3"), std::string::npos);
  EXPECT_NE(json.find("\"aggregate\""), std::string::npos);
  EXPECT_NE(json.find("\"per_replica\""), std::string::npos);
  EXPECT_NE(json.find("\"spillovers\": 0"), std::string::npos);
}

TEST(RouterQServer, ConstructorValidatesConfiguration) {
  EXPECT_THROW(RouterQServer(router_config("software", 0),
                             SimplifiedOutputModel(4, 2)),
               std::invalid_argument);
  EXPECT_THROW(RouterQServer(router_config("no-such-backend", 2),
                             SimplifiedOutputModel(4, 2)),
               std::invalid_argument);
}

TEST(RouterQServer, WaitRejectsUnknownIdsAndAddAfterStopThrows) {
  RouterQServer router(router_config("software", 2),
                       SimplifiedOutputModel(4, 2));
  EXPECT_THROW(router.wait(99), std::invalid_argument);
  router.stop();
  try {
    router.add_session({eval_spec(1, 2), ""});
    FAIL() << "expected a stopping rejection";
  } catch (const AdmissionError& e) {
    EXPECT_EQ(e.reason(), AdmissionRejectReason::kStopping);
  }
  EXPECT_EQ(router.stats().stopping_rejections, 1u);
}

TEST(RouterQServer, WaitOnAClaimedIdThrows) {
  RouterQServer router(router_config("software", 2),
                       SimplifiedOutputModel(4, 2));
  // A second wait() on one id.
  const std::size_t first = router.add_session({eval_spec(1, 2, 2), ""});
  EXPECT_TRUE(router.wait(first).completed);
  EXPECT_THROW((void)router.wait(first), std::logic_error);

  // A wait() after drain() claimed the id.
  const std::size_t second = router.add_session({eval_spec(3, 4, 2), ""});
  const std::vector<AsyncSessionResult> drained = router.drain();
  ASSERT_EQ(drained.size(), 1u);
  EXPECT_EQ(drained[0].id, second);
  EXPECT_THROW((void)router.wait(second), std::logic_error);
  EXPECT_TRUE(router.drain().empty());

  // A wait() already blocked when drain() claims the result throws
  // instead of blocking forever; whichever claims first, it is claimed
  // exactly once.
  AsyncSessionSpec slow = eval_spec(5, 6, 2);
  slow.session.env_id = "delay:500:ShapedCartPole-v0";
  const std::size_t raced = router.add_session({slow, ""});
  auto waiter = std::async(std::launch::async, [&router, raced] {
    try {
      return router.wait(raced).id == raced;
    } catch (const std::logic_error&) {
      return false;
    }
  });
  const std::size_t drained_count = router.drain().size();
  EXPECT_EQ(drained_count + (waiter.get() ? 1u : 0u), 1u);
  router.stop();
}

TEST(RouterQServer, RunExclusiveOnStallsOneReplicaWhileOthersServe) {
  // run_exclusive_on occupies ONE replica's batch thread — the scenario
  // harness's replica-stall injection. A session pinned to the other
  // replica completes while the stalled one is busy.
  RouterQServer router(router_config("software", 2),
                       SimplifiedOutputModel(4, 2));
  EXPECT_THROW((void)router.run_exclusive_on(2, [](OsElmQBackend&) {}),
               std::invalid_argument);
  std::atomic<bool> stalled{false};
  std::future<void> stall =
      router.run_exclusive_on(0, [&stalled](OsElmQBackend&) {
        stalled.store(true);
        std::this_thread::sleep_for(std::chrono::milliseconds(50));
      });
  const std::size_t id =
      router.add_session({eval_spec(5, 6, 2), key_for_replica(router, 1)});
  EXPECT_TRUE(router.wait(id).completed);
  stall.get();
  EXPECT_TRUE(stalled.load());
}

TEST(RouterQServer, ConcurrentJoinsRacingStopNeverHangOrMiscount) {
  // Router-level regression for the join()-racing-stop() window: every
  // concurrent join is either admitted (then retired by the stop) or
  // rejected with a structured reason, and the fleet ledger balances.
  RouterConfig config = router_config("software", 2);
  config.server.max_live_sessions = 4;
  RouterQServer router(config, SimplifiedOutputModel(4, 2));
  constexpr std::size_t kAttempts = 20;
  std::atomic<std::uint64_t> admitted{0};
  std::atomic<std::uint64_t> rejected_capacity{0};
  std::atomic<std::uint64_t> rejected_stopping{0};
  util::ThreadPool joiners(4);
  std::vector<std::future<void>> futures;
  for (std::size_t i = 0; i < kAttempts; ++i) {
    futures.push_back(joiners.submit([&router, &admitted,
                                      &rejected_capacity,
                                      &rejected_stopping, i] {
      AsyncSessionSpec spec = eval_spec(500 + i, 510 + i, 50);
      spec.session.env_id = "delay:500:ShapedCartPole-v0";
      try {
        router.add_session({spec, "key-" + std::to_string(i)});
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
  router.stop();  // races the joins above
  for (std::future<void>& f : futures) f.get();
  router.stop();  // idempotent after the race

  EXPECT_EQ(admitted + rejected_capacity + rejected_stopping, kAttempts);
  EXPECT_EQ(router.drain().size(), admitted.load());
  const RouterStats stats = router.stats();
  EXPECT_EQ(stats.sessions_admitted, admitted.load());
  EXPECT_EQ(stats.aggregate.sessions_retired, admitted.load());
  EXPECT_EQ(stats.placement_rejections, rejected_capacity.load());
  EXPECT_EQ(stats.stopping_rejections, rejected_stopping.load());
}

/// Polls stats().replacements (kill_replica is asynchronous) up to ~2s.
void wait_for_replacements(const RouterQServer& router, std::uint64_t want) {
  for (std::size_t i = 0; i < 2'000; ++i) {
    if (router.stats().replacements >= want) return;
    std::this_thread::sleep_for(std::chrono::milliseconds(1));
  }
  ADD_FAILURE() << "replacements never reached " << want;
}

TEST(RouterQServer, KillReplicaRescuesItsSessionsAndSeedsTheReplacement) {
  // The acceptance scenario in unit form: a hard replica kill mid-run
  // ends with the victim's sessions rescued onto survivors (rerun from
  // their specs, so evaluation results stay bit-identical to a clean
  // run), and the replacement slot serving with IMPORTED state.
  RouterConfig config = router_config("software", 3);
  config.server.max_live_sessions = 8;
  RouterQServer router(config, SimplifiedOutputModel(4, 2));
  router.run_exclusive_on_all(
      [](OsElmQBackend& backend) { prime_backend(backend, 77); });

  EXPECT_THROW(router.kill_replica(3), std::invalid_argument);
  const RouterStats before = router.stats();
  ASSERT_EQ(before.health.size(), 3u);
  for (const ReplicaHealthInfo& info : before.health) {
    EXPECT_EQ(info.state, ReplicaHealth::kHealthy);
    EXPECT_EQ(info.incarnation, 0u);
    ASSERT_EQ(info.timeline.size(), 1u);
    EXPECT_EQ(info.timeline[0].state, ReplicaHealth::kHealthy);
  }

  // Reference: the victim's spec on an identically-primed bare fleet.
  AsyncSessionSpec victim_spec = eval_spec(913, 37, 20);
  victim_spec.session.env_id = "delay:500:ShapedCartPole-v0";
  const Trajectory reference = [&victim_spec] {
    RouterQServer bare(router_config("software", 1),
                       SimplifiedOutputModel(4, 2));
    bare.run_exclusive_on_all(
        [](OsElmQBackend& backend) { prime_backend(backend, 77); });
    return Trajectory(bare.wait(bare.add_session({victim_spec, "k"})).train);
  }();

  // Pin the victim to replica 1, co-tenants elsewhere, kill mid-run.
  const std::size_t victim =
      router.add_session({victim_spec, key_for_replica(router, 1)});
  std::vector<std::size_t> tenants;
  for (std::size_t i = 0; i < 4; ++i) {
    AsyncSessionSpec spec = eval_spec(600 + i, 700 + i, 8);
    spec.session.env_id = "delay:500:ShapedCartPole-v0";
    tenants.push_back(router.add_session(
        {spec, key_for_replica(router, i % 2 == 0 ? 0 : 2)}));
  }
  router.kill_replica(1);
  wait_for_replacements(router, 1);

  const AsyncSessionResult rescued = router.wait(victim);
  EXPECT_TRUE(rescued.completed);
  EXPECT_FALSE(rescued.failed);
  EXPECT_GE(rescued.rescues, 1u) << "victim was never rescued";
  EXPECT_EQ(Trajectory(rescued.train), reference)
      << "a rescued evaluation rerun diverged from the clean run";
  for (const std::size_t id : tenants) {
    const AsyncSessionResult result = router.wait(id);
    EXPECT_TRUE(result.completed);
    EXPECT_EQ(result.rescues, 0u);  // co-replicas were never disturbed
  }
  router.stop();

  const RouterStats stats = router.stats();
  EXPECT_GE(stats.rescued, 1u);
  EXPECT_EQ(stats.abandoned, 0u);
  EXPECT_EQ(stats.replacements, 1u);
  EXPECT_EQ(stats.replacements_seeded, 1u)
      << "the replacement started fresh despite a primed fleet";

  // Slot 1's timeline: the incarnation-0 march to replacement, then the
  // replacement's own kHealthy birth event — monotone per incarnation.
  const ReplicaHealthInfo& slot = stats.health[1];
  EXPECT_EQ(slot.incarnation, 1u);
  EXPECT_EQ(slot.state, ReplicaHealth::kHealthy);
  ASSERT_GE(slot.timeline.size(), 4u);
  std::uint64_t last_incarnation = 0;
  int last_rank = -1;
  for (const ReplicaHealthEvent& event : slot.timeline) {
    EXPECT_GE(event.incarnation, last_incarnation);
    if (event.incarnation != last_incarnation) {
      last_incarnation = event.incarnation;
      last_rank = -1;  // a new incarnation restarts the machine
      EXPECT_EQ(event.state, ReplicaHealth::kHealthy);
    }
    EXPECT_GE(static_cast<int>(event.state), last_rank);
    last_rank = static_cast<int>(event.state);
  }
  const auto state_at = [&slot](std::size_t i) {
    return slot.timeline.at(i).state;
  };
  EXPECT_EQ(state_at(0), ReplicaHealth::kHealthy);
  EXPECT_EQ(state_at(slot.timeline.size() - 2), ReplicaHealth::kReplaced);
  EXPECT_EQ(state_at(slot.timeline.size() - 1), ReplicaHealth::kHealthy);
  EXPECT_NE(stats.health_json().find("\"replaced\""), std::string::npos);
}

TEST(RouterQServer, ReplacingAReplicaMidStepEndsEverySessionExactlyOnce) {
  // Every incarnation runs on the fleet's one pool, which outlives them.
  // Each round kills replica 0 while its sessions sleep inside env steps:
  // they retire there and are rescued, and the old incarnation is
  // destroyed while the lanes it used keep serving the rest of the fleet
  // (ASan/UBSan and TSan run this in CI).
  RouterConfig config = router_config("software", 2);
  config.server.max_live_sessions = 150;  // every session fits: no rejects
  RouterQServer router(config, SimplifiedOutputModel(4, 2));
  const std::string on_victim = key_for_replica(router, 0);
  std::vector<std::size_t> admitted;
  for (std::uint64_t round = 0; round < 50; ++round) {
    for (std::uint64_t i = 0; i < 3; ++i) {
      AsyncSessionSpec spec = eval_spec(100 * round + i, 5 + i, 1);
      spec.session.env_id = "delay:300:ShapedCartPole-v0";
      spec.session.trainer.episode_step_cap = 20;
      admitted.push_back(router.add_session({spec, on_victim}));
    }
    // Land the kill at varying points of the sessions' steps.
    std::this_thread::sleep_for(
        std::chrono::microseconds(150 * (round % 4)));
    router.kill_replica(0);
    wait_for_replacements(router, round + 1);
  }
  const std::vector<AsyncSessionResult> results = router.drain();
  ASSERT_EQ(results.size(), admitted.size());
  for (std::size_t i = 0; i < results.size(); ++i) {
    EXPECT_EQ(results[i].id, admitted[i]);
    EXPECT_TRUE(results[i].completed) << results[i].error;
  }
  router.stop();
  const RouterStats stats = router.stats();
  EXPECT_EQ(stats.replacements, 50u);
  EXPECT_EQ(stats.abandoned, 0u);
  EXPECT_EQ(stats.aggregate.sessions_retired,
            admitted.size() + stats.rescued);
}

#ifdef __linux__
/// The calling process's thread ids, read from /proc/self/task.
std::set<std::string> thread_ids() {
  std::set<std::string> ids;
  for (const auto& task :
       std::filesystem::directory_iterator("/proc/self/task")) {
    ids.insert(task.path().filename().string());
  }
  return ids;
}
#endif

TEST(RouterQServer, ForgetsASessionOnceItsResultIsClaimed) {
  // Each spec's env_factory captures a token; once the session's result
  // is claimed, nothing in the router or its replicas may still hold it.
  const auto tracked = [](std::weak_ptr<int>& watch, std::uint64_t seed,
                          std::size_t episodes) {
    auto token = std::make_shared<int>(0);
    watch = token;
    AsyncSessionSpec spec = eval_spec(seed, seed + 1, episodes);
    spec.session.env_id = "delay:500:ShapedCartPole-v0";
    spec.session.trainer.episode_step_cap = 20;
    spec.env_factory = [token](std::uint64_t env_seed) {
      return env::make_environment("delay:500:ShapedCartPole-v0", env_seed);
    };
    return spec;
  };
  RouterQServer router(router_config("software", 2),
                       SimplifiedOutputModel(4, 2));
  std::weak_ptr<int> watch;

  const std::size_t waited = router.add_session({tracked(watch, 30, 2), ""});
  EXPECT_FALSE(watch.expired());
  EXPECT_TRUE(router.wait(waited).completed);
  EXPECT_TRUE(watch.expired()) << "wait() left the session's spec behind";

  router.add_session({tracked(watch, 32, 2), ""});
  ASSERT_EQ(router.drain().size(), 1u);
  EXPECT_TRUE(watch.expired()) << "drain() left the session's spec behind";

  // 40 episodes of 500 us steps: still live when its replica is killed.
  const std::size_t victim = router.add_session(
      {tracked(watch, 34, 40), key_for_replica(router, 1)});
  router.kill_replica(1);
  wait_for_replacements(router, 1);
  const AsyncSessionResult rescued = router.wait(victim);
  EXPECT_TRUE(rescued.completed) << rescued.error;
  EXPECT_GE(rescued.rescues, 1u) << "the kill rescued nothing";
  EXPECT_TRUE(watch.expired())
      << "a rescued session's spec outlived its claim";
  router.stop();
}

TEST(RouterQServer, KillReplicaAddsNoWorkerThreads) {
#ifndef __linux__
  GTEST_SKIP() << "counts threads through /proc/self/task";
#else
  // A replacement runs on the fleet pool: its batch thread is the only
  // thread it starts, and the killed incarnation's batch thread is gone.
  RouterConfig config = router_config("software", 2);
  config.server.worker_threads = 3;
  RouterQServer router(config, SimplifiedOutputModel(4, 2));
  for (std::uint64_t i = 0; i < 4; ++i) {
    AsyncSessionSpec spec = eval_spec(40 + i, 50 + i, 100000);
    spec.session.env_id = "delay:300:ShapedCartPole-v0";
    router.add_session({spec, key_for_replica(router, i % 2)});
  }
  const std::set<std::string> before = thread_ids();
  router.kill_replica(0);
  wait_for_replacements(router, 1);
  // A joined thread can linger in /proc for a moment after its join.
  std::set<std::string> after = thread_ids();
  for (std::size_t i = 0; i < 1'000 && after.size() > before.size(); ++i) {
    std::this_thread::sleep_for(std::chrono::milliseconds(1));
    after = thread_ids();
  }
  EXPECT_EQ(after.size(), before.size());
  std::vector<std::string> born;
  std::set_difference(after.begin(), after.end(), before.begin(),
                      before.end(), std::back_inserter(born));
  EXPECT_EQ(born.size(), 1u) << "the replacement started threads besides "
                                "its batch thread";
  router.stop();
#endif
}

TEST(RouterQServer, ReplacementDoesNotMakeAnAveragingRoundFire) {
  // Regression: the averaging pace counted only live incarnations, so the
  // fleet total dropped when a replacement started from zero updates, the
  // unsigned "updates since the last round" wrapped, and a round fired
  // with no new training at all.
  RouterConfig config = router_config("software", 2);
  config.sync_every_updates = 32;
  RouterQServer router(config, SimplifiedOutputModel(4, 2));
  (void)router.wait(
      router.add_session({train_spec(913, 37), key_for_replica(router, 0)}));
  // Let a round that was already due run before taking the baseline.
  std::this_thread::sleep_for(std::chrono::milliseconds(5));
  const std::uint64_t before = router.stats().syncs;
  ASSERT_GE(before, 1u) << "training never reached an averaging round";

  router.kill_replica(0);  // the replica that did all the training
  wait_for_replacements(router, 1);
  std::this_thread::sleep_for(std::chrono::milliseconds(20));
  EXPECT_EQ(router.stats().syncs, before)
      << "a replacement made an averaging round fire without training";
}

/// Every counter series labeled server="<server>" in `snapshot`, by name.
std::map<std::string, std::uint64_t> server_series(
    const obs::MetricsSnapshot& snapshot, const std::string& server) {
  std::map<std::string, std::uint64_t> out;
  for (const auto& series : snapshot.counters) {
    if (series.labels == obs::Labels{{"server", server}}) {
      out[series.name] = series.value;
    }
  }
  return out;
}

TEST(RouterQServer, RegistrySeriesFollowTheLiveIncarnationAndRouterStats) {
  RouterConfig config = router_config("software", 2);
  config.name = "registry-series-router";
  {
    RouterQServer router(config, SimplifiedOutputModel(4, 2));
    // One session on replica 1's first incarnation, one on its
    // replacement.
    AsyncSessionSpec spec = eval_spec(31, 41, 3);
    EXPECT_TRUE(
        router.wait(router.add_session({spec, key_for_replica(router, 1)}))
            .completed);
    router.kill_replica(1);
    wait_for_replacements(router, 1);
    spec.session.env_seed = 32;
    EXPECT_TRUE(
        router.wait(router.add_session({spec, key_for_replica(router, 1)}))
            .completed);
    router.stop();

    const RouterStats stats = router.stats();
    const obs::MetricsSnapshot snapshot =
        obs::MetricsRegistry::global().snapshot();
    // Each replica series is its live incarnation's own stats(): the
    // killed incarnation's session left the registry with it, while the
    // per-slot stats keep it.
    for (std::size_t r = 0; r < router.replica_count(); ++r) {
      const AsyncServerStats live = router.replica(r).stats();
      const std::map<std::string, std::uint64_t> series =
          server_series(snapshot, router.replica(r).name());
      EXPECT_EQ(series.size(), std::size(kAsyncServerCounters));
      for (const auto& [key, field] : kAsyncServerCounters) {
        const std::string name =
            "oselm_async_" + std::string(key) + "_total";
        ASSERT_TRUE(series.contains(name)) << name;
        EXPECT_EQ(series.at(name), live.*field) << name << " of r" << r;
      }
    }
    EXPECT_EQ(server_series(snapshot, "registry-series-router/r1")
                  .at("oselm_async_sessions_retired_total"),
              1u);
    EXPECT_EQ(stats.per_replica[1].sessions_retired, 2u);

    // The router-level series are RouterStats' counters, plus the health
    // transitions its timelines record after each slot's birth event.
    const std::map<std::string, std::uint64_t> series =
        server_series(snapshot, config.name);
    EXPECT_EQ(series.size(), std::size(kRouterCounters) + 1);
    for (const auto& [key, field] : kRouterCounters) {
      const std::string name = "oselm_router_" + std::string(key) + "_total";
      ASSERT_TRUE(series.contains(name)) << name;
      EXPECT_EQ(series.at(name), stats.*field) << name;
    }
    EXPECT_EQ(stats.replacements, 1u);
    std::uint64_t transitions = 0;
    for (const ReplicaHealthInfo& info : stats.health) {
      transitions += info.timeline.size() - 1;
    }
    EXPECT_GT(transitions, 0u);
    ASSERT_TRUE(series.contains("oselm_router_health_transitions_total"));
    EXPECT_EQ(series.at("oselm_router_health_transitions_total"),
              transitions);
  }
  const obs::MetricsSnapshot after = obs::MetricsRegistry::global().snapshot();
  for (const char* server :
       {"registry-series-router", "registry-series-router/r0",
        "registry-series-router/r1"}) {
    EXPECT_TRUE(server_series(after, server).empty()) << server;
  }
}

TEST(RouterQServer, BoundedWaitAdmissionBlocksUntilARetirementFreesASlot) {
  // UINT64_MAX is past what the clock can represent: it waits with no
  // deadline instead of wrapping into one already passed.
  for (const std::uint64_t wait_us :
       {std::uint64_t{5'000'000}, std::numeric_limits<std::uint64_t>::max()}) {
    SCOPED_TRACE(wait_us);
    RouterConfig config = router_config("software", 2);
    config.server.max_live_sessions = 1;
    config.admission_wait_us = wait_us;
    RouterQServer router(config, SimplifiedOutputModel(4, 2));

    // Two short sessions saturate the fleet (cap 2 x 1); the third join
    // blocks at cap instead of rejecting and admits once one retires.
    AsyncSessionSpec busy = eval_spec(10, 20, 2);
    busy.session.env_id = "delay:500:ShapedCartPole-v0";
    router.add_session({busy, key_for_replica(router, 0)});
    busy.session.env_seed = 11;
    router.add_session({busy, key_for_replica(router, 1)});
    busy.session.env_seed = 12;
    const std::size_t waited = router.add_session({busy, ""});
    EXPECT_TRUE(router.wait(waited).completed);

    const RouterStats stats = router.stats();
    EXPECT_EQ(stats.sessions_admitted, 3u);
    EXPECT_EQ(stats.admission_waits, 1u);
    EXPECT_EQ(stats.admission_wait_timeouts, 0u);
    EXPECT_EQ(stats.placement_rejections, 0u);
  }
}

TEST(RouterQServer, BoundedWaitAdmissionTimesOutWithTheWaitedError) {
  RouterConfig config = router_config("software", 2);
  config.server.max_live_sessions = 1;
  config.admission_wait_us = 2'000;  // far shorter than the sessions
  RouterQServer router(config, SimplifiedOutputModel(4, 2));

  AsyncSessionSpec slow = eval_spec(10, 20, 100'000);
  slow.session.env_id = "delay:3000:ShapedCartPole-v0";
  router.add_session({slow, key_for_replica(router, 0)});
  slow.session.env_seed = 11;
  router.add_session({slow, key_for_replica(router, 1)});
  slow.session.env_seed = 12;
  try {
    router.add_session({slow, "stuck-key"});
    FAIL() << "expected a waited capacity rejection";
  } catch (const AdmissionError& e) {
    EXPECT_EQ(e.reason(), AdmissionRejectReason::kCapacity);
    const std::string message = e.what();
    // The canonical format, with the bounded-wait detail variant.
    EXPECT_NE(message.find("RouterQServer::add_session: admission rejected "
                           "(capacity) for session 'stuck-key'"),
              std::string::npos)
        << message;
    EXPECT_NE(message.find("none retired within 2000us"), std::string::npos)
        << message;
  }

  const RouterStats stats = router.stats();
  EXPECT_EQ(stats.admission_waits, 1u);
  EXPECT_EQ(stats.admission_wait_timeouts, 1u);
  EXPECT_EQ(stats.placement_rejections, 1u);
  router.stop();
}

TEST(RouterQServer, AdmissionWaitSeriesCountsEveryWaitedAdmission) {
  // With timing on, every admission that blocked at capacity records
  // its wait into the router's own histogram, exported under its name.
  obs::set_timing_enabled(true);
  RouterConfig config = router_config("software", 2);
  config.name = "admission-wait-series";
  config.server.max_live_sessions = 1;
  config.admission_wait_us = 5'000'000;
  RouterQServer router(config, SimplifiedOutputModel(4, 2));

  // Two sessions saturate the fleet (cap 2 x 1); the third join blocks
  // until a retirement frees a slot.
  AsyncSessionSpec busy = eval_spec(10, 20, 2);
  busy.session.env_id = "delay:500:ShapedCartPole-v0";
  router.add_session({busy, key_for_replica(router, 0)});
  busy.session.env_seed = 11;
  router.add_session({busy, key_for_replica(router, 1)});
  busy.session.env_seed = 12;
  EXPECT_TRUE(router.wait(router.add_session({busy, ""})).completed);
  router.stop();
  obs::set_timing_enabled(false);

  const RouterStats stats = router.stats();
  EXPECT_EQ(stats.admission_waits, 1u);
  const obs::MetricsSnapshot snapshot =
      obs::MetricsRegistry::global().snapshot();
  const auto series = std::find_if(
      snapshot.histograms.begin(), snapshot.histograms.end(),
      [&config](const obs::Series<util::LatencyHistogram>& s) {
        return s.name == "oselm_router_admission_wait_us" &&
               s.labels == obs::Labels{{"server", config.name}};
      });
  ASSERT_NE(series, snapshot.histograms.end());
  EXPECT_EQ(series->value.count(), stats.admission_waits);
}

TEST_P(PerBackend, ExclusiveStateImportUnderTrafficKeepsEvalBitIdentical) {
  // run_exclusive jumps ahead of the batching queue, so a fleet-wide
  // QNetState import lands BETWEEN batch passes, never inside one. With
  // the imported state equal to the fleet's own primed state, 16
  // co-tenant sessions mid-step must not observe any difference: probe
  // trajectories stay bit-identical to an undisturbed run. (TSan-clean
  // via the sanitizer CI jobs, which run this suite under TSan.)
  const std::string backend_id = GetParam();
  const QNetState primed = [&backend_id] {
    const OsElmQBackendPtr scratch =
        make_backend(backend_id, backend_config(2024));
    prime_backend(*scratch, 77);
    return scratch->export_state();
  }();

  const Trajectory reference = [&backend_id] {
    RouterQServer bare(router_config(backend_id, 1),
                       SimplifiedOutputModel(4, 2));
    bare.run_exclusive_on_all(
        [](OsElmQBackend& backend) { prime_backend(backend, 77); });
    return Trajectory(
        bare.wait(bare.add_session({eval_spec(913, 37), "k"})).train);
  }();

  RouterQServer router(router_config(backend_id, 4),
                       SimplifiedOutputModel(4, 2));
  router.run_exclusive_on_all(
      [&primed](OsElmQBackend& backend) { backend.import_state(primed); });
  std::vector<std::size_t> probes;
  for (std::size_t target = 0; target < 4; ++target) {
    probes.push_back(router.add_session(
        {eval_spec(913, 37), key_for_replica(router, target)}));
  }
  for (std::size_t i = 0; i < 12; ++i) {  // 16 live sessions fleet-wide
    router.add_session({eval_spec(800 + i, 900 + i, 4), ""});
  }
  // Storm of fleet-wide imports while every session is mid-step.
  for (std::size_t round = 0; round < 5; ++round) {
    router.run_exclusive_on_all([&primed](OsElmQBackend& backend) {
      backend.import_state(primed);
    });
    std::this_thread::sleep_for(std::chrono::milliseconds(2));
  }
  for (std::size_t target = 0; target < 4; ++target) {
    const AsyncSessionResult result = router.wait(probes[target]);
    EXPECT_TRUE(result.completed);
    EXPECT_EQ(result.served_by, "router/r" + std::to_string(target));
    EXPECT_EQ(Trajectory(result.train), reference)
        << "import under traffic perturbed replica " << target;
  }
  router.drain();
}

INSTANTIATE_TEST_SUITE_P(AllRegisteredBackends, PerBackend,
                         ::testing::ValuesIn(registered_backends()),
                         [](const auto& info) {
                           std::string name = info.param;
                           for (char& c : name) {
                             if (c == '-') c = '_';
                           }
                           return name;
                         });

}  // namespace
}  // namespace oselm::rl
