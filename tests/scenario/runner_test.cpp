#include "scenario/runner.hpp"

#include <gtest/gtest.h>

#include <cstdio>
#include <fstream>
#include <sstream>
#include <string>

#include "scenario/pack.hpp"

namespace oselm::scenario {
namespace {

/// Small, fast spec shapes: tiny envs and budgets so every test finishes
/// in well under a second even under sanitizers.
ScenarioSpec small_async() {
  ScenarioSpec spec;
  spec.name = "test-async";
  spec.backend = ScenarioBackend::kAsync;
  spec.seed = 97;
  spec.env_ids = {"GridWorld"};
  spec.train_fraction = 0.5;
  spec.sessions = 10;
  spec.episodes_per_session = 1;
  spec.max_steps_per_episode = 10;
  spec.bursts = 2;
  spec.burst_gap_ms = 1;
  spec.max_live_sessions = 4;
  spec.worker_threads = 2;
  spec.hidden_units = 8;
  return spec;
}

const InvariantResult* find_invariant(const ScenarioVerdict& verdict,
                                      const std::string& name) {
  for (const InvariantResult& inv : verdict.invariants) {
    if (inv.name == name) return &inv;
  }
  return nullptr;
}

void expect_invariant(const ScenarioVerdict& verdict,
                      const std::string& name) {
  const InvariantResult* inv = find_invariant(verdict, name);
  ASSERT_NE(inv, nullptr) << "missing invariant '" << name << "'";
  EXPECT_TRUE(inv->pass) << name << ": " << inv->detail;
}

TEST(ScenarioRunner, AsyncChurnStormConservesSessions) {
  // Joins race retirements far beyond the admission cap; every attempt
  // must still be accounted for and every invariant must hold.
  const ScenarioRunner runner(small_async());
  const ScenarioVerdict verdict = runner.run();
  EXPECT_TRUE(verdict.pass);
  expect_invariant(verdict, "sessions-conserved");
  expect_invariant(verdict, "server-accounting");
  expect_invariant(verdict, "steps-accounted");
  expect_invariant(verdict, "stop-returned");
  expect_invariant(verdict, "post-stop-rejects");
  EXPECT_EQ(verdict.attempted, 10u);
  EXPECT_EQ(verdict.attempted,
            verdict.admitted + verdict.rejected_capacity +
                verdict.rejected_stopping + verdict.rejected_duplicate);
  EXPECT_EQ(verdict.admitted,
            verdict.completed + verdict.failed_env +
                verdict.failed_backend + verdict.stopped_early);
  EXPECT_EQ(verdict.backend_tier, "async");
  EXPECT_EQ(verdict.schedule_digest, runner.schedule().digest);
}

TEST(ScenarioRunner, RouterChurnStormKeepsPlacementConsistent) {
  ScenarioSpec spec = small_async();
  spec.name = "test-router";
  spec.backend = ScenarioBackend::kRouter;
  spec.replicas = 2;
  spec.max_live_sessions = 3;  // per replica
  const ScenarioVerdict verdict = ScenarioRunner(spec).run();
  EXPECT_TRUE(verdict.pass);
  expect_invariant(verdict, "sessions-conserved");
  expect_invariant(verdict, "server-accounting");
  expect_invariant(verdict, "placement-consistent");
  expect_invariant(verdict, "post-stop-rejects");
  EXPECT_EQ(verdict.backend_tier, "router");
  EXPECT_EQ(verdict.attempted,
            verdict.admitted + verdict.rejected_capacity +
                verdict.rejected_stopping + verdict.rejected_duplicate);
}

TEST(ScenarioRunner, DeterministicJsonIsByteIdenticalAcrossRuns) {
  // The reproducibility contract: same spec + seed => identical
  // deterministic core (identity, digest, invariant outcomes), however
  // the timing-dependent telemetry varies.
  const ScenarioRunner runner(small_async());
  const ScenarioVerdict first = runner.run();
  const ScenarioVerdict second = runner.run();
  EXPECT_EQ(first.deterministic_json(), second.deterministic_json());
  EXPECT_NE(first.deterministic_json().find("sessions-conserved"),
            std::string::npos);
  // The full JSON embeds the core plus a telemetry subtree.
  EXPECT_NE(first.to_json().find("\"telemetry\""), std::string::npos);
  EXPECT_EQ(first.deterministic_json().find("\"telemetry\""),
            std::string::npos);
}

TEST(ScenarioRunner, SpikeFaultsPreserveEvaluateTrajectories) {
  // Latency-only faults must not change WHAT the server computes, only
  // WHEN: an eval-only workload drives bit-identical trajectories — and
  // therefore identical step counts — with and without kSpike wrappers.
  // ("none" fault entries consume the same schedule draws as real ones,
  // so both specs expand to the same per-session seeds.)
  ScenarioSpec plain = small_async();
  plain.name = "eval-plain";
  plain.train_fraction = 0.0;
  plain.sessions = 6;
  plain.max_live_sessions = 6;  // >= sessions: admission is deterministic
  plain.faults = {{"none", 0.0}};
  ScenarioSpec spiked = plain;
  spiked.name = "eval-spiked";
  spiked.faults = {{"spike", 1.0}};
  const ScenarioVerdict a = ScenarioRunner(plain).run();
  const ScenarioVerdict b = ScenarioRunner(spiked).run();
  EXPECT_TRUE(a.pass);
  EXPECT_TRUE(b.pass);
  EXPECT_EQ(a.admitted, 6u);
  EXPECT_EQ(b.admitted, 6u);
  EXPECT_EQ(a.completed, b.completed);
  EXPECT_EQ(a.eval_step_latency_us.count(), b.eval_step_latency_us.count());
  EXPECT_EQ(a.train_step_latency_us.count(), 0u);
}

TEST(ScenarioRunner, InjectedThrowsAreIsolatedAsEnvFailures) {
  // Every session's environment throws FaultInjected on its first reset;
  // the tier must isolate each failure and the ledger must still balance.
  ScenarioSpec spec = small_async();
  spec.name = "all-throw";
  spec.sessions = 4;
  spec.max_live_sessions = 4;
  spec.faults = {{"throw", 1.0}};
  const ScenarioVerdict verdict = ScenarioRunner(spec).run();
  EXPECT_TRUE(verdict.pass);
  EXPECT_EQ(verdict.failed_env, verdict.admitted);
  EXPECT_EQ(verdict.completed, 0u);
}

TEST(ScenarioRunner, ReplicaKillRescuesEverySessionDeterministically) {
  // The acceptance scenario: hard-kill one of R=4 replicas mid-run.
  // Every session on the victim rescues onto a survivor and completes,
  // the replacement serves with IMPORTED (non-fresh) state, and the
  // deterministic verdict core is byte-reproducible across runs even
  // though rescue timing (and thus telemetry) varies.
  const ScenarioRunner runner(builtin_scenario("replica-kill-rescue"));
  const ScenarioVerdict first = runner.run();
  EXPECT_TRUE(first.pass) << first.to_json();
  expect_invariant(first, "rescued-complete");
  expect_invariant(first, "replacement-seeded");
  expect_invariant(first, "health-monotone");
  expect_invariant(first, "no-duplicate-results");
  EXPECT_EQ(first.completed, first.admitted);
  EXPECT_EQ(first.abandoned, 0u);
  EXPECT_GE(first.rescued, 1u) << "the kill rescued nothing";
  EXPECT_NE(first.health_json.find("\"replaced\""), std::string::npos);

  const ScenarioVerdict second = runner.run();
  EXPECT_EQ(first.deterministic_json(), second.deterministic_json());
}

TEST(ScenarioRunner, WriteVerdictPersistsTheJson) {
  const ScenarioRunner runner(small_async());
  const ScenarioVerdict verdict = runner.run();
  const std::string path = "scenario_runner_test_verdict.json";
  write_verdict(verdict, path);
  std::ifstream file(path);
  ASSERT_TRUE(file.good());
  std::ostringstream content;
  content << file.rdbuf();
  EXPECT_EQ(content.str(), verdict.to_json());
  file.close();
  std::remove(path.c_str());
  EXPECT_THROW(write_verdict(verdict, "/no-such-dir/verdict.json"),
               std::runtime_error);
}

TEST(ScenarioRunner, RejectsInvalidSpecsUpFront) {
  ScenarioSpec spec = small_async();
  spec.sessions = 0;
  EXPECT_THROW(ScenarioRunner{spec}, std::invalid_argument);
  // Heterogeneous env dims are a spec bug, not a scenario outcome.
  ScenarioSpec mixed = small_async();
  mixed.env_ids = {"GridWorld", "CartPole-v0"};
  EXPECT_THROW((void)ScenarioRunner(mixed).run(), std::invalid_argument);
}

}  // namespace
}  // namespace oselm::scenario
