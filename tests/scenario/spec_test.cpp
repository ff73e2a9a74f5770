#include "scenario/spec.hpp"

#include <gtest/gtest.h>

#include <set>
#include <string>

#include "scenario/pack.hpp"
#include "scenario/schedule.hpp"
#include "util/hash.hpp"

namespace oselm::scenario {
namespace {

/// Minimal valid spec text; callers append extra lines.
std::string minimal_text(const std::string& extra = "") {
  return "name = t\nenv = GridWorld\n" + extra;
}

void expect_parse_error(const std::string& text,
                        const std::string& fragment) {
  try {
    (void)parse_scenario(text);
    ADD_FAILURE() << "expected std::invalid_argument for:\n" << text;
  } catch (const std::invalid_argument& e) {
    EXPECT_NE(std::string(e.what()).find(fragment), std::string::npos)
        << "message '" << e.what() << "' lacks '" << fragment << "'";
  }
}

ScenarioSpec full_spec() {
  ScenarioSpec spec;
  spec.name = "round-trip";
  spec.backend = ScenarioBackend::kRouter;
  spec.seed = 31337;
  spec.env_ids = {"ShapedCartPole-v0", "delay:50:GridWorld"};
  spec.faults = {{"drop", 0.125}, {"none", 0.0}, {"spike", 0.05}};
  spec.train_fraction = 0.75;
  spec.sessions = 24;
  spec.episodes_per_session = 3;
  spec.max_steps_per_episode = 17;
  spec.bursts = 5;
  spec.burst_gap_ms = 11;
  spec.affinity_keys = 9;
  spec.backend_id = "software";
  spec.hidden_units = 16;
  spec.max_live_sessions = 6;
  spec.worker_threads = 3;
  spec.replicas = 4;
  spec.sync_every_updates = 48;
  spec.stall_ms = 20;
  spec.stall_replica = 2;
  spec.stall_at_burst = 1;
  spec.stop_after_ms = 90;
  spec.stop_deadline_ms = 5000;
  spec.backend_fault_kind = "nan";
  spec.backend_fault_rate = 0.375;
  spec.backend_fault_replica = 3;
  spec.kill_planned = true;
  spec.kill_replica = 1;
  spec.kill_at_burst = 2;
  spec.admission_wait_us = 1500;
  spec.prime = true;
  return spec;
}

TEST(ScenarioSpec, RoundTripsThroughItsTextForm) {
  // The round-trip pin: parse_scenario(to_text()) reproduces the spec
  // exactly, so to_text() is a faithful canonical form (and a valid
  // digest input).
  const ScenarioSpec spec = full_spec();
  const ScenarioSpec reparsed = parse_scenario(spec.to_text());
  EXPECT_EQ(reparsed.to_text(), spec.to_text());
  EXPECT_EQ(reparsed.name, "round-trip");
  EXPECT_EQ(reparsed.backend, ScenarioBackend::kRouter);
  EXPECT_EQ(reparsed.seed, 31337u);
  ASSERT_EQ(reparsed.env_ids.size(), 2u);
  EXPECT_EQ(reparsed.env_ids[1], "delay:50:GridWorld");
  ASSERT_EQ(reparsed.faults.size(), 3u);
  EXPECT_EQ(reparsed.faults[0].kind, "drop");
  EXPECT_DOUBLE_EQ(reparsed.faults[0].rate, 0.125);
  EXPECT_EQ(reparsed.faults[1].kind, "none");
  EXPECT_DOUBLE_EQ(reparsed.train_fraction, 0.75);
  EXPECT_EQ(reparsed.stop_after_ms, 90u);
  EXPECT_EQ(reparsed.backend_fault_kind, "nan");
  EXPECT_DOUBLE_EQ(reparsed.backend_fault_rate, 0.375);
  EXPECT_EQ(reparsed.backend_fault_replica, 3u);
  EXPECT_TRUE(reparsed.kill_planned);
  EXPECT_EQ(reparsed.kill_replica, 1u);
  EXPECT_EQ(reparsed.kill_at_burst, 2u);
  EXPECT_EQ(reparsed.admission_wait_us, 1500u);
  EXPECT_TRUE(reparsed.prime);
}

TEST(ScenarioSpec, ParsesCommentsBlanksAndDefaults) {
  const ScenarioSpec spec = parse_scenario(
      "# a chaos spec\n"
      "\n"
      "name = commented   # trailing comment\n"
      "   env =  GridWorld  \n");
  EXPECT_EQ(spec.name, "commented");
  ASSERT_EQ(spec.env_ids.size(), 1u);
  EXPECT_EQ(spec.env_ids[0], "GridWorld");
  // Unset keys keep their documented defaults.
  EXPECT_EQ(spec.backend, ScenarioBackend::kAsync);
  EXPECT_EQ(spec.seed, 2021u);
  EXPECT_EQ(spec.sessions, 16u);
  EXPECT_EQ(spec.bursts, 4u);
  EXPECT_TRUE(spec.faults.empty());
  EXPECT_EQ(spec.stop_deadline_ms, 30000u);
}

TEST(ScenarioSpec, MalformedLinesNameTheLineNumber) {
  expect_parse_error("name\n", "line 1");
  expect_parse_error(minimal_text("seed = abc\n"), "line 3");
  expect_parse_error(minimal_text("\n# pad\nbursts = -1\n"), "line 5");
}

TEST(ScenarioSpec, StrictParsingRejectsEveryMalformation) {
  expect_parse_error("name\n", "expected 'key = value'");
  expect_parse_error(minimal_text("turbo = yes\n"), "unknown key 'turbo'");
  expect_parse_error(minimal_text("seed = 1\nseed = 2\n"),
                     "duplicate key 'seed'");
  expect_parse_error(minimal_text("name = twice\n"),
                     "duplicate key 'name'");
  expect_parse_error(minimal_text("seed =\n"), "empty value");
  expect_parse_error(minimal_text("= 5\n"), "empty key");
  expect_parse_error(minimal_text("seed = 12f\n"),
                     "not an unsigned integer");
  expect_parse_error(minimal_text("sessions = 99999999999999999999\n"),
                     "exceeds 64 bits");
  expect_parse_error(minimal_text("train_fraction = 1.5\n"),
                     "outside [0, 1]");
  expect_parse_error(minimal_text("train_fraction = lots\n"),
                     "not a number");
  expect_parse_error(minimal_text("backend = turbo\n"),
                     "unknown backend 'turbo'");
  expect_parse_error(minimal_text("backend = lockstep\n"),
                     "unknown backend 'lockstep' (expected async|router)");
  expect_parse_error(minimal_text("fault = drop\n"),
                     "expected none or <kind>:<rate>");
  expect_parse_error(minimal_text("fault = flood:0.5\n"),
                     "unknown fault kind 'flood'");
  expect_parse_error(minimal_text("fault = drop:2\n"), "outside [0, 1]");
  expect_parse_error(minimal_text("fault = drop:fast\n"), "not a number");
  expect_parse_error(minimal_text("backend_fault = throw\n"),
                     "expected none or <kind>:<rate>");
  expect_parse_error(minimal_text("backend_fault = melt:0.5\n"),
                     "unknown backend_fault kind 'melt'");
  expect_parse_error(minimal_text("backend_fault = throw:2\n"),
                     "outside [0, 1]");
  expect_parse_error(minimal_text("kill = 1\n"),
                     "expected none or <replica>@<burst>");
  expect_parse_error(minimal_text("kill = one@2\n"),
                     "not an unsigned integer");
  expect_parse_error(minimal_text("prime = yes\n"),
                     "not an unsigned integer");
  expect_parse_error(minimal_text("prime = 2\n"), "not 0 or 1");
}

TEST(ScenarioSpec, ValidateCatchesStructuralErrors) {
  expect_parse_error("name = t\n", "no env entries");
  expect_parse_error(minimal_text("sessions = 0\n"), "sessions == 0");
  expect_parse_error(minimal_text("bursts = 0\n"), "bursts == 0");
  expect_parse_error(minimal_text("max_live_sessions = 0\n"),
                     "max_live_sessions == 0");
  expect_parse_error(minimal_text("stop_deadline_ms = 0\n"),
                     "stop_deadline_ms == 0");
  // A stall must land before an existing burst...
  expect_parse_error(minimal_text("stall_ms = 5\nstall_at_burst = 4\n"),
                     "stall_at_burst 4 out of range");
  // ...and, on the router, on an existing replica.
  expect_parse_error(
      minimal_text("backend = router\nstall_ms = 5\nstall_replica = 2\n"),
      "stall_replica 2 out of range");
  // The same configs are fine when no stall is armed.
  EXPECT_NO_THROW(parse_scenario(minimal_text("stall_at_burst = 4\n")));
  // The robustness axes are tier- and range-checked the same way.
  expect_parse_error(minimal_text("backend = router\n"
                                  "backend_fault = nan:0.5\n"
                                  "backend_fault_replica = 2\n"),
                     "backend_fault_replica 2");
  expect_parse_error(minimal_text("kill = 0@1\n"),
                     "kill requires the router tier");
  expect_parse_error(minimal_text("backend = router\nkill = 2@1\n"),
                     "kill replica 2");
  expect_parse_error(minimal_text("backend = router\nkill = 0@4\n"),
                     "kill burst 4");
  expect_parse_error(minimal_text("admission_wait_us = 100\n"),
                     "admission_wait_us requires the router tier");
  expect_parse_error(minimal_text("sync_every_updates = 16\n"),
                     "sync_every_updates requires the router tier");
  EXPECT_NO_THROW(parse_scenario(
      minimal_text("backend = router\nsync_every_updates = 16\n")));

  ScenarioSpec bad = full_spec();
  bad.name.clear();
  EXPECT_THROW(bad.validate(), std::invalid_argument);
  bad = full_spec();
  bad.hidden_units = 0;
  EXPECT_THROW(bad.validate(), std::invalid_argument);
  EXPECT_NO_THROW(full_spec().validate());
}

TEST(ScenarioSchedule, SameSpecExpandsBitIdentically) {
  // The reproducibility pin: expansion is a pure function of the spec,
  // so two expansions agree byte for byte — text, digest, and the digest
  // really is fnv1a(text).
  const ScenarioSpec spec = full_spec();
  const ScenarioSchedule a = expand_schedule(spec);
  const ScenarioSchedule b = expand_schedule(spec);
  EXPECT_EQ(a.to_text(), b.to_text());
  EXPECT_EQ(a.digest, b.digest);
  EXPECT_EQ(a.digest, util::fnv1a(a.to_text()));
  // A different master seed reshuffles everything.
  ScenarioSpec reseeded = spec;
  reseeded.seed = spec.seed + 1;
  EXPECT_NE(expand_schedule(reseeded).digest, a.digest);
}

TEST(ScenarioSchedule, HonorsTheChurnShape) {
  const ScenarioSpec spec = full_spec();
  const ScenarioSchedule schedule = expand_schedule(spec);
  EXPECT_EQ(schedule.total_sessions, spec.sessions);
  ASSERT_EQ(schedule.bursts.size(), spec.bursts);
  std::size_t counted = 0;
  std::set<std::size_t> indices;
  for (std::size_t b = 0; b < schedule.bursts.size(); ++b) {
    EXPECT_EQ(schedule.bursts[b].at_ms, spec.burst_gap_ms * b);
    counted += schedule.bursts[b].sessions.size();
    for (const PlannedSession& s : schedule.bursts[b].sessions) {
      indices.insert(s.index);
      EXPECT_LT(s.index, spec.sessions);
      // affinity_keys = 9 draws from a 9-key space: "k0".."k8".
      ASSERT_FALSE(s.affinity_key.empty());
      EXPECT_EQ(s.affinity_key[0], 'k');
    }
  }
  EXPECT_EQ(counted, spec.sessions);
  EXPECT_EQ(indices.size(), spec.sessions);  // every index exactly once
  EXPECT_TRUE(schedule.stall_planned);
  EXPECT_EQ(schedule.stall_before_burst, spec.stall_at_burst);
  EXPECT_EQ(schedule.stall_ms, spec.stall_ms);
  EXPECT_EQ(schedule.stall_replica, spec.stall_replica);
}

TEST(ScenarioSchedule, ComposesFaultWrappersFromThePlan) {
  ScenarioSpec spec;
  spec.name = "faulty";
  spec.env_ids = {"GridWorld"};
  spec.faults = {{"drop", 0.5}};
  spec.sessions = 6;
  spec.bursts = 2;
  const ScenarioSchedule schedule = expand_schedule(spec);
  for (const PlannedBurst& burst : schedule.bursts) {
    for (const PlannedSession& s : burst.sessions) {
      // Every session drew the only fault entry; its wrapper carries a
      // per-instance seed from the schedule stream.
      EXPECT_EQ(s.env_id.rfind("fault:drop:0.5:", 0), 0u) << s.env_id;
      EXPECT_NE(s.env_id.find(":GridWorld"), std::string::npos)
          << s.env_id;
      // Unique-key mode (affinity_keys = 0): "s<index>". (Built with +=
      // — `"s" + std::to_string(...)` trips GCC 12's -Wrestrict false
      // positive, PR105651, at -O2.)
      std::string expected_key = "s";
      expected_key += std::to_string(s.index);
      EXPECT_EQ(s.affinity_key, expected_key);
    }
  }
  // An all-"none" plan leaves env ids untouched.
  spec.faults = {{"none", 0.0}};
  for (const PlannedBurst& burst : expand_schedule(spec).bursts) {
    for (const PlannedSession& s : burst.sessions) {
      EXPECT_EQ(s.env_id, "GridWorld");
    }
  }
}

TEST(ScenarioPack, EveryBuiltinValidatesExpandsAndRoundTrips) {
  const std::vector<std::string> names = builtin_scenarios();
  ASSERT_GE(names.size(), 6u);
  std::set<std::string> unique(names.begin(), names.end());
  EXPECT_EQ(unique.size(), names.size());
  for (const std::string& name : names) {
    const ScenarioSpec spec = builtin_scenario(name);
    EXPECT_EQ(spec.name, name);
    EXPECT_NO_THROW(spec.validate()) << name;
    const ScenarioSchedule schedule = expand_schedule(spec);
    EXPECT_EQ(schedule.total_sessions, spec.sessions) << name;
    EXPECT_EQ(parse_scenario(spec.to_text()).to_text(), spec.to_text())
        << name;
  }
}

TEST(ScenarioPack, UnknownNamesThrowListingTheKnownOnes) {
  try {
    (void)builtin_scenario("no-such-scenario");
    FAIL() << "expected std::invalid_argument";
  } catch (const std::invalid_argument& e) {
    EXPECT_NE(std::string(e.what()).find("churn-storm"), std::string::npos)
        << e.what();
  }
}

}  // namespace
}  // namespace oselm::scenario
