// End-to-end observability over the serving stack: a traced
// RouterQServer run (training + averaging + a hard replica kill with
// rescues) must export a Chrome trace-event JSON that validates, shows
// the batch/train/rescue/averaging span categories, and spans at least
// two distinct threads — the acceptance criterion for the tracing layer.
#include <gtest/gtest.h>

#include <chrono>
#include <set>
#include <string>
#include <thread>
#include <vector>

#include "obs/json.hpp"
#include "obs/metrics.hpp"
#include "obs/trace.hpp"
#include "rl/router.hpp"
#include "util/rng.hpp"

namespace oselm::obs {
namespace {

using rl::AsyncSessionMode;
using rl::AsyncSessionSpec;
using rl::RouterConfig;
using rl::RouterQServer;
using rl::SimplifiedOutputModel;

RouterConfig traced_router_config() {
  RouterConfig config;
  config.name = "traced-fleet";
  config.replicas = 2;
  config.backend_id = "software";
  config.backend.input_dim = 5;
  config.backend.hidden_units = 16;
  config.backend.l2_delta = 0.5;
  config.backend.spectral_normalize = true;
  config.backend.seed = 99;
  config.server.worker_threads = 2;
  config.server.max_batch = 8;
  config.server.max_wait_us = 50;
  config.server.max_live_sessions = 8;
  config.sync_every_updates = 32;
  return config;
}

AsyncSessionSpec session_spec(AsyncSessionMode mode, std::uint64_t env_seed,
                              std::uint64_t agent_seed,
                              std::size_t episodes) {
  AsyncSessionSpec spec;
  spec.mode = mode;
  spec.session.env_id = "ShapedCartPole-v0";
  spec.session.env_seed = env_seed;
  spec.session.agent_seed = agent_seed;
  spec.session.trainer.max_episodes = episodes;
  spec.session.trainer.solved_threshold = 1e9;
  spec.session.trainer.reset_interval = 0;
  return spec;
}

TEST(ServingTrace, RouterRunExportsPerfettoLoadableTrace) {
  Tracer::set_enabled(false);
  Tracer::reset_for_testing();
  Tracer::set_enabled(true);

  {
    RouterQServer router(traced_router_config(), SimplifiedOutputModel(4, 2));
    // Training sessions on both replicas: init_train + seq_train spans,
    // and enough updates for at least one averaging round.
    std::vector<std::size_t> trainers;
    for (std::size_t r = 0; r < 2; ++r) {
      AsyncSessionSpec train =
          session_spec(AsyncSessionMode::kTrain, 11 + r, 21 + r, 12);
      trainers.push_back(router.add_session({train, "trainer"}));
    }
    for (const std::size_t id : trainers) (void)router.wait(id);

    // A slow evaluation pinned mid-flight while its replica dies: the
    // rescue machinery records its spans and instants.
    AsyncSessionSpec victim =
        session_spec(AsyncSessionMode::kEvaluate, 913, 37, 10);
    victim.session.env_id = "delay:500:ShapedCartPole-v0";
    const std::size_t victim_id = router.add_session({victim, "victim"});
    router.kill_replica(router.preferred_replica("victim"));
    (void)router.wait(victim_id);
    router.stop();

    const rl::RouterStats stats = router.stats();
    EXPECT_GT(stats.captured_at_us, 0u);
    EXPECT_GT(stats.uptime_us, 0u);
    EXPECT_GE(stats.replacements, 1u);
  }
  Tracer::set_enabled(false);

  const std::vector<TraceEvent> events = Tracer::drain();
  std::set<std::string> span_categories;
  std::set<std::uint32_t> span_tids;
  for (const TraceEvent& event : events) {
    if (event.phase != 'X') continue;
    span_categories.insert(event.category);
    span_tids.insert(event.tid);
  }
  EXPECT_TRUE(span_categories.count("batch")) << "no batch spans";
  EXPECT_TRUE(span_categories.count("train")) << "no train spans";
  EXPECT_TRUE(span_categories.count("rescue")) << "no rescue spans";
  EXPECT_TRUE(span_categories.count("averaging")) << "no averaging spans";
  EXPECT_GE(span_tids.size(), 2u)
      << "spans must come from at least two threads";

  const std::string json = Tracer::chrome_trace_json(events);
  std::string error;
  EXPECT_TRUE(validate_chrome_trace(json, &error)) << error;

  JsonValue root;
  ASSERT_TRUE(parse_json(json, &root, &error)) << error;
  const JsonValue* trace_events = root.find("traceEvents");
  ASSERT_NE(trace_events, nullptr);
  EXPECT_TRUE(trace_events->is_array());
  EXPECT_GE(trace_events->items.size(), events.size());

  Tracer::reset_for_testing();
}

TEST(ServingTrace, AsyncStatsCarryCaptureStamps) {
  // The stats satellite alone (no tracing): captured_at_us/uptime_us are
  // stamped, merged keep-newest/keep-largest, and emitted in the JSON.
  RouterConfig config = traced_router_config();
  config.sync_every_updates = 0;
  RouterQServer router(config, SimplifiedOutputModel(4, 2));
  const std::size_t id = router.add_session(
      {session_spec(AsyncSessionMode::kEvaluate, 5, 7, 2), "probe"});
  (void)router.wait(id);
  const rl::RouterStats stats = router.stats();
  router.stop();

  EXPECT_GT(stats.captured_at_us, 1'577'836'800'000'000u);  // after 2020
  EXPECT_GT(stats.aggregate.captured_at_us, 0u);
  for (const rl::AsyncServerStats& replica : stats.per_replica) {
    EXPECT_GT(replica.captured_at_us, 0u);
    EXPECT_LE(replica.captured_at_us, stats.captured_at_us + 1'000'000u);
  }
  const std::string json = stats.to_json();
  EXPECT_NE(json.find("\"captured_at_us\": "), std::string::npos);
  EXPECT_NE(json.find("\"uptime_us\": "), std::string::npos);

  rl::AsyncServerStats merged;
  rl::AsyncServerStats newer;
  newer.captured_at_us = 100;
  newer.uptime_us = 50;
  merged.merge(newer);
  EXPECT_EQ(merged.captured_at_us, 100u);
  EXPECT_EQ(merged.uptime_us, 50u);
  rl::AsyncServerStats older;
  older.captured_at_us = 40;
  older.uptime_us = 80;
  merged.merge(older);
  EXPECT_EQ(merged.captured_at_us, 100u);  // keep newest stamp
  EXPECT_EQ(merged.uptime_us, 80u);        // keep largest uptime
}

}  // namespace
}  // namespace oselm::obs
