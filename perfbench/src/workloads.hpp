// The three workloads and the metric sets they report.
//
// Every workload reports every metric, so runs of different workloads
// share one schema: the untraced run prints the end-to-end set, the
// traced run the per-layer set. A per-layer metric of a layer the
// workload never calls reads 0.
#pragma once

#include <cstdint>
#include <vector>

#include "common.hpp"
#include "probes.hpp"

namespace perfbench {

/// End-to-end metrics (tracing off).
struct EndToEnd {
  double setup_s = 0.0;      ///< median of the run's set-up repetitions
  double steps_per_s = 0.0;  ///< env steps over the timed-phase wall time
  double step_p50_us = 0.0;  ///< per-step cycle time, exact samples
  double step_p99_us = 0.0;
  double peak_rss_mb = 0.0;
};

/// Per-layer metrics (traced run). See perfbench/README.md for which
/// end-to-end metric each one should move, on which workload.
struct Layers {
  std::uint64_t step_samples = 0;
  std::uint64_t env_step_calls = 0;
  double env_step_busy_us = 0.0;

  // rl::Agent decorator, solo training only: mean us per call.
  double agent_act_us[3] = {0.0, 0.0, 0.0};  ///< oselm, fpga, dqn
  double agent_observe_us[3] = {0.0, 0.0, 0.0};

  /// Software OsElmQBackend decorator (solo: the OS-ELM design).
  BackendCounters backend;
  double backend_busy_frac = 0.0;

  // fpga-q20 backend decorator (host-side Q20 time) and hw ledger.
  double hw_host_predict_us = 0.0;    ///< mean per predict call
  double hw_host_seq_train_us = 0.0;  ///< mean per seq_train call
  double hw_board_predict_s = 0.0;    ///< modeled PYNQ-Z1 s per trial
  double hw_board_seq_train_s = 0.0;
  double hw_board_init_train_s = 0.0;
  double hw_board_solve_s = 0.0;
  std::uint64_t hw_q20_saturations = 0;

  // nn (DQN ledger): mean us per call.
  double nn_train_dqn_us = 0.0;
  double nn_predict_us = 0.0;

  // Solo training outcome per design (oselm, fpga, dqn).
  double solve_s[3] = {0.0, 0.0, 0.0};   ///< mean wall s per trial
  double episodes[3] = {0.0, 0.0, 0.0};  ///< mean episodes to complete

  // async_server (stats() deltas + outside timing).
  std::uint64_t async_batches = 0;
  double async_rows_per_batch = 0.0;
  std::uint64_t async_train_updates = 0;
  double async_wait_p50_us = 0.0;  ///< step cycle minus env time
  double async_wait_p99_us = 0.0;

  // router (outside timing + RouterStats).
  double router_add_p50_us = 0.0;
  double router_add_p99_us = 0.0;
  std::uint64_t router_spillovers = 0;
  std::uint64_t router_placement_rejections = 0;
  double router_replica_steps_skew = 0.0;

  // Sessions (open loop): due time -> result delivered.
  double session_p50_ms = 0.0;
  double session_p99_ms = 0.0;
  std::uint64_t session_samples = 0;

  // Harness.
  double gen_late_p99_ms = 0.0;
  std::uint64_t gen_sessions_offered = 0;
  double trace_overhead_pct = 0.0;
};

void add_end_to_end(Report& report, const EndToEnd& e2e);
void add_layers(Report& report, const Layers& layers);

/// Flops / bytes of one k = 1 OS-ELM sequential update at N hidden units
/// and n inputs (formulas in perfbench/README.md).
double seq_train_flops(double hidden, double inputs);
double seq_train_bytes(double hidden, double inputs);

/// Mean of `total` over `calls` (0 when there were no calls).
double per_call(double total, std::uint64_t calls);

/// Step rate and cycle-time percentiles of a run, each the median over
/// the best blocks for that statistic (see summarize).
struct BlockStats {
  double steps_per_s = 0.0;
  double p50_us = 0.0;
  double p99_us = 0.0;
  double wait_p50_us = 0.0;  ///< traced runs
  double wait_p99_us = 0.0;
  std::uint64_t steps = 0;  ///< step samples over all blocks
  std::size_t blocks = 0;
};

/// For each statistic, the median over the best `keep` fraction of the
/// blocks (highest rates, lowest latencies; at least one block).
///
/// On a shared host a co-tenant can slow every CPU-bound block by up to
/// ~1.6x for seconds to minutes at a time; a median over all blocks then
/// follows how much of the run the co-tenant happened to overlap. The
/// best blocks measure the program on the uncontended host, which is
/// what two versions of the program are compared on. Closed-loop,
/// CPU-bound workloads keep the best tenth; the open loop, whose rate is
/// fixed by its offered load, keeps every block (a plain median).
BlockStats summarize(const std::vector<StepBlock>& blocks, double keep);

/// Median over the best `keep` fraction of `values` (at least one).
double best_median(std::vector<double> values, double keep,
                   bool higher_is_better);

/// setup_s of a run: the median over the fastest quarter of its set-up
/// repetitions, for the same reason summarize() keeps the best blocks.
/// Prints every repetition.
double setup_seconds(std::vector<double> repetitions);

Report run_solo_train(const Options& options);
Report run_serve_train(const Options& options);
Report run_fleet_churn(const Options& options);

}  // namespace perfbench
