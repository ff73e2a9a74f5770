// Benchmark driver entry point. Usage:
//
//   perfbench_driver --workload <solo-train|serve-train|fleet-churn>
//                    --seed <n> --seconds <s> --trace <0|1>
//                    [--trace-out <path>]
//
// Prints a config line, human-readable progress, and as its LAST line the
// JSON result object. Exits 0 when a result was printed (the result
// itself says whether the outputs were correct), 2 on usage or runtime
// errors without printing a result.
#include <algorithm>
#include <cmath>
#include <cstdio>
#include <exception>
#include <string>

#include "obs/trace.hpp"
#include "workloads.hpp"

namespace perfbench {

void add_end_to_end(Report& report, const EndToEnd& e2e) {
  report.add("setup_s", e2e.setup_s, "s");
  report.add("steps_per_s", e2e.steps_per_s, "1/s");
  report.add("step_p50_us", e2e.step_p50_us, "us");
  report.add("step_p99_us", e2e.step_p99_us, "us");
  report.add("peak_rss_mb", e2e.peak_rss_mb, "MiB");
}

void add_layers(Report& report, const Layers& l) {
  const auto count = [](std::uint64_t v) { return static_cast<double>(v); };
  static const char* const kDesigns[3] = {"oselm", "fpga", "dqn"};
  report.add("step.samples", count(l.step_samples), "count");
  report.add("env.step.calls", count(l.env_step_calls), "count");
  report.add("env.step.busy_us", l.env_step_busy_us, "us");
  for (int d = 0; d < 3; ++d) {
    report.add(std::string("agent.act_us.") + kDesigns[d], l.agent_act_us[d],
               "us");
    report.add(std::string("agent.observe_us.") + kDesigns[d],
               l.agent_observe_us[d], "us");
  }
  const BackendCounters& b = l.backend;
  report.add("backend.predict.calls", count(b.predict_calls), "count");
  report.add("backend.predict.rows", count(b.predict_rows), "count");
  report.add("backend.predict.busy_us", b.predict_us, "us");
  report.add("backend.seq_train.calls", count(b.seq_train_calls), "count");
  report.add("backend.seq_train.busy_us", b.seq_train_us, "us");
  report.add("backend.init_train.calls", count(b.init_train_calls), "count");
  report.add("backend.init_train.busy_us", b.init_train_us, "us");
  report.add("backend.busy_frac", l.backend_busy_frac, "fraction");

  // Kernel work is computed from N-tilde = 64 and the 5-wide (s, a) input.
  const double flops = seq_train_flops(64, 5);
  report.add("kernels.seq_train_flops", flops, "flop");
  report.add("kernels.seq_train_bytes", seq_train_bytes(64, 5), "B");
  report.add("kernels.seq_train_gflops_s",
             b.seq_train_us > 0.0
                 ? flops * count(b.seq_train_calls) / b.seq_train_us * 1e-3
                 : 0.0,
             "GFLOP/s");

  report.add("hw.host.predict_us", l.hw_host_predict_us, "us");
  report.add("hw.host.seq_train_us", l.hw_host_seq_train_us, "us");
  report.add("hw.board_s.predict", l.hw_board_predict_s, "s");
  report.add("hw.board_s.seq_train", l.hw_board_seq_train_s, "s");
  report.add("hw.board_s.init_train", l.hw_board_init_train_s, "s");
  report.add("hw.board_solve_s", l.hw_board_solve_s, "s");
  report.add("hw.q20_saturations", count(l.hw_q20_saturations), "count");
  report.add("nn.train_dqn_us", l.nn_train_dqn_us, "us");
  report.add("nn.predict_us", l.nn_predict_us, "us");
  for (int d = 0; d < 3; ++d) {
    report.add(std::string("solo.solve_s.") + kDesigns[d], l.solve_s[d], "s");
    report.add(std::string("solo.episodes.") + kDesigns[d], l.episodes[d],
               "count");
  }

  report.add("async.batches", count(l.async_batches), "count");
  report.add("async.rows_per_batch", l.async_rows_per_batch, "rows");
  report.add("async.train_updates", count(l.async_train_updates), "count");
  report.add("async.wait_us.p50", l.async_wait_p50_us, "us");
  report.add("async.wait_us.p99", l.async_wait_p99_us, "us");

  report.add("router.add_session_us.p50", l.router_add_p50_us, "us");
  report.add("router.add_session_us.p99", l.router_add_p99_us, "us");
  report.add("router.spillovers", count(l.router_spillovers), "count");
  report.add("router.placement_rejections",
             count(l.router_placement_rejections), "count");
  report.add("router.replica_steps_skew", l.router_replica_steps_skew,
             "ratio");

  report.add("session.p50_ms", l.session_p50_ms, "ms");
  report.add("session.p99_ms", l.session_p99_ms, "ms");
  report.add("session.samples", count(l.session_samples), "count");

  report.add("gen.late_ms.p99", l.gen_late_p99_ms, "ms");
  report.add("gen.sessions_offered", count(l.gen_sessions_offered), "count");
  report.add("trace.overhead_pct", l.trace_overhead_pct, "%");
}

double setup_seconds(std::vector<double> repetitions) {
  std::printf("setup_s repetitions:");
  for (const double s : repetitions) std::printf(" %.6f", s);
  std::printf("\n");
  return best_median(std::move(repetitions), 0.25, false);
}

double seq_train_flops(double hidden, double inputs) {
  // hidden projection 2nN + bias/activation 2N, P h 2N^2, h.u 2N,
  // upper-triangle rank-1 downdate 2 * N(N+1)/2, beta dot + axpy 4N.
  return 2.0 * inputs * hidden + 2.0 * hidden + 2.0 * hidden * hidden +
         2.0 * hidden + hidden * (hidden + 1.0) + 4.0 * hidden;
}

double seq_train_bytes(double hidden, double inputs) {
  // 8-byte doubles, no cache reuse assumed: P read by the mat-vec, its
  // upper triangle read and written by the downdate, its strict lower
  // triangle written by the mirror; alpha (n x N), bias, beta (read and
  // written) and the h/u vectors (written, then read).
  const double p = hidden * hidden + hidden * (hidden + 1.0) +
                   hidden * (hidden - 1.0) / 2.0;
  const double vectors = inputs * hidden + hidden + 2.0 * hidden + 4.0 * hidden;
  return 8.0 * (p + vectors);
}

double per_call(double total, std::uint64_t calls) {
  return calls == 0 ? 0.0 : total / static_cast<double>(calls);
}

double best_median(std::vector<double> values, double keep,
                   bool higher_is_better) {
  if (values.empty()) return 0.0;
  std::sort(values.begin(), values.end());
  if (higher_is_better) std::reverse(values.begin(), values.end());
  const auto kept = static_cast<std::size_t>(
      std::ceil(keep * static_cast<double>(values.size())));
  values.resize(std::max<std::size_t>(kept, 1));
  return median(std::move(values));
}

BlockStats summarize(const std::vector<StepBlock>& blocks, double keep) {
  BlockStats stats;
  std::vector<double> rates;
  std::vector<double> p50;
  std::vector<double> p99;
  std::vector<double> w50;
  std::vector<double> w99;
  for (const StepBlock& b : blocks) {
    if (b.steps == 0 || !(b.seconds > 0.0)) continue;
    stats.steps += b.steps;
    ++stats.blocks;
    rates.push_back(static_cast<double>(b.steps) / b.seconds);
    p50.push_back(b.cycle_p50_us);
    p99.push_back(b.cycle_p99_us);
    w50.push_back(b.wait_p50_us);
    w99.push_back(b.wait_p99_us);
  }
  stats.steps_per_s = best_median(rates, keep, true);
  stats.p50_us = best_median(p50, keep, false);
  stats.p99_us = best_median(p99, keep, false);
  stats.wait_p50_us = best_median(w50, keep, false);
  stats.wait_p99_us = best_median(w99, keep, false);
  return stats;
}

}  // namespace perfbench

int main(int argc, char** argv) {
  using namespace perfbench;
  try {
    const Options options = parse_options(argc, argv);
    print_config_line(options);
    Report report;
    if (options.workload == "solo-train") {
      report = run_solo_train(options);
    } else if (options.workload == "serve-train") {
      report = run_serve_train(options);
    } else if (options.workload == "fleet-churn") {
      report = run_fleet_churn(options);
    } else {
      std::fprintf(stderr, "unknown workload '%s'\n",
                   options.workload.c_str());
      return 2;
    }
    if (options.trace && !options.trace_out.empty()) {
      std::string error;
      const long events = write_trace(options.trace_out, &error);
      if (events < 0) {
        report.fail("trace export failed: " + error);
      } else {
        std::printf("trace: %s events=%ld dropped=%llu\n",
                    options.trace_out.c_str(), events,
                    static_cast<unsigned long long>(
                        oselm::obs::Tracer::dropped_events()));
      }
    }
    print_result_line(report);
    return 0;
  } catch (const std::exception& e) {
    std::fprintf(stderr, "perfbench_driver: %s\n", e.what());
    return 2;
  }
}
