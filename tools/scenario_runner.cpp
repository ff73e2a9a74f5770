// scenario_runner — execute chaos scenarios and emit verdict JSON.
//
// Usage:
//   scenario_runner --list                      # builtin pack names
//   scenario_runner --print-spec <name>         # builtin spec as text
//   scenario_runner --builtin <name> [--out F]  # run one builtin
//   scenario_runner --spec <file> [--out F]     # run a spec file
//   scenario_runner --all [--out-dir D]         # run the whole pack
//
// The verdict JSON goes to stdout (and to --out/--out-dir when given).
// Beside each written verdict `<name>.json` the runner writes
// `<name>.core.json`, the deterministic core alone
// (ScenarioVerdict::deterministic_json()), so two runs' cores diff as
// files; router scenarios also get `<name>.health.json`.
// Exit status: 0 when every invariant of every scenario passed, 2 when
// any invariant was violated, 1 on usage/spec errors. CI runs
// `scenario_runner --all` under TSan and ASan as the chaos soak.
//
// Observability: `--trace-out <file>` turns the event tracer on for the
// whole run and writes a Chrome trace-event JSON (load it in Perfetto /
// chrome://tracing) on exit; `--metrics-out <file>` streams metrics
// snapshots to a .metrics.jsonl time series while scenarios run. Both
// compose with every run mode.
#include <cstdint>
#include <cstdio>
#include <exception>
#include <fstream>
#include <stdexcept>
#include <string>
#include <vector>

#include "obs/metrics.hpp"
#include "obs/trace.hpp"
#include "scenario/pack.hpp"
#include "scenario/runner.hpp"
#include "scenario/spec.hpp"

namespace {

using oselm::scenario::ScenarioRunner;
using oselm::scenario::ScenarioSpec;
using oselm::scenario::ScenarioVerdict;

/// Metrics sampling period: a builtin scenario runs for milliseconds,
/// so a coarser period would leave no mid-run samples in the file.
constexpr std::uint64_t kMetricsPeriodMs = 2;

int usage(const char* argv0) {
  std::fprintf(
      stderr,
      "usage: %s --list\n"
      "       %s --print-spec <name>\n"
      "       %s --builtin <name> [--out <file>]\n"
      "       %s --spec <file> [--out <file>]\n"
      "       %s --all [--out-dir <dir>]\n"
      "options (any run mode):\n"
      "       --trace-out <file>    Chrome trace-event JSON (Perfetto)\n"
      "       --metrics-out <file>  metrics snapshots (.metrics.jsonl)\n",
      argv0, argv0, argv0, argv0, argv0);
  return 1;
}

/// Pulls `--flag <value>` out of args (any position); empty if absent.
std::string take_flag(std::vector<std::string>& args,
                      const std::string& flag) {
  for (std::size_t i = 0; i + 1 < args.size(); ++i) {
    if (args[i] == flag) {
      std::string value = args[i + 1];
      args.erase(args.begin() + static_cast<std::ptrdiff_t>(i),
                 args.begin() + static_cast<std::ptrdiff_t>(i) + 2);
      return value;
    }
  }
  return "";
}

/// Turns the requested sinks on for the run and flushes them on
/// destruction — one object at the top of main covers every exit path
/// that unwinds normally.
class ObsSinks {
 public:
  ObsSinks(std::string trace_out, std::string metrics_out)
      : trace_out_(std::move(trace_out)) {
    if (!trace_out_.empty()) oselm::obs::Tracer::set_enabled(true);
    if (!metrics_out.empty()) {
      if (!oselm::obs::MetricsRegistry::global().start_sampler(
              metrics_out, kMetricsPeriodMs)) {
        std::fprintf(stderr,
                     "scenario_runner: cannot open metrics sink %s\n",
                     metrics_out.c_str());
      }
    }
  }
  ~ObsSinks() {
    oselm::obs::MetricsRegistry::global().stop_sampler();
    if (trace_out_.empty()) return;
    oselm::obs::Tracer::set_enabled(false);
    if (oselm::obs::Tracer::write_chrome_trace(trace_out_)) {
      std::fprintf(stderr, "scenario_runner: trace written to %s\n",
                   trace_out_.c_str());
    } else {
      std::fprintf(stderr, "scenario_runner: cannot write trace to %s\n",
                   trace_out_.c_str());
    }
  }
  ObsSinks(const ObsSinks&) = delete;
  ObsSinks& operator=(const ObsSinks&) = delete;

 private:
  std::string trace_out_;
};

/// "<dir>/<name>.json" -> "<dir>/<name><suffix>" (plain append when the
/// verdict path has no .json suffix).
std::string sibling_path(const std::string& out_path,
                         const std::string& suffix) {
  const std::string json = ".json";
  if (out_path.size() > json.size() &&
      out_path.compare(out_path.size() - json.size(), json.size(), json) ==
          0) {
    return out_path.substr(0, out_path.size() - json.size()) + suffix;
  }
  return out_path + suffix;
}

/// Writes `text` to `path`; throws std::runtime_error on failure.
void write_text(const std::string& path, const std::string& text) {
  std::ofstream file(path);
  file << text;
  if (!file) {
    throw std::runtime_error("cannot write '" + path + "'");
  }
}

/// Runs one spec; prints and optionally writes the verdict, its
/// deterministic core and, for router scenarios, the per-replica
/// health-timeline artifact alongside it. Returns the verdict's pass
/// flag.
bool run_one(const ScenarioSpec& spec, const std::string& out_path) {
  const ScenarioRunner runner(spec);
  const ScenarioVerdict verdict = runner.run();
  std::printf("%s", verdict.to_json().c_str());
  if (!out_path.empty()) {
    oselm::scenario::write_verdict(verdict, out_path);
    write_text(sibling_path(out_path, ".core.json"),
               verdict.deterministic_json());
    if (!verdict.health_json.empty()) {
      write_text(sibling_path(out_path, ".health.json"), verdict.health_json);
    }
    std::fprintf(stderr, "scenario '%s': %s — verdict written to %s\n",
                 spec.name.c_str(), verdict.pass ? "PASS" : "FAIL",
                 out_path.c_str());
  } else {
    std::fprintf(stderr, "scenario '%s': %s\n", spec.name.c_str(),
                 verdict.pass ? "PASS" : "FAIL");
  }
  return verdict.pass;
}

}  // namespace

int main(int argc, char** argv) {
  std::vector<std::string> args(argv + 1, argv + argc);
  const std::string trace_out = take_flag(args, "--trace-out");
  const std::string metrics_out = take_flag(args, "--metrics-out");
  const ObsSinks sinks(trace_out, metrics_out);
  try {
    if (args.size() == 1 && args[0] == "--list") {
      for (const std::string& name : oselm::scenario::builtin_scenarios()) {
        std::printf("%s\n", name.c_str());
      }
      return 0;
    }
    if (args.size() == 2 && args[0] == "--print-spec") {
      std::printf("%s",
                  oselm::scenario::builtin_scenario(args[1]).to_text()
                      .c_str());
      return 0;
    }
    if (args.size() >= 2 &&
        (args[0] == "--builtin" || args[0] == "--spec")) {
      std::string out_path;
      if (args.size() == 4 && args[2] == "--out") {
        out_path = args[3];
      } else if (args.size() != 2) {
        return usage(argv[0]);
      }
      const ScenarioSpec spec =
          args[0] == "--builtin"
              ? oselm::scenario::builtin_scenario(args[1])
              : oselm::scenario::load_scenario_file(args[1]);
      return run_one(spec, out_path) ? 0 : 2;
    }
    if (!args.empty() && args[0] == "--all") {
      std::string out_dir;
      if (args.size() == 3 && args[1] == "--out-dir") {
        out_dir = args[2];
      } else if (args.size() != 1) {
        return usage(argv[0]);
      }
      bool all_pass = true;
      for (const std::string& name : oselm::scenario::builtin_scenarios()) {
        const std::string out_path =
            out_dir.empty() ? "" : out_dir + "/" + name + ".json";
        all_pass =
            run_one(oselm::scenario::builtin_scenario(name), out_path) &&
            all_pass;
      }
      return all_pass ? 0 : 2;
    }
    return usage(argv[0]);
  } catch (const std::exception& e) {
    std::fprintf(stderr, "scenario_runner: %s\n", e.what());
    return 1;
  }
}
