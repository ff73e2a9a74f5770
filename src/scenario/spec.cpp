#include "scenario/spec.hpp"

#include <cerrno>
#include <cstdlib>
#include <fstream>
#include <set>
#include <sstream>
#include <stdexcept>

#include "env/fault_env.hpp"
#include "rl/fault_backend.hpp"
#include "util/fault.hpp"

namespace oselm::scenario {

std::string_view to_string(ScenarioBackend backend) noexcept {
  switch (backend) {
    case ScenarioBackend::kAsync:
      return "async";
    case ScenarioBackend::kRouter:
      return "router";
  }
  return "unknown";
}

namespace {

std::string trim(const std::string& text) {
  std::size_t begin = 0;
  std::size_t end = text.size();
  while (begin < end && (text[begin] == ' ' || text[begin] == '\t')) ++begin;
  while (end > begin && (text[end - 1] == ' ' || text[end - 1] == '\t')) {
    --end;
  }
  return text.substr(begin, end - begin);
}

[[noreturn]] void fail(std::size_t line, const std::string& message) {
  throw std::invalid_argument("parse_scenario: line " +
                              std::to_string(line) + ": " + message);
}

std::uint64_t parse_u64(const std::string& value, std::size_t line,
                        const std::string& key) {
  if (value.empty()) fail(line, "empty value for '" + key + "'");
  std::uint64_t out = 0;
  for (const char c : value) {
    if (c < '0' || c > '9') {
      fail(line, "'" + key + "' value '" + value + "' is not an unsigned "
                 "integer");
    }
    const std::uint64_t digit = static_cast<std::uint64_t>(c - '0');
    if (out > (UINT64_MAX - digit) / 10) {
      fail(line, "'" + key + "' value '" + value + "' exceeds 64 bits");
    }
    out = out * 10 + digit;
  }
  return out;
}

double parse_double(const std::string& value, std::size_t line,
                    const std::string& key) {
  if (value.empty()) fail(line, "empty value for '" + key + "'");
  errno = 0;
  char* tail = nullptr;
  const double out = std::strtod(value.c_str(), &tail);
  if (errno != 0 || tail == value.c_str() || *tail != '\0') {
    fail(line, "'" + key + "' value '" + value + "' is not a number");
  }
  return out;
}

/// Parses "none" or "<kind>:<rate>" for the `key` fault axis ("fault" or
/// "backend_fault"), validating the kind against the decorator's `kinds`.
FaultPlanEntry parse_fault_entry(const std::string& value, std::size_t line,
                                 const std::string& key,
                                 std::string_view kinds) {
  FaultPlanEntry entry;
  if (value == "none") return entry;
  const std::size_t sep = value.find(':');
  if (sep == std::string::npos || sep == 0 || sep + 1 == value.size()) {
    fail(line, key + " '" + value + "' (expected none or <kind>:<rate>)");
  }
  entry.kind = value.substr(0, sep);
  if (util::kind_index(kinds, entry.kind) == std::string_view::npos) {
    fail(line, "unknown " + key + " kind '" + entry.kind + "' (expected " +
               std::string(kinds) + ")");
  }
  const std::string rate_key = key + " rate";
  entry.rate = parse_double(value.substr(sep + 1), line, rate_key);
  if (!(entry.rate >= 0.0 && entry.rate <= 1.0)) {
    const std::string rate = util::canonical_rate(entry.rate);
    fail(line, rate_key + " " + rate + " outside [0, 1]");
  }
  return entry;
}

}  // namespace

void ScenarioSpec::validate() const {
  const auto invalid = [this](const std::string& message) {
    throw std::invalid_argument("ScenarioSpec '" + name + "': " + message);
  };
  if (name.empty()) invalid("empty name");
  if (env_ids.empty()) invalid("no env entries (need at least one)");
  if (sessions == 0) invalid("sessions == 0");
  if (bursts == 0) invalid("bursts == 0");
  if (episodes_per_session == 0) invalid("episodes_per_session == 0");
  if (max_steps_per_episode == 0) invalid("max_steps_per_episode == 0");
  if (max_live_sessions == 0) invalid("max_live_sessions == 0");
  if (hidden_units == 0) invalid("hidden_units == 0");
  if (replicas == 0) invalid("replicas == 0");
  if (backend_id.empty()) invalid("empty backend_id");
  if (!(train_fraction >= 0.0 && train_fraction <= 1.0)) {
    invalid("train_fraction " + util::canonical_rate(train_fraction) +
            " outside [0, 1]");
  }
  if (stall_ms > 0 && stall_at_burst >= bursts) {
    invalid("stall_at_burst " + std::to_string(stall_at_burst) +
            " out of range (bursts = " + std::to_string(bursts) + ")");
  }
  if (stall_ms > 0 && backend == ScenarioBackend::kRouter &&
      stall_replica >= replicas) {
    invalid("stall_replica " + std::to_string(stall_replica) +
            " out of range (replicas = " + std::to_string(replicas) + ")");
  }
  if (stop_deadline_ms == 0) invalid("stop_deadline_ms == 0");
  const std::string backend_kinds(rl::backend_fault_kinds());
  const bool known_backend_fault =
      backend_fault_kind == "none" ||
      util::kind_index(backend_kinds, backend_fault_kind) != std::string::npos;
  if (!known_backend_fault) {
    invalid("unknown backend_fault kind '" + backend_fault_kind +
            "' (expected none|" + backend_kinds + ")");
  }
  if (!(backend_fault_rate >= 0.0 && backend_fault_rate <= 1.0)) {
    invalid("backend_fault rate " + util::canonical_rate(backend_fault_rate) +
            " outside [0, 1]");
  }
  if (backend_fault_kind != "none" && backend == ScenarioBackend::kRouter &&
      backend_fault_replica >= replicas) {
    invalid("backend_fault_replica " + std::to_string(backend_fault_replica) +
            " out of range (replicas = " + std::to_string(replicas) + ")");
  }
  if (kill_planned) {
    if (backend != ScenarioBackend::kRouter) {
      invalid("kill requires the router tier");
    }
    if (kill_replica >= replicas) {
      invalid("kill replica " + std::to_string(kill_replica) +
              " out of range (replicas = " + std::to_string(replicas) + ")");
    }
    if (kill_at_burst >= bursts) {
      invalid("kill burst " + std::to_string(kill_at_burst) +
              " out of range (bursts = " + std::to_string(bursts) + ")");
    }
  }
  if (admission_wait_us > 0 && backend != ScenarioBackend::kRouter) {
    invalid("admission_wait_us requires the router tier");
  }
  if (sync_every_updates > 0 && backend != ScenarioBackend::kRouter) {
    invalid("sync_every_updates requires the router tier");
  }
}

std::string ScenarioSpec::to_text() const {
  std::ostringstream out;
  out << "name = " << name << "\n";
  out << "backend = " << to_string(backend) << "\n";
  out << "seed = " << seed << "\n";
  for (const std::string& id : env_ids) out << "env = " << id << "\n";
  for (const FaultPlanEntry& entry : faults) {
    if (entry.kind == "none") {
      out << "fault = none\n";
    } else {
      out << "fault = " << entry.kind << ":" << util::canonical_rate(entry.rate)
          << "\n";
    }
  }
  out << "train_fraction = " << util::canonical_rate(train_fraction) << "\n";
  out << "sessions = " << sessions << "\n";
  out << "episodes_per_session = " << episodes_per_session << "\n";
  out << "max_steps_per_episode = " << max_steps_per_episode << "\n";
  out << "bursts = " << bursts << "\n";
  out << "burst_gap_ms = " << burst_gap_ms << "\n";
  out << "affinity_keys = " << affinity_keys << "\n";
  out << "backend_id = " << backend_id << "\n";
  out << "hidden_units = " << hidden_units << "\n";
  out << "max_live_sessions = " << max_live_sessions << "\n";
  out << "worker_threads = " << worker_threads << "\n";
  out << "replicas = " << replicas << "\n";
  out << "sync_every_updates = " << sync_every_updates << "\n";
  out << "stall_ms = " << stall_ms << "\n";
  out << "stall_replica = " << stall_replica << "\n";
  out << "stall_at_burst = " << stall_at_burst << "\n";
  out << "stop_after_ms = " << stop_after_ms << "\n";
  out << "stop_deadline_ms = " << stop_deadline_ms << "\n";
  if (backend_fault_kind == "none") {
    out << "backend_fault = none\n";
  } else {
    out << "backend_fault = " << backend_fault_kind << ":"
        << util::canonical_rate(backend_fault_rate) << "\n";
  }
  out << "backend_fault_replica = " << backend_fault_replica << "\n";
  if (kill_planned) {
    out << "kill = " << kill_replica << "@" << kill_at_burst << "\n";
  } else {
    out << "kill = none\n";
  }
  out << "admission_wait_us = " << admission_wait_us << "\n";
  out << "prime = " << (prime ? 1 : 0) << "\n";
  return out.str();
}

ScenarioSpec parse_scenario(const std::string& text) {
  ScenarioSpec spec;
  spec.env_ids.clear();
  std::set<std::string> seen;  // scalar keys must appear at most once
  std::istringstream stream(text);
  std::string raw;
  std::size_t line_number = 0;
  while (std::getline(stream, raw)) {
    ++line_number;
    const std::size_t comment = raw.find('#');
    if (comment != std::string::npos) raw.erase(comment);
    const std::string line = trim(raw);
    if (line.empty()) continue;
    const std::size_t eq = line.find('=');
    if (eq == std::string::npos) {
      fail(line_number, "expected 'key = value', got '" + line + "'");
    }
    const std::string key = trim(line.substr(0, eq));
    const std::string value = trim(line.substr(eq + 1));
    if (key.empty()) fail(line_number, "empty key");
    if (value.empty()) fail(line_number, "empty value for '" + key + "'");

    // Repeated keys: the env mix and the fault plan.
    if (key == "env") {
      spec.env_ids.push_back(value);
      continue;
    }
    if (key == "fault") {
      spec.faults.push_back(
          parse_fault_entry(value, line_number, key, env::fault_kinds()));
      continue;
    }

    if (!seen.insert(key).second) {
      fail(line_number, "duplicate key '" + key + "'");
    }
    if (key == "name") {
      spec.name = value;
    } else if (key == "backend") {
      if (value == "async") {
        spec.backend = ScenarioBackend::kAsync;
      } else if (value == "router") {
        spec.backend = ScenarioBackend::kRouter;
      } else {
        fail(line_number, "unknown backend '" + value +
                          "' (expected async|router)");
      }
    } else if (key == "seed") {
      spec.seed = parse_u64(value, line_number, key);
    } else if (key == "train_fraction") {
      spec.train_fraction = parse_double(value, line_number, key);
      if (!(spec.train_fraction >= 0.0 && spec.train_fraction <= 1.0)) {
        fail(line_number, "train_fraction " + value + " outside [0, 1]");
      }
    } else if (key == "sessions") {
      spec.sessions = parse_u64(value, line_number, key);
    } else if (key == "episodes_per_session") {
      spec.episodes_per_session = parse_u64(value, line_number, key);
    } else if (key == "max_steps_per_episode") {
      spec.max_steps_per_episode = parse_u64(value, line_number, key);
    } else if (key == "bursts") {
      spec.bursts = parse_u64(value, line_number, key);
    } else if (key == "burst_gap_ms") {
      spec.burst_gap_ms = parse_u64(value, line_number, key);
    } else if (key == "affinity_keys") {
      spec.affinity_keys = parse_u64(value, line_number, key);
    } else if (key == "backend_id") {
      spec.backend_id = value;
    } else if (key == "hidden_units") {
      spec.hidden_units = parse_u64(value, line_number, key);
    } else if (key == "max_live_sessions") {
      spec.max_live_sessions = parse_u64(value, line_number, key);
    } else if (key == "worker_threads") {
      spec.worker_threads = parse_u64(value, line_number, key);
    } else if (key == "replicas") {
      spec.replicas = parse_u64(value, line_number, key);
    } else if (key == "sync_every_updates") {
      spec.sync_every_updates = parse_u64(value, line_number, key);
    } else if (key == "stall_ms") {
      spec.stall_ms = parse_u64(value, line_number, key);
    } else if (key == "stall_replica") {
      spec.stall_replica = parse_u64(value, line_number, key);
    } else if (key == "stall_at_burst") {
      spec.stall_at_burst = parse_u64(value, line_number, key);
    } else if (key == "stop_after_ms") {
      spec.stop_after_ms = parse_u64(value, line_number, key);
    } else if (key == "stop_deadline_ms") {
      spec.stop_deadline_ms = parse_u64(value, line_number, key);
    } else if (key == "backend_fault") {
      const FaultPlanEntry entry = parse_fault_entry(
          value, line_number, key, rl::backend_fault_kinds());
      spec.backend_fault_kind = entry.kind;
      spec.backend_fault_rate = entry.rate;
    } else if (key == "backend_fault_replica") {
      spec.backend_fault_replica = parse_u64(value, line_number, key);
    } else if (key == "kill") {
      if (value == "none") {
        spec.kill_planned = false;
      } else {
        const std::size_t sep = value.find('@');
        if (sep == std::string::npos || sep == 0 ||
            sep + 1 == value.size()) {
          fail(line_number, "kill '" + value +
                            "' (expected none or <replica>@<burst>)");
        }
        spec.kill_planned = true;
        spec.kill_replica =
            parse_u64(value.substr(0, sep), line_number, "kill replica");
        spec.kill_at_burst =
            parse_u64(value.substr(sep + 1), line_number, "kill burst");
      }
    } else if (key == "admission_wait_us") {
      spec.admission_wait_us = parse_u64(value, line_number, key);
    } else if (key == "prime") {
      const std::uint64_t flag = parse_u64(value, line_number, key);
      if (flag > 1) {
        fail(line_number, "'prime' value '" + value + "' is not 0 or 1");
      }
      spec.prime = flag == 1;
    } else {
      fail(line_number, "unknown key '" + key + "'");
    }
  }
  spec.validate();
  return spec;
}

ScenarioSpec load_scenario_file(const std::string& path) {
  std::ifstream file(path);
  if (!file) {
    throw std::runtime_error("load_scenario_file: cannot read '" + path +
                             "'");
  }
  std::ostringstream content;
  content << file.rdbuf();
  return parse_scenario(content.str());
}

}  // namespace oselm::scenario
