// Shared serving-session types: the vocabulary rl::AsyncQServer
// (async_server.hpp), rl::RouterQServer (router.hpp) and the scenario
// driver use to describe sessions, admission refusals and session
// endings, plus the counter-field tables their stats structs export and
// the deadline rule their bounded waits share.
#pragma once

#include <array>
#include <atomic>
#include <chrono>
#include <cstddef>
#include <cstdint>
#include <iterator>
#include <optional>
#include <stdexcept>
#include <string>
#include <string_view>
#include <utility>

#include "obs/metrics.hpp"
#include "rl/oselm_q_agent.hpp"
#include "rl/trainer.hpp"

namespace oselm::rl {

/// Why an admission was refused. Machine-readable so callers (the router's
/// rejection accounting, the scenario chaos driver) can attribute refusals
/// without parsing error strings.
enum class AdmissionRejectReason {
  kCapacity,     ///< live-session cap reached; retry after a retirement
  kStopping,     ///< the server is stopping / stopped; terminal
  kDuplicateId,  ///< the caller's session key is already live (driver-side)
};

/// "capacity" / "stopping" / "duplicate-id" — the verdict-JSON spelling.
[[nodiscard]] constexpr std::string_view to_string(
    AdmissionRejectReason reason) noexcept {
  switch (reason) {
    case AdmissionRejectReason::kCapacity:
      return "capacity";
    case AdmissionRejectReason::kStopping:
      return "stopping";
    case AdmissionRejectReason::kDuplicateId:
      return "duplicate-id";
  }
  return "unknown";
}

/// Why a session's service ended. Machine-readable so callers (the
/// router's rescue logic, the scenario verdict) can attribute endings —
/// and in particular tell a backend failure (rescue-eligible) from an
/// environment failure (the session's own trajectory is poisoned;
/// terminal) — without parsing error strings.
enum class SessionEndCause {
  kCompleted,     ///< ran to its budget / solved criterion
  kStopped,       ///< the server stopped; retired at a step boundary
  kEnvError,      ///< the session's environment threw (worker side)
  kBackendError,  ///< the shared backend threw mid-batch (batch thread)
};

/// "completed" / "stopped" / "env-error" / "backend-error" — the
/// verdict-JSON spelling.
[[nodiscard]] constexpr std::string_view to_string(
    SessionEndCause cause) noexcept {
  switch (cause) {
    case SessionEndCause::kCompleted:
      return "completed";
    case SessionEndCause::kStopped:
      return "stopped";
    case SessionEndCause::kEnvError:
      return "env-error";
    case SessionEndCause::kBackendError:
      return "backend-error";
  }
  return "unknown";
}

/// Thrown by AsyncQServer::add_session / RouterQServer::add_session when
/// an admission is refused (as opposed to being malformed, which stays
/// std::invalid_argument). Derives std::runtime_error so callers that
/// only catch-and-retry keep working; callers that attribute refusals
/// read reason().
///
/// what() embeds the human-readable reason spelling AND the offending
/// session id in a canonical, test-pinned format:
///
///   <who>: admission rejected (<reason>) for session '<session>': <detail>
///
/// so a bare catch-and-log already tells the operator which session was
/// refused and why, without switching on reason().
class AdmissionError : public std::runtime_error {
 public:
  /// `who` is the throwing entry point ("AsyncQServer::add_session"),
  /// `session` the offending session's identity (the router's affinity
  /// key; the async server's derived env#seed descriptor).
  AdmissionError(AdmissionRejectReason reason, const std::string& who,
                 const std::string& session, const std::string& detail)
      : std::runtime_error(who + ": admission rejected (" +
                           std::string(to_string(reason)) +
                           ") for session '" + session + "': " + detail),
        reason_(reason) {}
  [[nodiscard]] AdmissionRejectReason reason() const noexcept {
    return reason_;
  }

 private:
  AdmissionRejectReason reason_;
};

/// One episodic training session served against a shared backend.
struct ServingSessionSpec {
  /// env::make_environment id; accepts the "delay:<micros>:<inner-id>"
  /// latency modifier, which is how the serving benches build
  /// heterogeneous-latency session mixes.
  std::string env_id = "ShapedCartPole-v0";
  std::uint64_t env_seed = 7;
  std::uint64_t agent_seed = 42;
  OsElmQAgentConfig agent;   ///< exploration/update/sync knobs
  TrainerConfig trainer;     ///< episode budget, solved criterion, resets
};

/// One counter field of a serving stats struct; each struct lists its
/// counters once, in a table of these. `key` is the field's to_json()
/// key and names its registry series `<prefix><key>_total`.
template <typename Stats>
struct CounterField {
  const char* key;
  std::uint64_t Stats::*field;
};

/// A server's live counters, the only count of their events: one relaxed
/// atomic per entry of the CounterField table `Fields`.
template <const auto& Fields>
class CounterSet {
 public:
  template <auto Field>
  void add(std::uint64_t n = 1) noexcept {
    values_[index<Field>()].fetch_add(n, std::memory_order_relaxed);
  }
  template <auto Field>
  [[nodiscard]] std::uint64_t get() const noexcept {
    return values_[index<Field>()].load(std::memory_order_relaxed);
  }
  /// Copies every counter into its field of `stats`.
  template <typename Stats>
  void read_into(Stats& stats) const noexcept {
    for (std::size_t i = 0; i < std::size(Fields); ++i) {
      stats.*Fields[i].field = values_[i].load(std::memory_order_relaxed);
    }
  }
  /// Appends every counter to `snapshot` as the series
  /// `<prefix><key>_total{server="<server>"}` (a metrics collector body).
  void append_series(obs::MetricsSnapshot& snapshot, std::string_view prefix,
                     const std::string& server) const {
    for (std::size_t i = 0; i < std::size(Fields); ++i) {
      snapshot.counters.push_back(
          {std::string(prefix) + Fields[i].key + "_total",
           {{"server", server}},
           values_[i].load(std::memory_order_relaxed)});
    }
  }

 private:
  template <auto Field>
  static consteval std::size_t index() {
    std::size_t i = 0;
    while (Fields[i].field != Field) ++i;  // not in the table: no constant
    return i;
  }
  std::array<std::atomic<std::uint64_t>, std::size(Fields)> values_{};
};

/// Appends `"key": value, ` for every field of `fields` — the counter
/// block of a stats struct's to_json().
template <typename Stats, std::size_t N>
void append_counters_json(std::string& json, const Stats& stats,
                          const CounterField<Stats> (&fields)[N]) {
  for (const auto& [key, field] : fields) {
    json += '"' + std::string(key) + "\": " + std::to_string(stats.*field) +
            ", ";
  }
}

/// The instant `wait_us` microseconds after `now`, or nullopt when the
/// steady clock cannot represent it (UINT64_MAX, say): a wait that long has
/// no deadline. AsyncQServer's batch linger and RouterQServer's bounded-wait
/// admission both time out by this rule.
[[nodiscard]] inline std::optional<std::chrono::steady_clock::time_point>
wait_deadline(std::chrono::steady_clock::time_point now,
              std::uint64_t wait_us) {
  const auto headroom = std::chrono::duration_cast<std::chrono::microseconds>(
      std::chrono::steady_clock::time_point::max() - now);
  if (wait_us >= static_cast<std::uint64_t>(headroom.count())) {
    return std::nullopt;
  }
  return now + std::chrono::microseconds(static_cast<std::int64_t>(wait_us));
}

}  // namespace oselm::rl
