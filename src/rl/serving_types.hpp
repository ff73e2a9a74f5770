// Shared serving-session types: the vocabulary rl::AsyncQServer
// (async_server.hpp), rl::RouterQServer (router.hpp) and the scenario
// driver use to describe sessions, admission refusals and session
// endings.
#pragma once

#include <cstdint>
#include <stdexcept>
#include <string>
#include <string_view>
#include <utility>

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

}  // namespace oselm::rl
