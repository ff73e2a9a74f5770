// String-keyed OsElmQBackend factory, mirroring env::make_environment.
//
// Backends are no longer hand-constructed at every call site: callers name
// one by id ("software", "fpga-q20", ...) and hand over one neutral
// BackendConfig; the registry maps it onto the implementation's native
// configuration. Each registration carries capability flags (fixed_point,
// forgetting, state_sync) so callers can state requirements up front
// (make_backend throws a clear error listing any capability the chosen
// backend lacks), and generic code — the contract suite, the serving
// bench — can enumerate every registered backend instead of hard-coding
// the pair. Every backend built here owns its time ledger.
//
// Modifier ids, mirroring env::make_environment's "delay:"/"fault:"
// families: "fault:<kind>:<rate>:<seed>:<inner-id>" wraps any registered
// backend in an rl::FaultBackend (seeded injection, kind one of
// rl::backend_fault_kinds(); see fault_backend.hpp), nests with itself,
// reports nested construction errors with the FULL outer id, and inherits
// the inner backend's capability flags and ledger — the decorator is
// failure-transparent to callers.
#pragma once

#include <functional>
#include <string>
#include <vector>

#include "rl/agent.hpp"

namespace oselm::rl {

/// Implementation-neutral backend configuration; the registry's factories
/// translate it into SoftwareBackendConfig / hw::FpgaBackendConfig / ...
struct BackendConfig {
  std::size_t input_dim = 5;      ///< encoded (state, action) width
  std::size_t hidden_units = 64;  ///< N-tilde
  double l2_delta = 0.5;          ///< Eq. 8 ridge (0 = plain Eq. 7)
  bool spectral_normalize = true; ///< Algorithm 1 lines 2-3
  double init_low = -1.0;
  double init_high = 1.0;
  /// FOS-ELM forgetting factor; only honored by backends with the
  /// forgetting capability (the software backend). 1.0 = the paper.
  double forgetting_factor = 1.0;
  std::uint64_t seed = 42;
};

/// What a backend implementation can do, declared at registration.
struct BackendCapabilities {
  /// Arithmetic is quantized (results carry a fixed-point tolerance).
  bool fixed_point = false;
  /// Honors BackendConfig::forgetting_factor < 1 (FOS-ELM extension).
  bool forgetting = false;
  /// Implements export_state/import_state (QNetState snapshots), required
  /// by RouterQServer's periodic averaging (sync_every_updates > 0).
  bool state_sync = false;

  /// True when every capability set in `required` is present here.
  [[nodiscard]] bool covers(const BackendCapabilities& required)
      const noexcept {
    return (fixed_point || !required.fixed_point) &&
           (forgetting || !required.forgetting) &&
           (state_sync || !required.state_sync);
  }
};

class BackendRegistry {
 public:
  using Factory = std::function<OsElmQBackendPtr(const BackendConfig&)>;

  /// Registers a backend under `id`. Throws std::invalid_argument for an
  /// empty id or a duplicate registration.
  void register_backend(const std::string& id, BackendCapabilities caps,
                        Factory factory);

  /// Constructs the backend registered under `id` — or, for a
  /// "fault:<kind>:<rate>:<seed>:<inner-id>" modifier id, the inner
  /// backend wrapped in an rl::FaultBackend. Throws std::invalid_argument
  /// for unknown/malformed ids (listing the registered alternatives) and
  /// for any capability set in `required` the backend does not declare
  /// (the message names both the backend and the missing capabilities).
  [[nodiscard]] OsElmQBackendPtr make(
      const std::string& id, const BackendConfig& config,
      const BackendCapabilities& required = {}) const;

  /// True for registered ids and for well-formed "fault:" modifier ids
  /// whose innermost backend is registered.
  [[nodiscard]] bool contains(const std::string& id) const noexcept;
  /// Throws std::invalid_argument for unknown ids. Modifier ids resolve
  /// to the innermost backend's capabilities (FaultBackend forwards).
  [[nodiscard]] const BackendCapabilities& capabilities(
      const std::string& id) const;
  /// Registration order (concrete ids only; see
  /// registered_backend_modifiers for the prefix families).
  [[nodiscard]] std::vector<std::string> ids() const;

  /// The process-wide registry, pre-loaded with the built-in backends
  /// ("software", "fpga-q20").
  static BackendRegistry& global();

 private:
  struct Entry {
    std::string id;
    BackendCapabilities caps;
    Factory factory;
  };
  [[nodiscard]] const Entry* find(const std::string& id) const noexcept;

  std::vector<Entry> entries_;
};

/// Convenience wrappers over BackendRegistry::global(), mirroring
/// env::make_environment / env::registered_environments.
[[nodiscard]] OsElmQBackendPtr make_backend(
    const std::string& id, const BackendConfig& config,
    const BackendCapabilities& required = {});
[[nodiscard]] const BackendCapabilities& backend_capabilities(
    const std::string& id);
[[nodiscard]] std::vector<std::string> registered_backends();
/// Modifier prefix families ("fault:") accepted in front of any id from
/// registered_backends() (or another modifier) — the backend-side mirror
/// of env::registered_modifiers().
[[nodiscard]] std::vector<std::string> registered_backend_modifiers();

}  // namespace oselm::rl
