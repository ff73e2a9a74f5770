#include "rl/backend_registry.hpp"

#include <memory>
#include <stdexcept>

#include "hw/fpga_backend.hpp"
#include "rl/fault_backend.hpp"
#include "rl/software_backend.hpp"
#include "util/fault.hpp"

namespace oselm::rl {

namespace {

util::FaultId parse_backend_fault_id(const std::string& id) {
  return util::parse_fault_id("make_backend", id, backend_fault_kinds());
}

std::string missing_capabilities(const BackendCapabilities& have,
                                 const BackendCapabilities& required) {
  std::string missing;
  const auto note = [&missing](bool lacking, const char* name) {
    if (!lacking) return;
    if (!missing.empty()) missing += ", ";
    missing += name;
  };
  note(required.fixed_point && !have.fixed_point, "fixed-point");
  note(required.forgetting && !have.forgetting, "forgetting");
  note(required.state_sync && !have.state_sync, "state-sync");
  return missing;
}

OsElmQBackendPtr make_software(const BackendConfig& config) {
  SoftwareBackendConfig native;
  native.elm.input_dim = config.input_dim;
  native.elm.hidden_units = config.hidden_units;
  native.elm.output_dim = 1;
  native.elm.l2_delta = config.l2_delta;
  native.elm.init_low = config.init_low;
  native.elm.init_high = config.init_high;
  native.spectral_normalize = config.spectral_normalize;
  native.forgetting_factor = config.forgetting_factor;
  return std::make_shared<SoftwareOsElmBackend>(native, config.seed);
}

OsElmQBackendPtr make_fpga_q20(const BackendConfig& config) {
  hw::FpgaBackendConfig native;
  native.input_dim = config.input_dim;
  native.hidden_units = config.hidden_units;
  native.l2_delta = config.l2_delta;
  native.spectral_normalize = config.spectral_normalize;
  native.init_low = config.init_low;
  native.init_high = config.init_high;
  return std::make_shared<hw::FpgaOsElmBackend>(native, config.seed);
}

}  // namespace

void BackendRegistry::register_backend(const std::string& id,
                                       BackendCapabilities caps,
                                       Factory factory) {
  if (id.empty()) {
    throw std::invalid_argument("BackendRegistry: empty backend id");
  }
  if (!factory) {
    throw std::invalid_argument("BackendRegistry: null factory for '" + id +
                                "'");
  }
  if (find(id) != nullptr) {
    throw std::invalid_argument("BackendRegistry: duplicate backend id '" +
                                id + "'");
  }
  entries_.emplace_back(id, caps, std::move(factory));
}

const BackendRegistry::Entry* BackendRegistry::find(
    const std::string& id) const noexcept {
  for (const Entry& entry : entries_) {
    if (entry.id == id) return &entry;
  }
  return nullptr;
}

OsElmQBackendPtr BackendRegistry::make(
    const std::string& id, const BackendConfig& config,
    const BackendCapabilities& required) const {
  if (id.starts_with("fault:")) {
    const util::FaultId fault = parse_backend_fault_id(id);
    // The capability requirement travels to the innermost backend — the
    // decorator adds failure modes, never capabilities.
    OsElmQBackendPtr inner = util::within_modifier(
        id, [&] { return make(fault.inner_id, config, required); });
    return std::make_shared<FaultBackend>(
        std::move(inner), static_cast<BackendFaultKind>(fault.kind),
        fault.rate, fault.seed);
  }
  const Entry* entry = find(id);
  if (entry == nullptr) {
    // List the alternatives for parity with env::make_environment's
    // unknown-id reporting.
    std::string known;
    for (const Entry& e : entries_) {
      if (!known.empty()) known += ", ";
      known += e.id;
    }
    std::string modifiers;
    for (const std::string& prefix : registered_backend_modifiers()) {
      if (!modifiers.empty()) modifiers += ", ";
      modifiers += prefix;
    }
    throw std::invalid_argument("make_backend: unknown backend id '" + id +
                                "' (known: " + known +
                                "; modifiers: " + modifiers + ")");
  }
  if (!entry->caps.covers(required)) {
    throw std::invalid_argument(
        "make_backend: backend '" + id + "' lacks required capabilities: " +
        missing_capabilities(entry->caps, required));
  }
  // A config that asks for forgetting implies the capability even when the
  // caller forgot to require it — otherwise a non-forgetting backend would
  // silently train with lambda = 1 under a FOS-ELM label.
  if (config.forgetting_factor != 1.0 && !entry->caps.forgetting) {
    throw std::invalid_argument(
        "make_backend: backend '" + id + "' lacks required capabilities: " +
        "forgetting (config.forgetting_factor = " +
        std::to_string(config.forgetting_factor) + ")");
  }
  return entry->factory(config);
}

bool BackendRegistry::contains(const std::string& id) const noexcept {
  if (id.starts_with("fault:")) {
    try {
      return contains(parse_backend_fault_id(id).inner_id);
    } catch (const std::invalid_argument&) {
      return false;
    }
  }
  return find(id) != nullptr;
}

const BackendCapabilities& BackendRegistry::capabilities(
    const std::string& id) const {
  if (id.starts_with("fault:")) {
    // FaultBackend forwards every capability-bearing call, so a modifier
    // id's capabilities ARE the innermost backend's.
    const util::FaultId fault = parse_backend_fault_id(id);
    return util::within_modifier(id, [&]() -> const BackendCapabilities& {
      return capabilities(fault.inner_id);
    });
  }
  const Entry* entry = find(id);
  if (entry == nullptr) {
    throw std::invalid_argument(
        "BackendRegistry::capabilities: unknown backend id '" + id + "'");
  }
  return entry->caps;
}

std::vector<std::string> BackendRegistry::ids() const {
  std::vector<std::string> out;
  out.reserve(entries_.size());
  for (const Entry& entry : entries_) out.push_back(entry.id);
  return out;
}

BackendRegistry& BackendRegistry::global() {
  static BackendRegistry* registry = [] {
    auto* r = new BackendRegistry();
    // Double-precision software implementation (designs 2-5), with the
    // FOS-ELM forgetting extension.
    r->register_backend(
        "software",
        BackendCapabilities{/*fixed_point=*/false, /*forgetting=*/true,
                            /*state_sync=*/true},
        make_software);
    // Q11.20 fixed-point functional + timing model (design 7): exact
    // paper semantics (no forgetting). State sync crosses the
    // quantization boundary (faithful to the Q-format resolution, not
    // bit-exact).
    r->register_backend(
        "fpga-q20",
        BackendCapabilities{/*fixed_point=*/true, /*forgetting=*/false,
                            /*state_sync=*/true},
        make_fpga_q20);
    return r;
  }();
  return *registry;
}

OsElmQBackendPtr make_backend(const std::string& id,
                              const BackendConfig& config,
                              const BackendCapabilities& required) {
  return BackendRegistry::global().make(id, config, required);
}

const BackendCapabilities& backend_capabilities(const std::string& id) {
  return BackendRegistry::global().capabilities(id);
}

std::vector<std::string> registered_backends() {
  return BackendRegistry::global().ids();
}

std::vector<std::string> registered_backend_modifiers() {
  return {"fault:"};
}

}  // namespace oselm::rl
