// rl::BackendRegistry: construction by id, capability checking, and —
// critically — the error paths: unknown ids, duplicate registrations and
// capability-flag mismatches must all surface clear exceptions instead of
// silently mis-constructing a backend.
#include "rl/backend_registry.hpp"

#include <gtest/gtest.h>

#include <memory>

#include "hw/fpga_backend.hpp"
#include "rl/software_backend.hpp"

namespace oselm::rl {
namespace {

BackendConfig small_config(std::uint64_t seed = 3) {
  BackendConfig config;
  config.input_dim = 5;
  config.hidden_units = 8;
  config.l2_delta = 0.5;
  config.seed = seed;
  return config;
}

/// EXPECT_THROW plus a check that the message mentions every fragment —
/// "clear error" is part of the contract.
template <typename Fn>
void expect_invalid_argument(Fn&& fn,
                             std::initializer_list<const char*> fragments) {
  try {
    fn();
    FAIL() << "expected std::invalid_argument";
  } catch (const std::invalid_argument& e) {
    const std::string message = e.what();
    for (const char* fragment : fragments) {
      EXPECT_NE(message.find(fragment), std::string::npos)
          << "message '" << message << "' lacks '" << fragment << "'";
    }
  }
}

TEST(BackendRegistry, BuiltinsAreRegistered) {
  const std::vector<std::string> ids = registered_backends();
  EXPECT_GE(ids.size(), 2u);
  EXPECT_TRUE(BackendRegistry::global().contains("software"));
  EXPECT_TRUE(BackendRegistry::global().contains("fpga-q20"));
  EXPECT_FALSE(BackendRegistry::global().contains("tpu-v9"));
}

TEST(BackendRegistry, MakesTheConcreteTypes) {
  const OsElmQBackendPtr software = make_backend("software", small_config());
  EXPECT_NE(dynamic_cast<SoftwareOsElmBackend*>(software.get()), nullptr);
  const OsElmQBackendPtr fpga = make_backend("fpga-q20", small_config());
  EXPECT_NE(dynamic_cast<hw::FpgaOsElmBackend*>(fpga.get()), nullptr);
  EXPECT_EQ(software->input_dim(), 5u);
  EXPECT_EQ(fpga->hidden_units(), 8u);
}

TEST(BackendRegistry, BuiltinCapabilityFlags) {
  const BackendCapabilities& software = backend_capabilities("software");
  EXPECT_FALSE(software.fixed_point);
  EXPECT_TRUE(software.forgetting);
  EXPECT_TRUE(software.state_sync);
  const BackendCapabilities& fpga = backend_capabilities("fpga-q20");
  EXPECT_TRUE(fpga.fixed_point);
  EXPECT_FALSE(fpga.forgetting);
  EXPECT_TRUE(fpga.state_sync);
}

TEST(BackendRegistry, UnknownIdThrowsWithTheIdInTheMessage) {
  expect_invalid_argument(
      [] { (void)make_backend("analog-q4", small_config()); },
      {"unknown backend id", "analog-q4"});
  expect_invalid_argument(
      [] { (void)backend_capabilities("analog-q4"); }, {"analog-q4"});
}

TEST(BackendRegistry, DuplicateRegistrationThrows) {
  BackendRegistry registry;
  registry.register_backend("custom", BackendCapabilities{},
                            [](const BackendConfig& c) {
                              return make_backend("software", c);
                            });
  expect_invalid_argument(
      [&] {
        registry.register_backend("custom", BackendCapabilities{},
                                  [](const BackendConfig& c) {
                                    return make_backend("software", c);
                                  });
      },
      {"duplicate", "custom"});
}

TEST(BackendRegistry, EmptyIdAndNullFactoryThrow) {
  BackendRegistry registry;
  expect_invalid_argument(
      [&] {
        registry.register_backend("", BackendCapabilities{},
                                  [](const BackendConfig& c) {
                                    return make_backend("software", c);
                                  });
      },
      {"empty"});
  expect_invalid_argument(
      [&] {
        registry.register_backend("null-factory", BackendCapabilities{},
                                  BackendRegistry::Factory{});
      },
      {"null factory", "null-factory"});
}

TEST(BackendRegistry, CapabilityMismatchNamesTheMissingFlags) {
  BackendCapabilities required;
  required.fixed_point = true;
  required.forgetting = true;
  required.state_sync = true;
  // A backend that declares nothing lacks all three; the error must name
  // each of them and the backend.
  BackendRegistry registry;
  registry.register_backend("bare", BackendCapabilities{},
                            [](const BackendConfig& c) {
                              return make_backend("software", c);
                            });
  expect_invalid_argument(
      [&] { (void)registry.make("bare", small_config(), required); },
      {"bare", "fixed-point", "forgetting", "state-sync"});
  // The fixed-point model lacks only forgetting.
  required.fixed_point = false;
  expect_invalid_argument(
      [&] { (void)make_backend("fpga-q20", small_config(), required); },
      {"fpga-q20", "forgetting"});
  // The software backend covers the rest, so that requirement succeeds.
  EXPECT_NE(make_backend("software", small_config(), required), nullptr);
}

TEST(BackendRegistry, ForgettingConfigImpliesTheCapability) {
  // A forgetting factor < 1 in the config must reject non-forgetting
  // backends even when the caller forgot to pass the requirement —
  // otherwise fpga-q20 would silently train with lambda = 1 under a
  // FOS-ELM label.
  BackendConfig config = small_config();
  config.forgetting_factor = 0.99;
  expect_invalid_argument(
      [&] { (void)make_backend("fpga-q20", config); },
      {"fpga-q20", "forgetting"});
  EXPECT_NE(make_backend("software", config), nullptr);
}

TEST(BackendRegistry, SatisfiedRequirementsConstructNormally) {
  BackendCapabilities required;
  required.fixed_point = true;
  required.state_sync = true;
  const OsElmQBackendPtr backend =
      make_backend("fpga-q20", small_config(), required);
  ASSERT_NE(backend, nullptr);
  EXPECT_FALSE(backend->initialized());
}

TEST(BackendRegistry, ConfigSeedControlsDeterminism) {
  const OsElmQBackendPtr a = make_backend("software", small_config(11));
  const OsElmQBackendPtr b = make_backend("software", small_config(11));
  const OsElmQBackendPtr c = make_backend("software", small_config(12));
  const linalg::VecD sa(5, 0.3);
  EXPECT_DOUBLE_EQ(a->predict_main(sa), b->predict_main(sa));
  EXPECT_NE(a->predict_main(sa), c->predict_main(sa));
}

}  // namespace
}  // namespace oselm::rl
