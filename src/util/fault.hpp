// The one seeded fault primitive and the one modifier-id grammar.
//
// Every fault decorator (env::FaultEnv, rl::FaultBackend) draws its
// per-call fire/no-fire decisions from a FaultSchedule: a DEDICATED
// util::Rng stream seeded from the fault seed, so
//
//   * the schedule is a pure function of (rate, seed) on every run and
//     platform (util::Rng is platform-stable);
//   * the decorator never draws from — and never perturbs — the wrapped
//     component's rng, so the wrapped dynamics or learned weights are
//     bit-identical with and without it;
//   * FaultSchedule::preview() IS the schedule contract: element k equals
//     the k-th draw() after construction or rewind(), so tests and the
//     scenario layer pin schedules without stepping anything.
//
// Both registries (env::make_environment, rl::BackendRegistry) accept
// modifier ids that wrap an inner id, "<family>:<field>...:<inner-id>".
// ModifierId splits and validates them; the
// "fault:<kind>:<rate>:<seed>:<inner-id>" family is built by
// format_fault_id() and parsed by parse_fault_id() and nowhere else, and
// within_modifier() gives every nested failure the same
// "(inside modifier id '<outer>')" context.
#pragma once

#include <cstdint>
#include <stdexcept>
#include <string>
#include <string_view>
#include <vector>

#include "util/rng.hpp"

namespace oselm::util {

/// Per-call fault decisions: one bernoulli(rate) draw per call.
class FaultSchedule {
 public:
  /// `owner` names the decorator in the error thrown for a rate outside
  /// [0, 1] (NaN included).
  FaultSchedule(std::string_view owner, double rate, std::uint64_t seed);

  /// The next decision; counts the draw and, when it fires, the fault.
  bool draw() noexcept;
  /// Restarts the decision stream at its seed. The counters keep running.
  void rewind() noexcept;

  [[nodiscard]] double rate() const noexcept { return rate_; }
  [[nodiscard]] std::uint64_t seed() const noexcept { return seed_; }
  /// Decisions drawn so far (across rewinds).
  [[nodiscard]] std::uint64_t draws() const noexcept { return draws_; }
  /// Decisions that fired so far (across rewinds).
  [[nodiscard]] std::uint64_t fires() const noexcept { return fires_; }

  /// The first `draws` decisions of a schedule built with (rate, seed).
  [[nodiscard]] static std::vector<bool> preview(double rate,
                                                 std::uint64_t seed,
                                                 std::size_t draws);

 private:
  double rate_;
  std::uint64_t seed_;
  Rng rng_;
  std::uint64_t draws_ = 0;
  std::uint64_t fires_ = 0;
};

/// "%.12g": the canonical text of a rate or probability. It round-trips
/// every value a human writes in an id or spec file while staying
/// readable ("0.05", not "0.050000000000000003").
[[nodiscard]] std::string canonical_rate(double rate);

/// Position of `kind` in a '|'-separated kind list such as
/// "throw|stall|nan", or std::string_view::npos when absent.
[[nodiscard]] std::size_t kind_index(std::string_view kinds,
                                     std::string_view kind) noexcept;
/// The `index`-th entry of a '|'-separated kind list, or "unknown".
[[nodiscard]] std::string_view kind_name(std::string_view kinds,
                                         std::size_t index) noexcept;

/// "fault:<kind>:<rate>:<seed>:<inner-id>" with the canonical rate. An
/// empty `inner_id` yields the bare "fault:<kind>:<rate>:<seed>" prefix,
/// for error context where the wrapped id is unknown.
[[nodiscard]] std::string format_fault_id(std::string_view kind, double rate,
                                          std::uint64_t seed,
                                          std::string_view inner_id);

/// A modifier id split against its grammar, e.g.
/// "delay:<micros>:<inner-id>": the family prefix and the field count
/// come from the grammar. Every field and the inner id must be non-empty.
/// All errors are std::invalid_argument prefixed with `caller`
/// ("make_environment: ...") and naming the full id.
class ModifierId {
 public:
  ModifierId(std::string_view caller, std::string id, std::string_view grammar);

  [[nodiscard]] const std::string& field(std::size_t index) const {
    return fields_[index];
  }
  [[nodiscard]] const std::string& inner() const { return inner_; }

  /// Strict unsigned decimal (digits only) no larger than `max`; the
  /// overflow error names the bound ("64 bits" or "<max> <unit>").
  [[nodiscard]] std::uint64_t u64(std::size_t index, std::string_view what,
                                  std::uint64_t max = UINT64_MAX,
                                  std::string_view unit = {}) const;
  /// Strict decimal in [0, 1]: no whitespace, hex, inf or nan.
  [[nodiscard]] double rate(std::size_t index, std::string_view what) const;

  [[noreturn]] void fail(const std::string& message) const;

 private:
  std::string caller_;
  std::string id_;
  std::vector<std::string> fields_;
  std::string inner_;
};

/// A parsed "fault:<kind>:<rate>:<seed>:<inner-id>" id. `kind` indexes
/// the decorator's kind list, whose order matches its kind enum.
struct FaultId {
  std::size_t kind = 0;
  double rate = 0.0;
  std::uint64_t seed = 0;
  std::string inner_id;
};

/// Parses a fault id, validating the kind against the '|'-separated
/// `kinds` list. Errors are prefixed with `caller`.
[[nodiscard]] FaultId parse_fault_id(std::string_view caller,
                                     const std::string& id,
                                     std::string_view kinds);

/// Rethrows the std::invalid_argument being handled with
/// " (inside modifier id '<outer_id>')" appended, unless its message
/// already names the outer id.
[[noreturn]] void rethrow_inside_modifier(const std::invalid_argument& error,
                                          const std::string& outer_id);

/// Runs `build` (which constructs a modifier's inner component) so that
/// a nested construction failure names the full id the caller wrote.
template <typename Build>
decltype(auto) within_modifier(const std::string& outer_id,
                               const Build& build) {
  try {
    return build();
  } catch (const std::invalid_argument& error) {
    rethrow_inside_modifier(error, outer_id);
  }
}

}  // namespace oselm::util
