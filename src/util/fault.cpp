#include "util/fault.hpp"

#include <algorithm>
#include <cerrno>
#include <cstdio>
#include <cstdlib>
#include <utility>

namespace oselm::util {

FaultSchedule::FaultSchedule(std::string_view owner, double rate,
                             std::uint64_t seed)
    : rate_(rate), seed_(seed), rng_(seed) {
  if (!(rate >= 0.0 && rate <= 1.0)) {
    std::string message(owner);
    message += ": rate " + canonical_rate(rate) + " outside [0, 1]";
    throw std::invalid_argument(message);
  }
}

bool FaultSchedule::draw() noexcept {
  ++draws_;
  const bool fired = rng_.bernoulli(rate_);
  if (fired) ++fires_;
  return fired;
}

void FaultSchedule::rewind() noexcept { rng_ = Rng(seed_); }

std::vector<bool> FaultSchedule::preview(double rate, std::uint64_t seed,
                                         std::size_t draws) {
  FaultSchedule schedule("FaultSchedule::preview", rate, seed);
  std::vector<bool> decisions(draws);
  for (std::size_t i = 0; i < draws; ++i) decisions[i] = schedule.draw();
  return decisions;
}

std::string canonical_rate(double rate) {
  char buffer[32];
  std::snprintf(buffer, sizeof(buffer), "%.12g", rate);
  return buffer;
}

std::size_t kind_index(std::string_view kinds,
                       std::string_view kind) noexcept {
  std::size_t begin = 0;
  for (std::size_t index = 0;; ++index) {
    const std::size_t end = kinds.find('|', begin);
    if (kinds.substr(begin, end - begin) == kind) return index;
    if (end == std::string_view::npos) return std::string_view::npos;
    begin = end + 1;
  }
}

std::string_view kind_name(std::string_view kinds, std::size_t index) noexcept {
  std::size_t begin = 0;
  for (std::size_t i = 0; i < index; ++i) {
    begin = kinds.find('|', begin);
    if (begin == std::string_view::npos) return "unknown";
    ++begin;
  }
  return kinds.substr(begin, kinds.find('|', begin) - begin);
}

std::string format_fault_id(std::string_view kind, double rate,
                            std::uint64_t seed, std::string_view inner_id) {
  std::string id = "fault:";
  id += kind;
  id += ':';
  id += canonical_rate(rate);
  id += ':';
  id += std::to_string(seed);
  if (!inner_id.empty()) {
    id += ':';
    id += inner_id;
  }
  return id;
}

ModifierId::ModifierId(std::string_view caller, std::string id,
                       std::string_view grammar)
    : caller_(caller), id_(std::move(id)) {
  // "<family>:<field>...:<inner-id>": one ':' ends the family prefix and
  // one more ends each field.
  const std::size_t prefix_size = grammar.find(':') + 1;
  const auto fields = std::count(grammar.begin(), grammar.end(), ':') - 1;
  const auto malformed = [&] {
    fail("malformed " + std::string(grammar.substr(0, prefix_size - 1)) +
         " id '" + id_ + "' (expected " + std::string(grammar) + ")");
  };
  if (!id_.starts_with(grammar.substr(0, prefix_size))) malformed();
  std::size_t begin = prefix_size;
  for (auto i = fields; i > 0; --i) {
    const std::size_t end = id_.find(':', begin);
    if (end == std::string::npos || end == begin) malformed();
    fields_.push_back(id_.substr(begin, end - begin));
    begin = end + 1;
  }
  if (begin >= id_.size()) malformed();
  inner_ = id_.substr(begin);
}

std::uint64_t ModifierId::u64(std::size_t index, std::string_view what,
                              std::uint64_t max, std::string_view unit) const {
  std::uint64_t value = 0;
  for (const char c : fields_[index]) {
    if (c < '0' || c > '9') {
      fail("non-numeric " + std::string(what) + " in '" + id_ + "'");
    }
    const auto digit = static_cast<std::uint64_t>(c - '0');
    if (digit > max || value > (max - digit) / 10) {
      std::string bound = "64 bits";
      if (max != UINT64_MAX) {
        bound = std::to_string(max) + " ";
        bound += unit;
      }
      fail(std::string(what) + " in '" + id_ + "' exceeds " + bound);
    }
    value = value * 10 + digit;
  }
  return value;
}

double ModifierId::rate(std::size_t index, std::string_view what) const {
  const std::string& text = fields_[index];
  // strtod alone would also take leading whitespace, hex, inf and nan.
  const bool plain =
      text.find_first_not_of("0123456789.eE+-") == std::string::npos;
  errno = 0;
  char* tail = nullptr;
  const double value = std::strtod(text.c_str(), &tail);
  if (!plain || errno != 0 || *tail != '\0' ||
      !(value >= 0.0 && value <= 1.0)) {
    fail(std::string(what) + " '" + text + "' in '" + id_ +
         "' is not a number in [0, 1]");
  }
  return value;
}

void ModifierId::fail(const std::string& message) const {
  throw std::invalid_argument(caller_ + ": " + message);
}

FaultId parse_fault_id(std::string_view caller, const std::string& id,
                       std::string_view kinds) {
  const ModifierId parts(caller, id, "fault:<kind>:<rate>:<seed>:<inner-id>");
  FaultId fault;
  fault.kind = kind_index(kinds, parts.field(0));
  if (fault.kind == std::string_view::npos) {
    parts.fail("unknown fault kind '" + parts.field(0) + "' in '" + id +
               "' (expected " + std::string(kinds) + ")");
  }
  fault.rate = parts.rate(1, "fault rate");
  fault.seed = parts.u64(2, "fault seed");
  fault.inner_id = parts.inner();
  return fault;
}

void rethrow_inside_modifier(const std::invalid_argument& error,
                             const std::string& outer_id) {
  std::string message = error.what();
  if (message.find("'" + outer_id + "'") != std::string::npos) throw;
  message += " (inside modifier id '" + outer_id + "')";
  throw std::invalid_argument(message);
}

}  // namespace oselm::util
