// Internal: scalar Q20 primitives shared by the kernel TUs.
//
// These replicate fixed::Q20 operator semantics exactly (round-to-nearest
// multiply, saturating add/sub, saturating double conversion) on raw
// int32 words, counting saturation events into kernels::Q20SatCounts.
// The scalar reference kernels are built from them, and the AVX2 set's
// fallbacks are those same reference loops, so the two kernel sets can
// never drift apart.
#pragma once

#include <cstddef>
#include <cstdint>
#include <limits>

#include "linalg/kernels.hpp"

namespace oselm::linalg::kernels::q20detail {

inline constexpr int kFrac = 20;
inline constexpr std::int64_t kRoundBias = std::int64_t{1} << (kFrac - 1);
inline constexpr std::int64_t kRawMax =
    std::numeric_limits<std::int32_t>::max();
inline constexpr std::int64_t kRawMin =
    std::numeric_limits<std::int32_t>::min();

inline std::int32_t q_sat(std::int64_t wide, std::uint64_t& counter) noexcept {
  if (wide > kRawMax) {
    ++counter;
    return static_cast<std::int32_t>(kRawMax);
  }
  if (wide < kRawMin) {
    ++counter;
    return static_cast<std::int32_t>(kRawMin);
  }
  return static_cast<std::int32_t>(wide);
}

inline std::int32_t q_mul(std::int32_t a, std::int32_t b,
                          Q20SatCounts& sat) noexcept {
  std::int64_t product =
      static_cast<std::int64_t>(a) * static_cast<std::int64_t>(b);
  product += kRoundBias;  // round half up for both signs (AP_RND)
  return q_sat(product >> kFrac, sat.mul);
}

inline std::int32_t q_add(std::int32_t a, std::int32_t b,
                          Q20SatCounts& sat) noexcept {
  return q_sat(static_cast<std::int64_t>(a) + static_cast<std::int64_t>(b),
               sat.add);
}

inline std::int32_t q_sub(std::int32_t a, std::int32_t b,
                          Q20SatCounts& sat) noexcept {
  return q_sat(static_cast<std::int64_t>(a) - static_cast<std::int64_t>(b),
               sat.add);
}

inline std::int32_t q_relu(std::int32_t a) noexcept { return a < 0 ? 0 : a; }

/// One row of the rank-1 downdate: row[j] -= scaled * u[j].
inline void q_downdate_row(std::int32_t* row, const std::int32_t* u,
                           std::size_t n, std::int32_t scaled,
                           Q20SatCounts& sat) noexcept {
  for (std::size_t j = 0; j < n; ++j) {
    row[j] = q_sub(row[j], q_mul(scaled, u[j], sat), sat);
  }
}

inline std::int32_t q_from_double(double value, Q20SatCounts& sat) noexcept {
  const double scaled = value * 1048576.0;  // 2^20
  if (scaled >= 2147483647.0) {
    ++sat.conversion;
    return static_cast<std::int32_t>(kRawMax);
  }
  if (scaled <= -2147483648.0) {
    ++sat.conversion;
    return static_cast<std::int32_t>(kRawMin);
  }
  const double rounded = scaled >= 0.0 ? scaled + 0.5 : scaled - 0.5;
  return static_cast<std::int32_t>(rounded);
}

}  // namespace oselm::linalg::kernels::q20detail
