// Shared helpers for the test suites. Previously copy-pasted across the
// elm/, hw/, linalg/ and rl/ tests; include this instead of redefining.
#pragma once

#include <cstddef>

#include "elm/elm.hpp"
#include "linalg/kernels.hpp"
#include "linalg/matrix.hpp"
#include "util/rng.hpp"

namespace oselm::test_support {

/// A rows x cols matrix with i.i.d. uniform entries in [lo, hi].
inline linalg::MatD random_matrix(std::size_t rows, std::size_t cols,
                                  util::Rng& rng, double lo = -1.0,
                                  double hi = 1.0) {
  linalg::MatD m(rows, cols);
  rng.fill_uniform(m.storage(), lo, hi);
  return m;
}

/// A length-n vector with i.i.d. uniform entries in [lo, hi].
inline linalg::VecD random_vector(std::size_t n, util::Rng& rng,
                                  double lo = -1.0, double hi = 1.0) {
  linalg::VecD v(n);
  rng.fill_uniform(v, lo, hi);
  return v;
}

/// Small ElmConfig used throughout the elm/ and rl/ suites.
inline elm::ElmConfig config_for(std::size_t input, std::size_t hidden,
                                 std::size_t output, double delta = 0.0) {
  elm::ElmConfig cfg;
  cfg.input_dim = input;
  cfg.hidden_units = hidden;
  cfg.output_dim = output;
  cfg.l2_delta = delta;
  return cfg;
}

/// Pins the kernel set (SIMD or scalar) for the scope, then follows the
/// OSELM_SIMD environment flag again.
class KernelSetScope {
 public:
  explicit KernelSetScope(bool simd) {
    linalg::kernels::set_simd_enabled(simd);
  }
  ~KernelSetScope() { linalg::kernels::reset_simd_override(); }
  KernelSetScope(const KernelSetScope&) = delete;
  KernelSetScope& operator=(const KernelSetScope&) = delete;
};

}  // namespace oselm::test_support
