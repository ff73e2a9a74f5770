#include "elm/spectral.hpp"

#include "linalg/svd.hpp"

namespace oselm::elm {

double spectral_normalize_inplace(linalg::MatD& m) {
  const double sigma = linalg::largest_singular_value(m);
  if (sigma <= 0.0) return 0.0;
  for (std::size_t i = 0; i < m.size(); ++i) m.data()[i] /= sigma;
  return sigma;
}

double lipschitz_upper_bound(const linalg::MatD& alpha,
                             const linalg::MatD& beta) {
  return linalg::largest_singular_value(alpha) *
         linalg::largest_singular_value(beta);
}

}  // namespace oselm::elm
