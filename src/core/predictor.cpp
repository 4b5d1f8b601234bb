#include "core/predictor.hpp"

#include <stdexcept>

namespace sz14 {

namespace {

// Binomial coefficient C(n, k) for the small n used by prediction layers.
double binom(unsigned n, unsigned k) {
  if (k > n) return 0.0;
  double r = 1.0;
  for (unsigned i = 1; i <= k; ++i)
    r = r * static_cast<double>(n - k + i) / static_cast<double>(i);
  return r;
}

}  // namespace

double LayerPredictor::coefficient(std::span<const std::uint32_t> k,
                                   unsigned layers) {
  // -prod_j (-1)^{k_j} C(n, k_j)  ==  (-1)^{sum k_j + 1} prod_j C(n, k_j)
  double prod = 1.0;
  unsigned sum = 0;
  for (auto kj : k) {
    prod *= binom(layers, kj);
    sum += kj;
  }
  return ((sum % 2 == 0) ? -1.0 : 1.0) * prod;
}

LayerPredictor::LayerPredictor(const Dims& dims, unsigned layers)
    : dims_(dims), layers_(layers) {
  if (layers == 0 || layers > kMaxLayers)
    throw std::invalid_argument("LayerPredictor: layers must be in [1, " +
                                std::to_string(kMaxLayers) + "]");
  const std::size_t d = dims_.rank();
  static_assert(kMaxDims <= 4 && kMaxLayers < 0x80,
                "one byte per axis in the packed border test");
  for (std::size_t a = 0; a < d; ++a) interior_word_ |= layers << (8 * a);
  // Enumerate k in [0, n]^d \ {0} with an odometer.
  std::array<std::uint32_t, kMaxDims> k{};
  const std::size_t total = [&] {
    std::size_t t = 1;
    for (std::size_t a = 0; a < d; ++a) t *= (layers + 1);
    return t;
  }();
  taps_.reserve(total - 1);
  for (std::size_t it = 1; it < total; ++it) {
    // Advance odometer (fastest axis last, to match memory order).
    for (std::size_t a = d; a-- > 0;) {
      if (++k[a] <= layers) break;
      k[a] = 0;
    }
    PredictorTap tap;
    for (std::size_t a = 0; a < d; ++a) tap.back |= k[a] << (8 * a);
    tap.coeff = coefficient({k.data(), d}, layers);
    std::size_t lin = 0;
    for (std::size_t a = 0; a < d; ++a)
      lin += static_cast<std::size_t>(k[a]) * dims_.stride(a);
    tap.linear_back = lin;
    taps_.push_back(tap);
  }
}

}  // namespace sz14
