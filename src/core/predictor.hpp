// Multilayer multidimensional prediction (the paper's Section III).
//
// For an n-layer predictor over a d-dimensional grid, Theorem 1 gives the
// predicted value at x as
//
//   f(x) = sum_{k in [0,n]^d, k != 0}  -prod_j (-1)^{k_j} C(n, k_j) * V(x - k)
//
// i.e. a fixed stencil of (n+1)^d - 1 taps over already-processed points.
// n = 1 recovers the Lorenzo predictor.  Out-of-domain neighbours read as
// 0.0 (zero extension); this affects only border hitting rate, never
// correctness, because the quantizer checks the actual prediction error.
#pragma once

#include <cstdint>
#include <span>
#include <vector>

#include "common/dims.hpp"

namespace sz14 {

/// Maximum supported prediction layer count.  Stencil size grows as
/// (n+1)^d - 1; beyond a few layers prediction degrades anyway (Table II).
inline constexpr unsigned kMaxLayers = 8;

/// One stencil tap: its per-axis back offsets k_a packed one byte per
/// axis (byte a = axis a, slowest first; k_a <= kMaxLayers < 0x80), the
/// equivalent linear-index offset, and the Theorem-1 coefficient.
struct PredictorTap {
  std::uint32_t back = 0;       // byte a = k_a
  std::size_t linear_back = 0;  // sum k_a * stride[a]
  double coeff = 0.0;
};

/// Precomputed n-layer stencil for a fixed shape.
///
/// Border test.  A point packs h_a = min(coord_a, n) the same way as the
/// taps' `back`, with every byte's high bit set: have = 0x80808080 |
/// sum h_a << 8a.  A tap lies in the domain iff h_a >= k_a on every axis,
/// and per byte 0x80 + h_a - k_a stays in [0x78, 0x88] (both are <= 8), so
/// one 32-bit subtraction never borrows across bytes and leaves byte a's
/// high bit set exactly when h_a >= k_a:
///   inside  <=>  ((have - back) & 0x80808080) == 0x80808080.
/// Unused axes (rank < 4) carry h = k = 0 and always pass.  A point is
/// interior when have equals the all-n word.  Border points thus pay one
/// subtraction and one compare per tap, not a loop over the axes.
class LayerPredictor {
 public:
  /// Throws std::invalid_argument for layers == 0 or layers > kMaxLayers.
  LayerPredictor(const Dims& dims, unsigned layers);

  /// Predict the value at linear index `idx` with coordinate `coord`
  /// (slowest-first, matching Dims).  `values` is the basis array —
  /// original data for analysis, preceding reconstructed data during
  /// compression.  Handles borders via zero extension: out-of-domain taps
  /// are skipped, in-domain ones accumulate from 0.0 in tap order.
  template <typename T>
  [[nodiscard]] double predict(std::span<const T> values,
                               std::span<const std::size_t> coord,
                               std::size_t idx) const {
    const std::uint32_t have = have_word(coord);
    double acc = 0.0;
    if (have == interior_word_) {
      for (const auto& t : taps_)
        acc += t.coeff * static_cast<double>(values[idx - t.linear_back]);
      return acc;
    }
    for (const auto& t : taps_)
      if (((have - t.back) & kHighBits) == kHighBits)
        acc += t.coeff * static_cast<double>(values[idx - t.linear_back]);
    return acc;
  }

  /// True when every tap of the stencil lies inside the domain.
  [[nodiscard]] bool interior(std::span<const std::size_t> coord) const {
    return have_word(coord) == interior_word_;
  }

  [[nodiscard]] unsigned layers() const noexcept { return layers_; }
  [[nodiscard]] const Dims& dims() const noexcept { return dims_; }
  [[nodiscard]] std::span<const PredictorTap> taps() const noexcept {
    return taps_;
  }

  /// Theorem-1 coefficient for back-offset k (any rank), exposed for the
  /// formula tests against Table I.
  static double coefficient(std::span<const std::uint32_t> k, unsigned layers);

 private:
  static constexpr std::uint32_t kHighBits = 0x80808080u;

  /// kHighBits | sum min(coord_a, layers) << 8a (the border test above).
  [[nodiscard]] std::uint32_t have_word(
      std::span<const std::size_t> coord) const {
    std::uint32_t have = kHighBits;
    for (std::size_t a = 0; a < dims_.rank(); ++a)
      have |= static_cast<std::uint32_t>(
                  coord[a] < layers_ ? coord[a] : layers_)
              << (8 * a);
    return have;
  }

  Dims dims_;
  unsigned layers_;
  std::uint32_t interior_word_ = kHighBits;
  std::vector<PredictorTap> taps_;
};

/// Odometer-style coordinate walker over a Dims in linear (row-major) order;
/// avoids a full unravel per element in the hot loop.
class CoordWalker {
 public:
  explicit CoordWalker(const Dims& dims) : dims_(dims), coord_{} {}

  [[nodiscard]] std::span<const std::size_t> coord() const noexcept {
    return {coord_.data(), dims_.rank()};
  }

  /// Advance to the next linear index.
  void advance() noexcept {
    for (std::size_t a = dims_.rank(); a-- > 0;) {
      if (++coord_[a] < dims_.extent(a)) return;
      coord_[a] = 0;
    }
  }

 private:
  const Dims& dims_;
  std::array<std::size_t, kMaxDims> coord_;
};

}  // namespace sz14
