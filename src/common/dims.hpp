// Shape and stride arithmetic for multidimensional arrays (1-4 dimensions).
//
// Convention (matches the paper's Section IV pseudocode): a data set has size
// N = n(1) * n(2) * ... * n(d), where n(1) is the *lowest* (fastest-varying)
// dimension.  We store dims highest-first, i.e. dims()[0] is the slowest
// dimension, dims().back() is the fastest — plain C row-major order.
#pragma once

#include <array>
#include <cstddef>
#include <cstdint>
#include <cstring>
#include <initializer_list>
#include <span>
#include <stdexcept>
#include <string>

namespace sz14 {

/// Maximum dimensionality supported by the library.
inline constexpr std::size_t kMaxDims = 4;

/// A small value-type describing the shape of a d-dimensional array
/// (1 <= d <= kMaxDims) plus row-major stride arithmetic.
class Dims {
 public:
  Dims() = default;

  /// Construct from an explicit list of extents, slowest dimension first.
  /// Throws std::invalid_argument for rank 0, rank > kMaxDims, or any
  /// zero extent.
  Dims(std::initializer_list<std::size_t> extents)
      : Dims(std::span<const std::size_t>(extents.begin(), extents.size())) {}

  explicit Dims(std::span<const std::size_t> extents);

  /// Number of dimensions (0 for a default-constructed, empty shape).
  [[nodiscard]] std::size_t rank() const noexcept { return rank_; }

  /// Extent of dimension `i` (0 = slowest).
  [[nodiscard]] std::size_t extent(std::size_t i) const {
    if (i >= rank_) throw std::out_of_range("Dims::extent: axis out of range");
    return extents_[i];
  }

  /// Row-major stride of dimension `i` in elements.
  [[nodiscard]] std::size_t stride(std::size_t i) const {
    if (i >= rank_) throw std::out_of_range("Dims::stride: axis out of range");
    return strides_[i];
  }

  /// Total number of elements.
  [[nodiscard]] std::size_t count() const noexcept { return count_; }

  [[nodiscard]] bool empty() const noexcept { return rank_ == 0; }

  /// Linear index of a multidimensional coordinate (slowest-first).
  [[nodiscard]] std::size_t linear(std::span<const std::size_t> coord) const;

  /// Inverse of linear(): fills `coord` (must have rank() entries).
  void unravel(std::size_t index, std::span<std::size_t> coord) const;

  [[nodiscard]] std::span<const std::size_t> extents() const noexcept {
    return {extents_.data(), rank_};
  }

  [[nodiscard]] bool operator==(const Dims& o) const noexcept {
    if (rank_ != o.rank_) return false;
    for (std::size_t i = 0; i < rank_; ++i)
      if (extents_[i] != o.extents_[i]) return false;
    return true;
  }

  [[nodiscard]] std::string to_string() const;

 private:
  std::array<std::size_t, kMaxDims> extents_{};
  std::array<std::size_t, kMaxDims> strides_{};
  std::size_t rank_ = 0;
  std::size_t count_ = 0;
};

/// Copy a subcuboid between two row-major arrays: `ext` elements per axis,
/// read from `src` (shaped `src_dims`) starting at `src_origin`, written to
/// `dst` (shaped `dst_dims`) starting at `dst_origin`.  Rows along the
/// fastest axis are memcpy'd.  Bounds are the caller's responsibility.
template <typename T>
void copy_subcuboid(const T* src, const Dims& src_dims,
                    std::span<const std::size_t> src_origin, T* dst,
                    const Dims& dst_dims,
                    std::span<const std::size_t> dst_origin,
                    std::span<const std::size_t> ext) {
  const std::size_t rank = src_dims.rank();
  const std::size_t row = ext[rank - 1];
  std::size_t rows = 1;
  for (std::size_t a = 0; a + 1 < rank; ++a) rows *= ext[a];

  std::array<std::size_t, kMaxDims> coord{};
  for (std::size_t r = 0; r < rows; ++r) {
    // Unravel r over the slow axes of ext.
    std::size_t rem = r;
    for (std::size_t a = rank - 1; a-- > 0;) {
      coord[a] = rem % ext[a];
      rem /= ext[a];
    }
    std::size_t src_off = src_origin[rank - 1];
    std::size_t dst_off = dst_origin[rank - 1];
    for (std::size_t a = 0; a + 1 < rank; ++a) {
      src_off += (src_origin[a] + coord[a]) * src_dims.stride(a);
      dst_off += (dst_origin[a] + coord[a]) * dst_dims.stride(a);
    }
    std::memcpy(dst + dst_off, src + src_off, row * sizeof(T));
  }
}

}  // namespace sz14
