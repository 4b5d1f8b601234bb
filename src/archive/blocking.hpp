// Block-grid arithmetic for the SZA container: a d-dimensional field is
// sharded into a row-major grid of fixed-size blocks (edge blocks clipped
// to the field boundary), and random-access reads decode only the blocks
// whose cuboid intersects the requested hyperslab.
#pragma once

#include <array>
#include <cstddef>
#include <cstring>
#include <span>
#include <vector>

#include "common/dims.hpp"

namespace sz14::archive {

/// A d-dimensional hyperslab: `extent[a]` elements starting at `origin[a]`
/// on each axis (slowest axis first, matching Dims).
struct Region {
  std::array<std::size_t, kMaxDims> origin{};
  std::array<std::size_t, kMaxDims> extent{};
  std::size_t rank = 0;

  /// The region covering an entire field.
  static Region whole(const Dims& dims);

  [[nodiscard]] std::size_t count() const noexcept;

  /// Shape of the region as a Dims (extents must be nonzero).
  [[nodiscard]] Dims shape() const;
};

/// Row-major grid of fixed-size blocks over a field.
class BlockGrid {
 public:
  /// Throws std::invalid_argument when ranks differ (Dims itself rejects
  /// zero extents).  Blocks larger than the field are clipped, giving a
  /// single block.
  BlockGrid(const Dims& field, const Dims& block);

  [[nodiscard]] const Dims& field() const noexcept { return field_; }
  [[nodiscard]] const Dims& block() const noexcept { return block_; }

  /// Total number of blocks (= product of blocks_along()).
  [[nodiscard]] std::size_t block_count() const noexcept { return count_; }

  /// ceil(field_extent / block_extent) for one axis.
  [[nodiscard]] std::size_t blocks_along(std::size_t axis) const {
    return grid_[axis];
  }

  /// Field-space origin of block `index` (row-major over the grid).
  void block_origin(std::size_t index, std::span<std::size_t> out) const;

  /// Extents of block `index`, clipped at the field boundary.
  [[nodiscard]] Dims block_extents(std::size_t index) const;

  /// Does block `index` intersect the hyperslab?
  [[nodiscard]] bool intersects(std::size_t index, const Region& r) const;

  /// Every block intersecting the hyperslab, ascending — enumerated from
  /// per-axis block-index ranges, so the cost is O(blocks touched), not
  /// O(block_count()).  The region must lie inside the field.
  [[nodiscard]] std::vector<std::size_t> touched(const Region& r) const;

 private:
  Dims field_;
  Dims block_;
  std::array<std::size_t, kMaxDims> grid_{};
  std::size_t count_ = 1;
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

}  // namespace sz14::archive
