// Block-grid arithmetic for the SZA container: a d-dimensional field is
// sharded into a row-major grid of fixed-size blocks (edge blocks clipped
// to the field boundary), and random-access reads decode only the blocks
// whose cuboid intersects the requested hyperslab.
#pragma once

#include <array>
#include <cstddef>
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
  /// O(block_count()).  Throws std::invalid_argument when the region's
  /// rank differs from the field's, an extent is zero, or the region does
  /// not lie inside the field.
  [[nodiscard]] std::vector<std::size_t> touched(const Region& r) const;

 private:
  Dims field_;
  Dims block_;
  std::array<std::size_t, kMaxDims> grid_{};
  std::size_t count_ = 1;
};

/// copy_subcuboid lives with Dims (the codec's corner decode uses it too).
using sz14::copy_subcuboid;

}  // namespace sz14::archive
