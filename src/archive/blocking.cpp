#include "archive/blocking.hpp"

#include <algorithm>
#include <stdexcept>
#include <string>

namespace sz14::archive {

Region Region::whole(const Dims& dims) {
  Region r;
  r.rank = dims.rank();
  for (std::size_t a = 0; a < r.rank; ++a) r.extent[a] = dims.extent(a);
  return r;
}

std::size_t Region::count() const noexcept {
  std::size_t n = 1;
  for (std::size_t a = 0; a < rank; ++a) n *= extent[a];
  return rank == 0 ? 0 : n;
}

Dims Region::shape() const {
  return Dims(std::span<const std::size_t>(extent.data(), rank));
}

BlockGrid::BlockGrid(const Dims& field, const Dims& block) : field_(field) {
  if (field.rank() != block.rank())
    throw std::invalid_argument("BlockGrid: field/block rank mismatch (" +
                                field.to_string() + " vs " +
                                block.to_string() + ")");
  // Clip oversized block extents so a block never exceeds the field.
  std::array<std::size_t, kMaxDims> clipped{};
  for (std::size_t a = 0; a < field.rank(); ++a)
    clipped[a] = std::min(block.extent(a), field.extent(a));
  block_ = Dims(std::span<const std::size_t>(clipped.data(), field.rank()));
  for (std::size_t a = 0; a < field.rank(); ++a) {
    grid_[a] = (field.extent(a) + block_.extent(a) - 1) / block_.extent(a);
    count_ *= grid_[a];
  }
}

void BlockGrid::block_origin(std::size_t index,
                             std::span<std::size_t> out) const {
  if (index >= count_)
    throw std::out_of_range("BlockGrid: block index out of range");
  const std::size_t rank = field_.rank();
  std::size_t rem = index;
  for (std::size_t a = rank; a-- > 0;) {
    out[a] = (rem % grid_[a]) * block_.extent(a);
    rem /= grid_[a];
  }
}

Dims BlockGrid::block_extents(std::size_t index) const {
  std::array<std::size_t, kMaxDims> origin{};
  block_origin(index, origin);
  std::array<std::size_t, kMaxDims> ext{};
  const std::size_t rank = field_.rank();
  for (std::size_t a = 0; a < rank; ++a)
    ext[a] = std::min(block_.extent(a), field_.extent(a) - origin[a]);
  return Dims(std::span<const std::size_t>(ext.data(), rank));
}

bool BlockGrid::intersects(std::size_t index, const Region& r) const {
  std::array<std::size_t, kMaxDims> origin{};
  block_origin(index, origin);
  const std::size_t rank = field_.rank();
  for (std::size_t a = 0; a < rank; ++a) {
    const std::size_t block_end =
        origin[a] + std::min(block_.extent(a), field_.extent(a) - origin[a]);
    const std::size_t region_end = r.origin[a] + r.extent[a];
    if (origin[a] >= region_end || r.origin[a] >= block_end) return false;
  }
  return true;
}

std::vector<std::size_t> BlockGrid::touched(const Region& r) const {
  const std::size_t rank = field_.rank();
  if (r.rank != rank)
    throw std::invalid_argument("archive: region rank " +
                                std::to_string(r.rank) + " for a rank-" +
                                std::to_string(rank) + " field");
  for (std::size_t a = 0; a < rank; ++a) {
    if (r.extent[a] == 0)
      throw std::invalid_argument("archive: empty region extent on axis " +
                                  std::to_string(a));
    // Overflow-safe: origin + extent can wrap for a hostile region.
    if (r.extent[a] > field_.extent(a) ||
        r.origin[a] > field_.extent(a) - r.extent[a])
      throw std::invalid_argument("archive: region exceeds field bounds on "
                                  "axis " + std::to_string(a));
  }
  std::array<std::size_t, kMaxDims> lo{};
  std::array<std::size_t, kMaxDims> hi{};  // inclusive
  std::size_t n = 1;
  for (std::size_t a = 0; a < rank; ++a) {
    lo[a] = r.origin[a] / block_.extent(a);
    hi[a] = (r.origin[a] + r.extent[a] - 1) / block_.extent(a);
    n *= hi[a] - lo[a] + 1;
  }
  // Odometer over the per-axis ranges, fastest axis last: row-major, so
  // the block indices come out ascending.
  std::vector<std::size_t> out;
  out.reserve(n);
  std::array<std::size_t, kMaxDims> c = lo;
  for (std::size_t k = 0; k < n; ++k) {
    std::size_t index = 0;
    for (std::size_t a = 0; a < rank; ++a) index = index * grid_[a] + c[a];
    out.push_back(index);
    for (std::size_t a = rank; a-- > 0;) {
      if (c[a] < hi[a]) {
        ++c[a];
        break;
      }
      c[a] = lo[a];
    }
  }
  return out;
}

}  // namespace sz14::archive
