#include "core/format.hpp"

#include <array>
#include <cmath>
#include <stdexcept>

#include "core/predictor.hpp"

namespace sz14 {

void write_dims(const Dims& dims, ByteWriter& out) {
  out.put<std::uint8_t>(static_cast<std::uint8_t>(dims.rank()));
  for (std::size_t a = 0; a < dims.rank(); ++a)
    out.put_varint(dims.extent(a));
}

Dims read_dims(ByteReader& in) {
  const auto rank = in.get<std::uint8_t>();
  if (rank == 0 || rank > kMaxDims)
    throw std::runtime_error("sz14: bad rank " + std::to_string(rank));
  std::array<std::size_t, kMaxDims> ext{};
  for (std::size_t a = 0; a < rank; ++a)
    ext[a] = static_cast<std::size_t>(in.get_varint());
  try {
    return Dims(std::span<const std::size_t>(ext.data(), rank));
  } catch (const std::invalid_argument& e) {
    throw std::runtime_error(std::string("sz14: malformed dims: ") + e.what());
  }
}

void write_header(const StreamHeader& h, ByteWriter& out) {
  out.put<std::uint32_t>(kMagic);
  out.put<std::uint8_t>(kFormatVersion);
  out.put<std::uint8_t>(h.dtype);
  out.put<std::uint8_t>(
      static_cast<std::uint8_t>((h.decorrelate ? kFlagDecorrelate : 0) |
                                (h.rans_entropy ? kFlagRansEntropy : 0)));
  write_dims(h.dims, out);
  out.put<double>(h.eb_abs);
  out.put<std::uint8_t>(h.interval_bits);
  out.put<std::uint8_t>(h.layers);
}

StreamHeader read_header(ByteReader& in) {
  if (in.get<std::uint32_t>() != kMagic)
    throw std::runtime_error("sz14: bad magic (not an SZ14 stream)");
  const auto version = in.get<std::uint8_t>();
  if (version != kFormatVersion)
    throw std::runtime_error("sz14: unsupported format version " +
                             std::to_string(version));
  StreamHeader h;
  h.dtype = in.get<std::uint8_t>();
  if (h.dtype != kDtypeF32 && h.dtype != kDtypeF64)
    throw std::runtime_error("sz14: unsupported dtype " +
                             std::to_string(h.dtype));
  const auto flags = in.get<std::uint8_t>();
  if (flags & ~(kFlagDecorrelate | kFlagRansEntropy))
    throw std::runtime_error("sz14: unknown header flags");
  h.decorrelate = (flags & kFlagDecorrelate) != 0;
  h.rans_entropy = (flags & kFlagRansEntropy) != 0;
  h.dims = read_dims(in);
  // Checked here, before any entropy decode: a value the quantizer or the
  // predictor would refuse is a malformed stream, and a NaN, negative or
  // infinite bound would otherwise decode into garbage without an error.
  h.eb_abs = in.get<double>();
  if (!std::isfinite(h.eb_abs) || h.eb_abs < 0.0)
    throw std::runtime_error("sz14: bad error bound in header");
  h.interval_bits = in.get<std::uint8_t>();
  if (h.interval_bits < 2 || h.interval_bits > 16)
    throw std::runtime_error("sz14: bad interval bits " +
                             std::to_string(h.interval_bits));
  h.layers = in.get<std::uint8_t>();
  if (h.layers == 0 || h.layers > kMaxLayers)
    throw std::runtime_error("sz14: bad layer count " +
                             std::to_string(h.layers));
  return h;
}

}  // namespace sz14
