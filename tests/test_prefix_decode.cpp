// Leading-plane decode (decompress_prefix_into): for every prefix length k
// the result must equal the first k * stride(0) values of the full decode
// bit for bit, across ranks, layers, dtypes, entropy backends, the
// decorrelation dither and the unpredictable (NaN/Inf/denormal) path; and
// a malformed stream or prefix length must give a typed error.
#include <gtest/gtest.h>

#include <cstring>
#include <limits>
#include <stdexcept>
#include <string>
#include <vector>

#include "common/bytebuffer.hpp"
#include "common/rng.hpp"
#include "core/compressor.hpp"
#include "core/format.hpp"
#include "encoding/huffman.hpp"

namespace sz14 {
namespace {

/// Smooth field with noise; with `spikes`, NaN, +-Inf, denormals and huge
/// outliers spread over the whole index range (so some fall inside and
/// some past any prefix).
template <typename T>
std::vector<T> field(std::size_t n, std::uint64_t seed, bool spikes) {
  Rng rng(seed);
  std::vector<T> v(n);
  for (std::size_t i = 0; i < n; ++i)
    v[i] = static_cast<T>(std::sin(0.07 * static_cast<double>(i)) +
                          0.3 * std::cos(0.011 * static_cast<double>(i)) +
                          0.02 * rng.normal());
  if (spikes) {
    const T specials[] = {std::numeric_limits<T>::quiet_NaN(),
                          std::numeric_limits<T>::infinity(),
                          -std::numeric_limits<T>::infinity(),
                          std::numeric_limits<T>::denorm_min(),
                          static_cast<T>(3e7)};
    for (std::size_t k = 0; k < 5; ++k) v[(k * 7 + 1) * n / 37 % n] = specials[k];
    v[n - 1] = std::numeric_limits<T>::quiet_NaN();
  }
  return v;
}

struct Case {
  Dims dims;
  unsigned layers;
  EntropyBackend entropy;
  bool decorrelate;
  bool spikes;
  HotPathMode decode_mode;
};

std::string describe(const Case& c) {
  return c.dims.to_string() + " layers=" + std::to_string(c.layers) +
         (c.entropy == EntropyBackend::kRans ? " rans" : " huffman") +
         (c.decorrelate ? " decorrelate" : "") + (c.spikes ? " spikes" : "") +
         (c.decode_mode == HotPathMode::kReference ? " reference" : "");
}

template <typename T>
void check_every_prefix(const Case& c) {
  SCOPED_TRACE(describe(c) + (sizeof(T) == 8 ? " f64" : " f32"));
  const auto data = field<T>(c.dims.count(), c.dims.count() * 31 + c.layers,
                             c.spikes);
  Options opts;
  opts.eb_abs = 1e-3;
  opts.layers = c.layers;
  opts.decorrelate = c.decorrelate;
  opts.exec.entropy = c.entropy;
  const auto stream = compress(std::span<const T>(data), c.dims, opts);

  ExecPolicy exec;
  exec.mode = c.decode_mode;
  std::vector<T> full(c.dims.count());
  decompress_into(stream, std::span<T>(full), exec);

  const std::size_t slab = c.dims.stride(0);
  for (std::size_t k = 1; k <= c.dims.extent(0); ++k) {
    std::vector<T> prefix(k * slab);
    const StreamInfo info =
        decompress_prefix_into(stream, k, std::span<T>(prefix), exec);
    EXPECT_EQ(info.dims, c.dims);
    ASSERT_EQ(0, std::memcmp(prefix.data(), full.data(), k * slab * sizeof(T)))
        << "prefix of " << k << " planes differs from the full decode";
  }
}

const std::vector<Dims>& shapes() {
  static const std::vector<Dims> s = {
      Dims{97},          Dims{1},          Dims{13, 11},   Dims{1, 17},
      Dims{17, 1},       Dims{7, 5, 11},   Dims{5, 1, 3},  Dims{11, 13, 7},
      Dims{5, 3, 4, 7},  Dims{3, 1, 2, 5},
  };
  return s;
}

TEST(PrefixDecode, EveryPrefixMatchesFullDecodeBitForBit) {
  for (const Dims& dims : shapes())
    for (unsigned layers = 1; layers <= 3; ++layers)
      for (const auto entropy : {EntropyBackend::kHuffman, EntropyBackend::kRans})
        for (const bool decorrelate : {false, true})
          for (const bool spikes : {false, true}) {
            const Case c{dims, layers, entropy, decorrelate, spikes,
                         HotPathMode::kFast};
            check_every_prefix<float>(c);
            check_every_prefix<double>(c);
          }
}

TEST(PrefixDecode, ReferenceWalkMatchesToo) {
  for (const Dims& dims : shapes())
    for (const bool spikes : {false, true}) {
      const Case c{dims, 2, EntropyBackend::kHuffman, true, spikes,
                   HotPathMode::kReference};
      check_every_prefix<float>(c);
      check_every_prefix<double>(c);
    }
}

TEST(PrefixDecode, LargerBlockAllPrefixes) {
  // A 64-wide slab exercises the windowed Huffman loop and the wavefront
  // walk on interior rows.
  const Case c{Dims{9, 24, 64}, 1, EntropyBackend::kHuffman, false, true,
               HotPathMode::kFast};
  check_every_prefix<float>(c);
}

std::vector<std::uint8_t> sample_stream(EntropyBackend entropy) {
  const Dims dims{6, 5, 7};
  const auto data = field<float>(dims.count(), 5, true);
  Options opts;
  opts.eb_abs = 1e-3;
  opts.exec.entropy = entropy;
  return compress(std::span<const float>(data), dims, opts);
}

TEST(PrefixDecode, PlaneCountOutOfRangeIsInvalidArgument) {
  const auto stream = sample_stream(EntropyBackend::kHuffman);
  std::vector<float> out(5 * 7 * 7);
  EXPECT_THROW(decompress_prefix_into(stream, 0, std::span<float>(out)),
               std::invalid_argument);
  EXPECT_THROW(decompress_prefix_into(stream, 7, std::span<float>(out)),
               std::invalid_argument);
  // Buffer must hold exactly planes * stride(0) values.
  EXPECT_THROW(
      decompress_prefix_into(stream, 2, std::span<float>(out.data(), 69)),
      std::invalid_argument);
  std::vector<double> wrong_type(2 * 35);
  EXPECT_THROW(
      decompress_prefix_into(stream, 2, std::span<double>(wrong_type)),
      std::runtime_error);
}

TEST(PrefixDecode, TruncatedStreamIsRuntimeError) {
  for (const auto entropy : {EntropyBackend::kHuffman, EntropyBackend::kRans}) {
    const auto stream = sample_stream(entropy);
    std::vector<float> out(35);
    // The whole stream is still parsed, so cutting even its last byte
    // (inside the unpredictable section, past any prefix's data) fails.
    for (std::size_t len = 0; len < stream.size(); ++len)
      EXPECT_THROW(decompress_prefix_into(
                       std::span<const std::uint8_t>(stream.data(), len), 1,
                       std::span<float>(out)),
                   std::runtime_error)
          << "length " << len;
  }
}

TEST(PrefixDecode, CorruptHeaderAndSymbolCountAreRuntimeErrors) {
  const auto stream = sample_stream(EntropyBackend::kHuffman);
  std::vector<float> out(35);
  const auto flipped = [&](std::size_t pos, std::uint8_t mask) {
    auto s = stream;
    s[pos] ^= mask;
    return s;
  };
  // Magic, version, dtype, flags.
  for (const std::size_t pos : {0u, 4u, 5u, 6u})
    EXPECT_THROW(decompress_prefix_into(flipped(pos, 0x40), 1,
                                        std::span<float>(out)),
                 std::runtime_error)
        << "byte " << pos;

  // The Huffman symbol count must still equal the header's element count,
  // even though a prefix decode stops long before the last symbol.
  ByteReader r(stream);
  (void)read_header(r);
  (void)huffman_read_lengths(r);
  const std::size_t count_at = r.position();
  ASSERT_EQ(r.get_varint(), 210u);
  EXPECT_THROW(decompress_prefix_into(flipped(count_at, 0x01), 1,
                                      std::span<float>(out)),
               std::runtime_error);
}

TEST(PrefixDecode, EveryBitFlipFailsTypedOrDecodes) {
  // A flip in the entropy payload past the prefix can decode to wrong
  // values without an error (the archive's CRC guards against that); the
  // contract here is that no flip crashes or escapes as an untyped error.
  for (const auto entropy : {EntropyBackend::kHuffman, EntropyBackend::kRans}) {
    const auto stream = sample_stream(entropy);
    for (std::size_t pos = 0; pos < stream.size(); ++pos)
      for (const std::uint8_t mask : {0x01, 0x80}) {
        auto s = stream;
        s[pos] ^= mask;
        std::vector<float> out(2 * 35);
        try {
          decompress_prefix_into(s, 2, std::span<float>(out));
        } catch (const std::runtime_error&) {
        } catch (const std::invalid_argument&) {
          // A flipped extent can make the buffer or plane count wrong.
        }
      }
  }
}

TEST(HuffmanLimit, StopsAfterLimitAndReportsDeclaredCount) {
  Rng rng(11);
  std::vector<std::uint16_t> symbols(1000);
  for (auto& s : symbols) s = static_cast<std::uint16_t>(rng.below(40) * rng.below(3));
  ByteWriter w;
  huffman_encode(symbols, 256, w);
  const auto bytes = std::move(w).take();
  for (const std::size_t limit : {std::size_t{0}, std::size_t{1},
                                  std::size_t{2}, std::size_t{3},
                                  std::size_t{500}, std::size_t{999},
                                  std::size_t{1000}, std::size_t{5000}})
    for (const auto mode : {HotPathMode::kFast, HotPathMode::kReference}) {
      ByteReader r(bytes);
      std::vector<std::uint16_t> out;
      EXPECT_EQ(huffman_decode_into(r, out, mode, limit), 1000u);
      EXPECT_TRUE(r.exhausted());  // the whole section is consumed
      const std::size_t n = std::min<std::size_t>(limit, 1000);
      ASSERT_EQ(out.size(), n);
      EXPECT_TRUE(std::equal(out.begin(), out.end(), symbols.begin()));
    }
}

}  // namespace
}  // namespace sz14
