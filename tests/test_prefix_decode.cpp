// Corner decode (decompress_corner_into): for every corner c of a stream's
// shape — the box [0, c_a) on every axis — the result must equal that
// sub-box of the full decode bit for bit, across ranks 1-4 (1-wide and
// prime extents), layers, dtypes, entropy backends, the decorrelation
// dither, the lossless eb = 0 stream and the unpredictable
// (NaN/Inf/denormal) path; and a malformed stream, corner or buffer must
// give a typed error.  The leading-plane corners {k, full...} are the
// former prefix decode.
#include <gtest/gtest.h>

#include <algorithm>
#include <cmath>
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

template <typename T>
const T kSpecials[] = {std::numeric_limits<T>::quiet_NaN(),
                       std::numeric_limits<T>::infinity(),
                       -std::numeric_limits<T>::infinity(),
                       std::numeric_limits<T>::denorm_min(),
                       static_cast<T>(3e7)};

/// Smooth field with noise.  With `spikes`, NaN, +-Inf, denormals and huge
/// outliers go into the last column of every third row (skipped by every
/// corner short of the fastest extent, so a compaction that drops their
/// bits misreads everything after them) and over the whole index range.
template <typename T>
std::vector<T> field(const Dims& dims, std::uint64_t seed, bool spikes) {
  const std::size_t n = dims.count();
  Rng rng(seed);
  std::vector<T> v(n);
  for (std::size_t i = 0; i < n; ++i)
    v[i] = static_cast<T>(std::sin(0.07 * static_cast<double>(i)) +
                          0.3 * std::cos(0.011 * static_cast<double>(i)) +
                          0.02 * rng.normal());
  if (spikes) {
    const std::size_t row = dims.extent(dims.rank() - 1);
    for (std::size_t r = 0; r * row < n; r += 3)
      v[r * row + row - 1] = kSpecials<T>[r % 5];
    for (std::size_t k = 0; k < 5; ++k)
      v[(k * 7 + 1) * n / 37 % n] = kSpecials<T>[k];
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
  double eb = 1e-3;
};

std::string describe(const Case& c) {
  return c.dims.to_string() + " layers=" + std::to_string(c.layers) +
         (c.entropy == EntropyBackend::kRans ? " rans" : " huffman") +
         (c.decorrelate ? " decorrelate" : "") + (c.spikes ? " spikes" : "") +
         (c.decode_mode == HotPathMode::kReference ? " reference" : "") +
         " eb=" + std::to_string(c.eb);
}

/// Corners to check.  Every corner of a shape with at most kEveryCorner
/// of them; for a larger shape, every leading-plane corner {k, full...}
/// plus every corner whose components are drawn from {1, 2, e/2, e-1, e}
/// on each axis.  `prefixes_only` keeps just the leading-plane corners.
constexpr std::size_t kEveryCorner = 200;

std::vector<std::vector<std::size_t>> corners(const Dims& dims,
                                              bool prefixes_only) {
  const std::size_t rank = dims.rank();
  std::vector<std::vector<std::size_t>> choices(rank);
  std::size_t every = 1;
  for (std::size_t a = 0; a < rank; ++a) every *= dims.extent(a);
  for (std::size_t a = 0; a < rank; ++a) {
    const std::size_t e = dims.extent(a);
    if (prefixes_only)
      choices[a] = {e};
    else if (every <= kEveryCorner)
      for (std::size_t k = 1; k <= e; ++k) choices[a].push_back(k);
    else
      for (const std::size_t k : {std::size_t{1}, std::size_t{2}, e / 2,
                                  e - 1, e})
        if (k >= 1 && k <= e &&
            std::find(choices[a].begin(), choices[a].end(), k) ==
                choices[a].end())
          choices[a].push_back(k);
  }
  std::vector<std::vector<std::size_t>> out;
  for (std::size_t k = 1; k <= dims.extent(0); ++k) {  // leading planes
    std::vector<std::size_t> c(dims.extents().begin(), dims.extents().end());
    c[0] = k;
    out.push_back(c);
  }
  if (prefixes_only) return out;
  // Odometer over the per-axis choices.
  std::vector<std::size_t> pick(rank, 0);
  while (true) {
    std::vector<std::size_t> c(rank);
    for (std::size_t a = 0; a < rank; ++a) c[a] = choices[a][pick[a]];
    if (std::find(out.begin(), out.end(), c) == out.end()) out.push_back(c);
    std::size_t a = rank;
    while (a-- > 0) {
      if (++pick[a] < choices[a].size()) break;
      pick[a] = 0;
    }
    if (a == static_cast<std::size_t>(-1)) return out;
  }
}

template <typename T>
void check_corners(const Case& c, bool prefixes_only = false) {
  SCOPED_TRACE(describe(c) + (sizeof(T) == 8 ? " f64" : " f32"));
  const auto data = field<T>(c.dims, c.dims.count() * 31 + c.layers,
                             c.spikes);
  Options opts;
  opts.eb_abs = c.eb;
  opts.layers = c.layers;
  opts.decorrelate = c.decorrelate;
  opts.exec.entropy = c.entropy;
  const auto stream = compress(std::span<const T>(data), c.dims, opts);

  ExecPolicy exec;
  exec.mode = c.decode_mode;
  std::vector<T> full(c.dims.count());
  decompress_into(stream, std::span<T>(full), exec);

  const std::vector<std::size_t> zero(c.dims.rank(), 0);
  for (const auto& corner : corners(c.dims, prefixes_only)) {
    const Dims shape(corner);
    std::vector<T> want(shape.count());
    copy_subcuboid(full.data(), c.dims, zero, want.data(), shape, zero,
                   corner);
    std::vector<T> got(shape.count());
    const StreamInfo info =
        decompress_corner_into(stream, corner, std::span<T>(got), exec);
    EXPECT_EQ(info.dims, c.dims);
    ASSERT_EQ(0, std::memcmp(got.data(), want.data(), want.size() * sizeof(T)))
        << "corner " << shape.to_string() << " differs from the full decode";
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

TEST(CornerDecode, EveryCornerMatchesFullDecodeBitForBit) {
  for (const Dims& dims : shapes())
    for (unsigned layers = 1; layers <= 3; ++layers)
      for (const auto entropy : {EntropyBackend::kHuffman, EntropyBackend::kRans})
        for (const bool decorrelate : {false, true})
          for (const bool spikes : {false, true}) {
            const Case c{dims, layers, entropy, decorrelate, spikes,
                         HotPathMode::kFast};
            check_corners<float>(c);
            check_corners<double>(c);
          }
}

TEST(CornerDecode, ReferenceModeMatchesToo) {
  // Corner decodes take the pre-decoded walk in every mode; the identity
  // corner keeps the reference walk.  Both must match the full decode.
  for (const Dims& dims : shapes())
    for (const bool decorrelate : {false, true})
      for (const bool spikes : {false, true}) {
        const Case c{dims, 2, EntropyBackend::kHuffman, decorrelate, spikes,
                     HotPathMode::kReference};
        check_corners<float>(c);
        check_corners<double>(c);
      }
}

TEST(CornerDecode, LosslessStreamEveryCorner) {
  // eb = 0 makes every point unpredictable: the corner pass consumes and
  // compacts nothing but raw values.
  for (const Dims& dims : shapes())
    for (const auto entropy : {EntropyBackend::kHuffman, EntropyBackend::kRans})
      for (const bool spikes : {false, true}) {
        const Case c{dims, 1, entropy, false, spikes, HotPathMode::kFast, 0.0};
        check_corners<float>(c);
        check_corners<double>(c);
      }
}

TEST(CornerDecode, LargerBlockCorners) {
  // 64- and 40-wide rows exercise the windowed Huffman loop and the
  // wavefront walk on interior rows: every leading-plane corner of the
  // larger block, the leading-plane and lattice corners of the smaller.
  const Case c{Dims{9, 24, 64}, 1, EntropyBackend::kHuffman, false, true,
               HotPathMode::kFast};
  check_corners<float>(c, /*prefixes_only=*/true);
  const Case d{Dims{5, 12, 40}, 2, EntropyBackend::kHuffman, false, true,
               HotPathMode::kFast};
  check_corners<float>(d);
}

TEST(CornerDecode, SkippedColumnSpecialsKeepTheirBits) {
  // Only the columns a corner skips hold non-finite and denormal values;
  // the corner's own values must still come back exactly as in the full
  // decode (their unpredictable bits sit after the skipped ones').
  const Dims dims{6, 7, 9};
  std::vector<float> v(dims.count());
  for (std::size_t i = 0; i < v.size(); ++i)
    v[i] = static_cast<float>(std::sin(0.05 * static_cast<double>(i)));
  for (std::size_t i = 0; i < v.size(); ++i)
    if (i % 9 >= 5) v[i] = kSpecials<float>[i % 5];
  for (std::size_t i = 4; i < v.size(); i += 9) v[i] = 1e6f;  // kept spikes
  Options opts;
  opts.eb_abs = 1e-3;
  const auto stream = compress(std::span<const float>(v), dims, opts);
  const auto full = decompress(stream).data;
  const std::vector<std::size_t> zero(3, 0);
  for (const auto& corner :
       {std::vector<std::size_t>{6, 7, 5}, {3, 4, 5}, {1, 1, 5}, {6, 2, 1}}) {
    const Dims shape(corner);
    std::vector<float> want(shape.count());
    copy_subcuboid(full.data(), dims, zero, want.data(), shape, zero, corner);
    std::vector<float> got(shape.count());
    decompress_corner_into(stream, corner, std::span<float>(got));
    EXPECT_EQ(0, std::memcmp(got.data(), want.data(), want.size() * 4))
        << shape.to_string();
    for (const float x : got) EXPECT_TRUE(std::isfinite(x));
  }
}

// --- zero-skip in the pre-decode pass ----------------------------------
//
// The pre-decode pass skips the per-code loop of any row without a code 0.
// These fields are linear (every Lorenzo residual is tiny, so no code 0
// appears by accident) with distinct spikes placed relative to one corner;
// a spike also makes its +1 neighbours on every axis unpredictable.  The
// spike values differ, so a pass that drops or misplaces any point's bits
// reads some later kept point's value wrong.

enum class Spots {
  kInsideFirstLast,   // inside rows: column 0, the last kept, the last
  kOutsideRows,       // rows outside the corner, then a kept spike
  kLastRowTail,       // the skipped tail of the corner's last row
  kTailOnlyThenKept,  // tails of inside rows only, then a kept spike
};

template <typename T>
std::vector<T> spiked_field(const Dims& dims,
                            const std::vector<std::size_t>& corner,
                            Spots spots) {
  const std::size_t rank = dims.rank();
  const std::size_t C = dims.extent(rank - 1);
  const std::size_t keep = corner[rank - 1];
  const std::size_t rows = dims.count() / C;
  std::vector<T> v(dims.count());
  std::vector<std::size_t> coord(rank);
  for (std::size_t i = 0; i < v.size(); ++i) {
    double x = 0.0;
    for (std::size_t a = 0, rem = i; a < rank; ++a) {
      coord[a] = rem / dims.stride(a);
      rem %= dims.stride(a);
      x += 0.001 * static_cast<double>(a + 1) * static_cast<double>(coord[a]);
    }
    v[i] = static_cast<T>(x);
  }
  std::size_t k = 0;
  const auto spike = [&](std::size_t row, std::size_t c) {
    v[row * C + c] = k % 4 == 3 ? kSpecials<T>[k % 3]
                                : static_cast<T>(1e5 * static_cast<double>(k + 1));
    ++k;
  };
  // Row `row` lies inside the corner when every slower coordinate does.
  const auto inside = [&](std::size_t row) {
    for (std::size_t a = rank - 1; a-- > 0;) {
      if (row % dims.extent(a) >= corner[a]) return false;
      row /= dims.extent(a);
    }
    return true;
  };
  std::size_t last = 0;  // the corner's last row
  for (std::size_t row = 0; row < rows; ++row)
    if (inside(row)) last = row;
  for (std::size_t row = 0; row < rows; ++row) {
    const bool in = inside(row);
    switch (spots) {
      case Spots::kInsideFirstLast:
        if (in && row != last)
          spike(row, row % 3 == 0 ? 0 : row % 3 == 1 ? keep - 1 : C - 1);
        break;
      case Spots::kOutsideRows:
        if (!in && row < last) spike(row, (row * 7) % C);
        break;
      case Spots::kLastRowTail:
        if (row == last)
          for (std::size_t c = keep; c < C; ++c) spike(row, c);
        if (row > last) spike(row, row % C);
        break;
      case Spots::kTailOnlyThenKept:
        if (in && row != last && keep < C) spike(row, C - 1);
        break;
    }
  }
  if (spots != Spots::kLastRowTail) spike(last, 0);  // read after the rest
  return v;
}

template <typename T>
void check_zero_skip(const Dims& dims, const std::vector<std::size_t>& corner,
                     Spots spots, EntropyBackend entropy, bool decorrelate) {
  SCOPED_TRACE(dims.to_string() + " corner " + Dims(corner).to_string() +
               " spots " + std::to_string(static_cast<int>(spots)) +
               (entropy == EntropyBackend::kRans ? " rans" : " huffman") +
               (decorrelate ? " decorrelate" : "") +
               (sizeof(T) == 8 ? " f64" : " f32"));
  const auto data = spiked_field<T>(dims, corner, spots);
  Options opts;
  opts.eb_abs = 1e-3;
  opts.decorrelate = decorrelate;
  opts.exec.entropy = entropy;
  const auto stream = compress(std::span<const T>(data), dims, opts);

  // The whole decode (which skips zero-free rows) against the reference
  // walk, which reads unpredictable bits inline and skips nothing.
  std::vector<T> full(dims.count()), ref(dims.count());
  decompress_into(stream, std::span<T>(full));
  ExecPolicy reference;
  reference.mode = HotPathMode::kReference;
  decompress_into(stream, std::span<T>(ref), reference);
  ASSERT_EQ(0, std::memcmp(full.data(), ref.data(), full.size() * sizeof(T)));

  const Dims shape(corner);
  const std::vector<std::size_t> zero(dims.rank(), 0);
  std::vector<T> want(shape.count()), got(shape.count());
  copy_subcuboid(full.data(), dims, zero, want.data(), shape, zero, corner);
  decompress_corner_into(stream, corner, std::span<T>(got));
  ASSERT_EQ(0, std::memcmp(got.data(), want.data(), want.size() * sizeof(T)));
}

TEST(CornerDecode, ZeroSkipKeepsEveryUnpredictableBit) {
  const std::vector<std::pair<Dims, std::vector<std::vector<std::size_t>>>>
      cases = {
          {Dims{9, 13}, {{4, 6}, {9, 1}, {1, 13}, {6, 12}, {9, 13}, {2, 2}}},
          {Dims{5, 6, 11},
           {{3, 4, 5}, {5, 6, 5}, {2, 6, 11}, {1, 1, 3}, {5, 3, 10},
            {4, 1, 1}}},
      };
  for (const auto& [dims, list] : cases)
    for (const auto& corner : list)
      for (const auto spots : {Spots::kInsideFirstLast, Spots::kOutsideRows,
                               Spots::kLastRowTail, Spots::kTailOnlyThenKept})
        for (const auto entropy :
             {EntropyBackend::kHuffman, EntropyBackend::kRans})
          for (const bool decorrelate : {false, true}) {
            check_zero_skip<float>(dims, corner, spots, entropy, decorrelate);
            check_zero_skip<double>(dims, corner, spots, entropy, decorrelate);
          }
}

std::vector<std::uint8_t> sample_stream(EntropyBackend entropy) {
  const Dims dims{6, 5, 7};
  const auto data = field<float>(dims, 5, true);
  Options opts;
  opts.eb_abs = 1e-3;
  opts.exec.entropy = entropy;
  return compress(std::span<const float>(data), dims, opts);
}

TEST(CornerDecode, BadCornerOrBufferIsInvalidArgument) {
  const auto stream = sample_stream(EntropyBackend::kHuffman);
  std::vector<float> out(6 * 5 * 7);
  const auto corner_into = [&](std::vector<std::size_t> corner,
                               std::size_t n) {
    decompress_corner_into(stream, corner, std::span<float>(out.data(), n));
  };
  // A zero or oversized component, on every axis.
  EXPECT_THROW(corner_into({0, 5, 7}, 0), std::invalid_argument);
  EXPECT_THROW(corner_into({2, 0, 7}, 0), std::invalid_argument);
  EXPECT_THROW(corner_into({2, 5, 0}, 0), std::invalid_argument);
  EXPECT_THROW(corner_into({7, 5, 7}, 245), std::invalid_argument);
  EXPECT_THROW(corner_into({2, 6, 7}, 84), std::invalid_argument);
  EXPECT_THROW(corner_into({2, 5, 8}, 80), std::invalid_argument);
  // The wrong corner rank.
  EXPECT_THROW(corner_into({2, 5}, 10), std::invalid_argument);
  EXPECT_THROW(corner_into({2, 5, 7, 1}, 70), std::invalid_argument);
  // The buffer must hold exactly the corner's values.
  EXPECT_THROW(corner_into({2, 3, 4}, 23), std::invalid_argument);
  EXPECT_THROW(corner_into({2, 3, 4}, 25), std::invalid_argument);
  EXPECT_NO_THROW(corner_into({2, 3, 4}, 24));
  const std::vector<std::size_t> corner{2, 5, 7};
  std::vector<double> wrong_type(2 * 35);
  EXPECT_THROW(
      decompress_corner_into(stream, corner, std::span<double>(wrong_type)),
      std::runtime_error);
}

const std::vector<std::vector<std::size_t>>& sample_corners() {
  static const std::vector<std::vector<std::size_t>> c = {
      {1, 1, 1}, {2, 3, 4}, {6, 5, 1}, {1, 5, 7}, {6, 5, 7}};
  return c;
}

TEST(CornerDecode, TruncatedStreamIsRuntimeError) {
  for (const auto entropy : {EntropyBackend::kHuffman, EntropyBackend::kRans}) {
    const auto stream = sample_stream(entropy);
    // The whole stream is still parsed, so cutting even its last byte
    // (inside the unpredictable section, past any corner's data) fails.
    for (const auto& corner : sample_corners()) {
      std::vector<float> out(Dims(corner).count());
      for (std::size_t len = 0; len < stream.size(); ++len)
        EXPECT_THROW(decompress_corner_into(
                         std::span<const std::uint8_t>(stream.data(), len),
                         corner, std::span<float>(out)),
                     std::runtime_error)
            << "length " << len << " corner " << Dims(corner).to_string();
    }
  }
}

TEST(CornerDecode, CorruptHeaderAndSymbolCountAreRuntimeErrors) {
  const auto stream = sample_stream(EntropyBackend::kHuffman);
  const std::vector<std::size_t> corner{1, 2, 3};
  std::vector<float> out(6);
  const auto flipped = [&](std::size_t pos, std::uint8_t mask) {
    auto s = stream;
    s[pos] ^= mask;
    return s;
  };
  // Magic, version, dtype, flags.
  for (const std::size_t pos : {0u, 4u, 5u, 6u})
    EXPECT_THROW(decompress_corner_into(flipped(pos, 0x40), corner,
                                        std::span<float>(out)),
                 std::runtime_error)
        << "byte " << pos;

  // The Huffman symbol count must still equal the header's element count,
  // even though a corner decode stops long before the last symbol.
  ByteReader r(stream);
  (void)read_header(r);
  (void)huffman_read_lengths(r);
  const std::size_t count_at = r.position();
  ASSERT_EQ(r.get_varint(), 210u);
  EXPECT_THROW(decompress_corner_into(flipped(count_at, 0x01), corner,
                                      std::span<float>(out)),
               std::runtime_error);
}

TEST(CornerDecode, EveryBitFlipFailsTypedOrDecodes) {
  // A flip in the entropy payload past the corner can decode to wrong
  // values without an error (the archive's CRC guards against that); the
  // contract here is that no flip crashes or escapes as an untyped error.
  // Three corners: a point, an inner box, a full-row box.
  const auto few = std::span(sample_corners()).first(3);
  for (const auto entropy : {EntropyBackend::kHuffman, EntropyBackend::kRans}) {
    const auto stream = sample_stream(entropy);
    for (const auto& corner : few) {
      std::vector<float> out(Dims(corner).count());
      for (std::size_t pos = 0; pos < stream.size(); ++pos)
        for (unsigned bit = 0; bit < 8; ++bit) {
          auto s = stream;
          s[pos] ^= static_cast<std::uint8_t>(1u << bit);
          try {
            decompress_corner_into(s, corner, std::span<float>(out));
          } catch (const std::runtime_error&) {
          } catch (const std::invalid_argument&) {
            // A flipped extent can make the corner or buffer wrong.
          }
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
