// Stream-format tests: header round trip, field validation, and a golden
// pin of the serialized header bytes so accidental format changes are
// caught (bump kFormatVersion intentionally when the layout changes).
#include "core/format.hpp"

#include <gtest/gtest.h>

#include <algorithm>
#include <cmath>
#include <cstring>
#include <functional>
#include <limits>
#include <stdexcept>
#include <string>
#include <vector>

#include "core/compressor.hpp"
#include "core/predictor.hpp"
#include "data/generators.hpp"

namespace sz14 {
namespace {

TEST(Format, HeaderRoundTrip) {
  StreamHeader h;
  h.dims = Dims{7, 9, 11};
  h.eb_abs = 3.5e-4;
  h.dtype = kDtypeF64;
  h.interval_bits = 12;
  h.layers = 3;
  h.decorrelate = true;
  ByteWriter w;
  write_header(h, w);
  auto bytes = std::move(w).take();
  ByteReader r(bytes);
  const StreamHeader back = read_header(r);
  EXPECT_EQ(back.dims, h.dims);
  EXPECT_DOUBLE_EQ(back.eb_abs, h.eb_abs);
  EXPECT_EQ(back.dtype, kDtypeF64);
  EXPECT_EQ(back.interval_bits, 12);
  EXPECT_EQ(back.layers, 3);
  EXPECT_TRUE(back.decorrelate);
}

TEST(Format, GoldenHeaderBytes) {
  StreamHeader h;
  h.dims = Dims{2, 3};
  h.eb_abs = 0.5;
  ByteWriter w;
  write_header(h, w);
  const auto bytes = std::move(w).take();
  const std::uint8_t expected[] = {
      0x34, 0x31, 0x5A, 0x53,  // magic "SZ14" little-endian
      0x02,                    // version
      0x00,                    // dtype f32
      0x00,                    // flags
      0x02,                    // rank
      0x02, 0x03,              // extents
      0x00, 0x00, 0x00, 0x00, 0x00, 0x00, 0xE0, 0x3F,  // 0.5 as f64 LE
      0x08,                    // interval bits
      0x01,                    // layers
  };
  ASSERT_EQ(bytes.size(), sizeof(expected));
  for (std::size_t i = 0; i < sizeof(expected); ++i)
    EXPECT_EQ(bytes[i], expected[i]) << "header byte " << i;
}

TEST(Format, UnknownFlagRejected) {
  StreamHeader h;
  h.dims = Dims{4};
  ByteWriter w;
  write_header(h, w);
  auto bytes = std::move(w).take();
  bytes[6] = 0x80;  // set an undefined flag bit
  ByteReader r(bytes);
  EXPECT_THROW((void)read_header(r), std::runtime_error);
}

TEST(Format, BadDtypeRejected) {
  StreamHeader h;
  h.dims = Dims{4};
  ByteWriter w;
  write_header(h, w);
  auto bytes = std::move(w).take();
  bytes[5] = 7;
  ByteReader r(bytes);
  EXPECT_THROW((void)read_header(r), std::runtime_error);
}

TEST(Format, WrongVersionRejected) {
  StreamHeader h;
  h.dims = Dims{4};
  ByteWriter w;
  write_header(h, w);
  auto bytes = std::move(w).take();
  bytes[4] = kFormatVersion + 1;
  ByteReader r(bytes);
  EXPECT_THROW((void)read_header(r), std::runtime_error);
}

/// Linear field: every point predictable at eb 1e-3, so the stream has no
/// unpredictable section that could fail before the header checks.
template <typename T>
std::vector<std::uint8_t> linear_stream(const Dims& dims, double eb) {
  std::vector<T> v(dims.count());
  for (std::size_t i = 0; i < v.size(); ++i)
    v[i] = static_cast<T>(0.001 * static_cast<double>(i % 7) +
                          0.002 * static_cast<double>(i / 7));
  Options opts;
  opts.eb_abs = eb;
  return compress(std::span<const T>(v), dims, opts);
}

/// Every public decode entry point for element type T.
template <typename T>
void decode_everywhere(std::span<const std::uint8_t> stream,
                       const Dims& dims,
                       const std::function<void(const char*,
                                                std::function<void()>)>& run) {
  std::vector<T> out(dims.count());
  const std::vector<std::size_t> corner(dims.rank(), 1);
  if constexpr (sizeof(T) == 4)
    run("decompress", [&] { (void)decompress(stream); });
  else
    run("decompress64", [&] { (void)decompress64(stream); });
  run("decompress_into", [&] { decompress_into(stream, std::span<T>(out)); });
  run("decompress_corner_into", [&] {
    decompress_corner_into(stream, corner, std::span<T>(out.data(), 1));
  });
}

template <typename T>
void check_impossible_header_values() {
  const Dims dims{6, 5, 7};
  const auto stream = linear_stream<T>(dims, 1e-3);
  ByteReader r(stream);
  (void)read_header(r);
  const std::size_t end = r.position();  // ... eb f64 | interval u8 | layers u8
  struct Patch {
    std::size_t at;
    std::vector<std::uint8_t> bytes;
    const char* field;
  };
  const auto f64 = [](double x) {
    std::vector<std::uint8_t> b(8);
    std::memcpy(b.data(), &x, 8);
    return b;
  };
  const std::vector<Patch> patches = {
      {end - 1, {0}, "layer count"},
      {end - 1, {kMaxLayers + 1}, "layer count"},
      {end - 1, {255}, "layer count"},
      {end - 2, {0}, "interval bits"},
      {end - 2, {1}, "interval bits"},
      {end - 2, {17}, "interval bits"},
      {end - 2, {255}, "interval bits"},
      {end - 10, f64(std::numeric_limits<double>::quiet_NaN()), "error bound"},
      {end - 10, f64(-1.0), "error bound"},
      {end - 10, f64(std::numeric_limits<double>::infinity()), "error bound"},
      {end - 10, f64(-std::numeric_limits<double>::infinity()), "error bound"},
  };
  for (const auto& p : patches) {
    SCOPED_TRACE(std::string(p.field) + " byte " + std::to_string(p.at) +
                 (sizeof(T) == 8 ? " f64" : " f32"));
    auto bad = stream;
    std::copy(p.bytes.begin(), p.bytes.end(), bad.begin() + p.at);
    // The header is checked before any entropy decode: the same error comes
    // back when nothing follows the header at all.
    auto header_only = bad;
    header_only.resize(end);
    for (const auto* s : {&bad, &header_only})
      decode_everywhere<T>(*s, dims, [&](const char* path, auto&& call) {
        try {
          call();
          ADD_FAILURE() << path << " accepted the stream";
        } catch (const std::runtime_error& e) {
          EXPECT_NE(std::string(e.what()).find(p.field), std::string::npos)
              << path << ": " << e.what();
        } catch (const std::exception& e) {
          ADD_FAILURE() << path << " threw a non-runtime_error: " << e.what();
        }
      });
  }
}

TEST(Format, ImpossibleHeaderValuesAreRuntimeErrorsBeforeEntropyDecode) {
  check_impossible_header_values<float>();
  check_impossible_header_values<double>();
}

TEST(Format, BoundaryHeaderValuesStillDecode) {
  // eb = 0 (lossless), interval bits 2 and 16 and kMaxLayers layers are
  // legal and must decode.
  const Dims dims{6, 5, 7};
  std::vector<float> v(dims.count());
  for (std::size_t i = 0; i < v.size(); ++i)
    v[i] = std::sin(0.3f * static_cast<float>(i));
  for (const unsigned bits : {2u, 16u})
    for (const unsigned layers : {1u, kMaxLayers})
      for (const double eb : {0.0, 1e-3}) {
        Options opts;
        opts.eb_abs = eb;
        opts.interval_bits = bits;
        opts.layers = layers;
        const auto stream = compress(std::span<const float>(v), dims, opts);
        const auto back = decompress(stream);
        ASSERT_EQ(back.data.size(), v.size());
        for (std::size_t i = 0; i < v.size(); ++i)
          ASSERT_LE(std::fabs(back.data[i] - v[i]), eb) << i;
        std::vector<double> v64(v.begin(), v.end());
        const auto s64 = compress(std::span<const double>(v64), dims, opts);
        std::vector<double> out(v.size());
        decompress_into(s64, std::span<double>(out));
        for (std::size_t i = 0; i < v64.size(); ++i)
          ASSERT_LE(std::fabs(out[i] - v64[i]), eb) << i;
      }
}

TEST(Format, CompressedStreamIsDeterministic) {
  // Same input + options must give byte-identical streams (no hidden
  // timestamps/randomness) — a requirement for the chunk-deterministic
  // parallel container.
  const auto f = data::climate2d(32, 32);
  Options opts;
  opts.eb_rel = 1e-3;
  EXPECT_EQ(compress(f.values, f.dims, opts), compress(f.values, f.dims, opts));
  opts.decorrelate = true;
  EXPECT_EQ(compress(f.values, f.dims, opts), compress(f.values, f.dims, opts));
}

}  // namespace
}  // namespace sz14
