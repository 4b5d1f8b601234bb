#include "archive/codec.hpp"

#include <cstring>

#include "baselines/fpzip_like.hpp"
#include "baselines/gzip_like.hpp"
#include "baselines/zfp_like.hpp"
#include "core/compressor.hpp"
#include "encoding/deflate_like.hpp"

namespace sz14::archive {
namespace {

// --- sz14: native f32 and f64 error-bounded paths ------------------------
//
// These run the full specialized kernel stack under the caller's per-call
// ExecPolicy: the policy's mode picks the kernels (kFast and kReference
// write the same bytes, so block CRCs do not depend on it), and the
// writer's scratch arena serves every block task.

std::vector<std::uint8_t> sz14_c32(std::span<const float> block,
                                   const Dims& dims, double eb_abs,
                                   const ExecPolicy& exec) {
  Options opts;
  opts.eb_abs = eb_abs;
  opts.exec = exec;
  return compress(block, dims, opts);
}

std::vector<float> sz14_d32(std::span<const std::uint8_t> stream,
                            const ExecPolicy& exec) {
  return decompress(stream, exec).data;
}

std::vector<std::uint8_t> sz14_c64(std::span<const double> block,
                                   const Dims& dims, double eb_abs,
                                   const ExecPolicy& exec) {
  Options opts;
  opts.eb_abs = eb_abs;
  opts.exec = exec;
  return compress(block, dims, opts);
}

std::vector<double> sz14_d64(std::span<const std::uint8_t> stream,
                             const ExecPolicy& exec) {
  return decompress64(stream, exec).data;
}

void sz14_corner32(std::span<const std::uint8_t> stream,
                   std::span<const std::size_t> corner, std::span<float> out,
                   const ExecPolicy& exec) {
  decompress_corner_into(stream, corner, out, exec);
}

void sz14_corner64(std::span<const std::uint8_t> stream,
                   std::span<const std::size_t> corner,
                   std::span<double> out, const ExecPolicy& exec) {
  decompress_corner_into(stream, corner, out, exec);
}

// --- zfp_like / fpzip_like: f32 through the baseline classes --------------

std::vector<std::uint8_t> zfp_c32(std::span<const float> block,
                                  const Dims& dims, double eb_abs,
                                  const ExecPolicy& /*exec*/) {
  return baselines::Zfp().compress(block, dims, eb_abs);
}

std::vector<float> zfp_d32(std::span<const std::uint8_t> stream,
                           const ExecPolicy& exec) {
  return baselines::Zfp().decompress(stream, exec);
}

std::vector<std::uint8_t> fpzip_c32(std::span<const float> block,
                                    const Dims& dims, double eb_abs,
                                    const ExecPolicy& /*exec*/) {
  return baselines::Fpzip().compress(block, dims, eb_abs);
}

std::vector<float> fpzip_d32(std::span<const std::uint8_t> stream,
                             const ExecPolicy& exec) {
  return baselines::Fpzip().decompress(stream, exec);
}

// --- gzip_like: f32 via the baseline class, f64 as raw deflated bytes -----

std::vector<std::uint8_t> gzip_c32(std::span<const float> block,
                                   const Dims& dims, double eb_abs,
                                   const ExecPolicy& /*exec*/) {
  return baselines::Gzip().compress(block, dims, eb_abs);
}

std::vector<float> gzip_d32(std::span<const std::uint8_t> stream,
                            const ExecPolicy& exec) {
  return baselines::Gzip().decompress(stream, exec);
}

std::vector<std::uint8_t> gzip_c64(std::span<const double> block,
                                   const Dims& /*dims*/, double /*eb_abs*/,
                                   const ExecPolicy& /*exec*/) {
  return deflate_like_compress(
      {reinterpret_cast<const std::uint8_t*>(block.data()),
       block.size() * sizeof(double)});
}

std::vector<double> gzip_d64(std::span<const std::uint8_t> stream,
                             const ExecPolicy& /*exec*/) {
  const auto bytes = deflate_like_decompress(stream);
  if (bytes.size() % sizeof(double) != 0)
    throw std::runtime_error("archive: gzip_like f64 payload not 8-aligned");
  std::vector<double> values(bytes.size() / sizeof(double));
  std::memcpy(values.data(), bytes.data(), bytes.size());
  return values;
}

constexpr CodecOps kCodecs[] = {
    {kCodecSz14, "sz14", true, sz14_c32, sz14_d32, sz14_c64, sz14_d64,
     sz14_corner32, sz14_corner64},
    {kCodecZfp, "zfp_like", true, zfp_c32, zfp_d32, nullptr, nullptr,
     nullptr, nullptr},
    {kCodecFpzip, "fpzip_like", false, fpzip_c32, fpzip_d32, nullptr, nullptr,
     nullptr, nullptr},
    {kCodecGzip, "gzip_like", false, gzip_c32, gzip_d32, gzip_c64, gzip_d64,
     nullptr, nullptr},
};

}  // namespace

std::span<const CodecOps> codec_table() noexcept { return kCodecs; }

const CodecOps* codec_by_id(std::uint8_t id) noexcept {
  for (const auto& c : kCodecs)
    if (c.id == id) return &c;
  return nullptr;
}

const CodecOps* codec_by_name(std::string_view name) noexcept {
  for (const auto& c : kCodecs)
    if (name == c.name) return &c;
  return nullptr;
}

}  // namespace sz14::archive
