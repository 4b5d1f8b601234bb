// Stage-by-stage replays of the codec's public calls, for the traced run.
//
// replay_compress() rebuilds compress()'s stream from the stages the
// library exposes (range scan, prediction + quantization pass, Huffman
// histogram, table build, payload emit), with one span per stage;
// replay_decompress() does the same for decompress_into() (Huffman decode,
// then the reconstruction walk).  Callers compare the replayed bytes and
// values with the real call's, so a layer time is only reported for a
// replay that provably did the same work.
#pragma once

#include <cstdint>
#include <span>
#include <vector>

#include "common/dims.hpp"
#include "core/compressor.hpp"

namespace perfbench {

struct EncodeReplay {
  std::vector<std::uint8_t> stream;
  std::size_t symbols = 0;
  std::size_t predictable = 0;       // the paper's R_PH numerator
  std::uint64_t payload_bytes = 0;   // Huffman payload (codes only)
};

/// Spans: core.range_scan, core.pq_walk, encoding.histogram,
/// encoding.table_build, encoding.emit (stream header, table bytes,
/// payload and the unpredictable section).
[[nodiscard]] EncodeReplay replay_compress(std::span<const float> data,
                                           const sz14::Dims& dims,
                                           const sz14::Options& opts,
                                           std::uint64_t request);

struct DecodeReplay {
  std::size_t symbols = 0;
  std::size_t predictable = 0;
  std::uint64_t payload_bytes = 0;
};

/// Spans: encoding.decode (header + huffman_decode_into), core.recon_walk.
/// Throws std::runtime_error when `out` does not match the stream.
DecodeReplay replay_decompress(std::span<const std::uint8_t> stream,
                               std::span<float> out, std::uint64_t request);

/// Max |x - y| over finite x, with every non-finite x required to come
/// back bit-exact; returns false when any point breaks the bound `eb`.
[[nodiscard]] bool within_bound(std::span<const float> x,
                                std::span<const float> y, double eb);

}  // namespace perfbench
