#include "replay.hpp"

#include <algorithm>
#include <cmath>
#include <cstring>
#include <stdexcept>

#include "bench.hpp"
#include "common/bitstream.hpp"
#include "common/bytebuffer.hpp"
#include "core/format.hpp"
#include "core/kernels.hpp"
#include "core/predictor.hpp"
#include "core/quantizer.hpp"
#include "core/unpredictable.hpp"
#include "encoding/huffman.hpp"

namespace perfbench {

using namespace sz14;

EncodeReplay replay_compress(std::span<const float> data, const Dims& dims,
                             const Options& opts, std::uint64_t request) {
  const HotPathMode mode = opts.exec.resolved_mode();
  EncodeReplay r;
  double eb = 0.0;
  {
    trace::Span s("core.range_scan", request);
    eb = resolve_error_bound_for(data, opts);
  }
  PassResult pass;
  {
    trace::Span s("core.pq_walk", request);
    pass = prediction_quantization_pass(data, dims, opts.layers,
                                        opts.interval_bits, eb,
                                        opts.decorrelate, opts.exec);
  }
  const LinearQuantizer quantizer(opts.interval_bits, eb, mode);
  std::vector<std::uint64_t> freqs;
  {
    trace::Span s("encoding.histogram", request);
    freqs = huffman_histogram(pass.codes, quantizer.alphabet_size(), mode);
  }
  ByteWriter table;
  std::vector<std::uint64_t> packed;
  std::uint64_t total_bits = 0;
  {
    trace::Span s("encoding.table_build", request);
    const auto lengths = huffman_code_lengths(freqs);
    packed = huffman_pack_codes(lengths, huffman_canonical_codes(lengths));
    huffman_write_lengths(lengths, table);
    for (std::size_t sym = 0; sym < freqs.size(); ++sym)
      total_bits += freqs[sym] * lengths[sym];
  }
  ByteWriter out;
  {
    trace::Span s("encoding.emit", request);
    StreamHeader h;
    h.dims = dims;
    h.eb_abs = eb;
    h.dtype = kDtypeF32;
    h.interval_bits = static_cast<std::uint8_t>(opts.interval_bits);
    h.layers = static_cast<std::uint8_t>(opts.layers);
    h.decorrelate = opts.decorrelate;
    write_header(h, out);
    out.put_bytes(table.view());
    out.put_varint(pass.codes.size());
    out.put_varint(static_cast<std::size_t>((total_bits + 7) / 8));
    huffman_append_payload(pass.codes, packed, out.vector(), total_bits);
    out.put_varint(pass.unpred_bits.size());
    out.put_bytes(pass.unpred_bits);
  }
  r.stream = std::move(out).take();
  r.symbols = pass.codes.size();
  r.predictable = pass.predictable;
  r.payload_bytes = (total_bits + 7) / 8;
  return r;
}

DecodeReplay replay_decompress(std::span<const std::uint8_t> stream,
                               std::span<float> out, std::uint64_t request) {
  const HotPathMode mode = ExecPolicy{}.resolved_mode();
  ByteReader in(stream);
  StreamHeader h;
  std::vector<std::uint16_t> codes;
  std::span<const std::uint8_t> unpred_bytes;
  {
    trace::Span s("encoding.decode", request);
    h = read_header(in);
    if (h.dtype != kDtypeF32 || h.rans_entropy)
      throw std::runtime_error("replay: expected an f32 Huffman stream");
    huffman_decode_into(in, codes, mode);
    const auto n_unpred = static_cast<std::size_t>(in.get_varint());
    unpred_bytes = in.get_bytes(n_unpred);
  }
  if (codes.size() != h.dims.count() || out.size() != codes.size())
    throw std::runtime_error("replay: output size does not match stream");
  {
    trace::Span s("core.recon_walk", request);
    const LayerPredictor predictor(h.dims, h.layers);
    const LinearQuantizer quantizer(h.interval_bits, h.eb_abs, mode);
    const UnpredictableCodecT<float> unpred(h.eb_abs);
    BitReader br(unpred_bytes, mode);
    detail::pq_decompress_walk<float>(codes, h.dims, predictor, quantizer,
                                      unpred, h.eb_abs, h.decorrelate, mode,
                                      out, br);
  }
  DecodeReplay r;
  r.symbols = codes.size();
  r.predictable = codes.size() - static_cast<std::size_t>(std::count(
                                     codes.begin(), codes.end(), 0));
  ByteReader sizes(stream);
  (void)read_header(sizes);
  (void)huffman_read_lengths(sizes);
  (void)sizes.get_varint();  // symbol count
  r.payload_bytes = sizes.get_varint();
  return r;
}

bool within_bound(std::span<const float> x, std::span<const float> y,
                  double eb) {
  if (x.size() != y.size()) return false;
  for (std::size_t i = 0; i < x.size(); ++i) {
    if (std::isfinite(x[i])) {
      const double err =
          std::fabs(static_cast<double>(x[i]) - static_cast<double>(y[i]));
      if (!(err <= eb)) return false;
    } else if (std::memcmp(&x[i], &y[i], sizeof(float)) != 0) {
      return false;
    }
  }
  return true;
}

}  // namespace perfbench
