// Dimension-specialized fused prediction + quantization kernels — the hot
// path behind compress() and decompress().
//
// The generic pass walks a CoordWalker and re-checks stencil/boundary
// containment per point.  These kernels instead decompose the 1D/2D/3D
// index space into border segments (O(surface), handled by the predictor's
// zero-extension path) and interior row spans, where prediction is a plain
// tap loop over row pointers — and, for the default 1-layer (Lorenzo)
// stencil, a hardcoded expression.  Accumulation order matches
// LayerPredictor::predict tap-for-tap, so codes, reconstructions, and
// unpredictable bitstreams are bit-identical to the generic pass (enforced
// by tests/test_kernels.cpp); rank-4 shapes and HotPathMode::kReference
// take the generic walk.  The kFast compress walk quantizes with
// quantize_exact (core/quantizer.hpp): a reciprocal multiply and an add/
// subtract round on the prediction chain, with the exact divide and
// round-half-away re-run only within a hair of a half-interval, so its
// codes stay those of LinearQuantizer::quantize.
//
// The mode is a plain argument: the walks never read process state, so
// concurrent calls with different modes are independent by construction.
#pragma once

#include <span>

#include "common/bitstream.hpp"
#include "common/dims.hpp"
#include "common/exec_policy.hpp"
#include "core/compressor.hpp"
#include "core/predictor.hpp"
#include "core/quantizer.hpp"
#include "core/unpredictable.hpp"

namespace sz14::detail {

/// Walk statistics (see PassResultT for the two hit definitions).
/// The reference walk counts both; the fast walks count strict_hits only
/// on request (it stays 0 otherwise).
struct PassCounters {
  std::size_t predictable = 0;
  std::size_t strict_hits = 0;
};

/// Compress-side fused walk: fills codes / recon (both caller-owned and
/// written in full, so they may be uninitialized on entry) and appends
/// unpredictable-point bits to bw.  Preconditions (checked by the caller):
/// data.size() == dims.count() == codes.size() == recon.size().
/// `count_strict_hits` asks the fast walk for PassCounters::strict_hits,
/// a compare-add per point that compress() has no use for.
template <typename T>
PassCounters pq_compress_walk(std::span<const T> data, const Dims& dims,
                              const LayerPredictor& predictor,
                              const LinearQuantizer& quantizer,
                              const UnpredictableCodecT<T>& unpred, double eb,
                              bool decorrelate, HotPathMode mode,
                              std::span<std::uint16_t> codes,
                              std::span<T> recon, BitWriter& bw,
                              bool count_strict_hits = false);

/// Decompress-side mirror: consumes codes plus the unpredictable bitstream
/// into out (out.size() == dims.count() == codes.size()).  `scratch`, when
/// non-null, supplies the fast path's pre-decoded unpredictable-value and
/// row-rank buffers (reused across calls, never visible in the output).
///
/// With `layout` set, `dims` is a corner of the stream's layout: the box
/// [0, dims.extent(a)) on every axis.  `codes` then holds the layout's codes
/// in stream order up to (at least) the corner's last point; the pre-decode
/// pass keeps only the corner's codes and unpredictable values, compacting
/// `codes` in place, and the walk runs on `dims` (`predictor` must be built
/// for `dims`).  Every tap reaches back on every axis, so the corner equals
/// that sub-box of the full decode — except under decorrelation, whose
/// dither is keyed by the layout index: callers widen such corners to the
/// full trailing extents.  Corner walks always take the pre-decoded path.
template <typename T>
void pq_decompress_walk(std::span<std::uint16_t> codes, const Dims& dims,
                        const LayerPredictor& predictor,
                        const LinearQuantizer& quantizer,
                        const UnpredictableCodecT<T>& unpred, double eb,
                        bool decorrelate, HotPathMode mode, std::span<T> out,
                        BitReader& br, CodecScratch* scratch = nullptr,
                        const Dims* layout = nullptr);

extern template PassCounters pq_compress_walk<float>(
    std::span<const float>, const Dims&, const LayerPredictor&,
    const LinearQuantizer&, const UnpredictableCodecT<float>&, double, bool,
    HotPathMode, std::span<std::uint16_t>, std::span<float>, BitWriter&,
    bool);
extern template PassCounters pq_compress_walk<double>(
    std::span<const double>, const Dims&, const LayerPredictor&,
    const LinearQuantizer&, const UnpredictableCodecT<double>&, double, bool,
    HotPathMode, std::span<std::uint16_t>, std::span<double>, BitWriter&,
    bool);
extern template void pq_decompress_walk<float>(
    std::span<std::uint16_t>, const Dims&, const LayerPredictor&,
    const LinearQuantizer&, const UnpredictableCodecT<float>&, double, bool,
    HotPathMode, std::span<float>, BitReader&, CodecScratch*, const Dims*);
extern template void pq_decompress_walk<double>(
    std::span<std::uint16_t>, const Dims&, const LayerPredictor&,
    const LinearQuantizer&, const UnpredictableCodecT<double>&, double, bool,
    HotPathMode, std::span<double>, BitReader&, CodecScratch*, const Dims*);

}  // namespace sz14::detail
