// Equivalence proofs for the dimension-specialized fused kernels
// (core/kernels): under every supported configuration the fast path must
// produce byte-identical compressed streams and bit-identical
// reconstructions to the reference CoordWalker walk — the "golden stream"
// guarantee that lets the hot path evolve without a format break.
#include <gtest/gtest.h>

#include <cstring>
#include <vector>

#include "common/hotpath.hpp"
#include "common/rng.hpp"
#include "core/compressor.hpp"
#include "core/pointwise.hpp"
#include "core/predictor.hpp"
#include "core/quantizer.hpp"
#include "core/unpredictable.hpp"
#include "data/generators.hpp"

namespace sz14 {
namespace {

/// Deterministic field with smooth structure, spikes, and non-finite /
/// near-denormal escapes so every kernel branch (predictable,
/// unpredictable-trunc, tiny, raw) is exercised.
std::vector<float> adversarial_values(std::size_t n, std::uint64_t seed) {
  Rng rng(seed);
  std::vector<float> v(n);
  for (std::size_t i = 0; i < n; ++i) {
    const double base = std::sin(0.05 * static_cast<double>(i)) +
                        0.3 * std::cos(0.013 * static_cast<double>(i));
    double x = base + 0.01 * rng.normal();
    const double roll = rng.uniform();
    if (roll < 0.01) x *= 1e6;  // spike -> unpredictable
    v[i] = static_cast<float>(x);
  }
  if (n > 16) {
    v[3] = std::numeric_limits<float>::quiet_NaN();
    v[7] = std::numeric_limits<float>::infinity();
    v[11] = -std::numeric_limits<float>::infinity();
    v[13] = 1e-42f;  // denormal -> raw escape
    v[n / 2] = 0.0f;
  }
  return v;
}

template <typename T>
std::vector<T> to_dtype(const std::vector<float>& v) {
  if constexpr (std::is_same_v<T, float>) {
    return v;
  } else {
    return std::vector<double>(v.begin(), v.end());
  }
}

template <typename T>
void expect_bitwise_equal(const std::vector<T>& a, const std::vector<T>& b,
                          const char* what) {
  ASSERT_EQ(a.size(), b.size()) << what;
  EXPECT_EQ(0, std::memcmp(a.data(), b.data(), a.size() * sizeof(T))) << what;
}

struct KernelCase {
  Dims dims;
  unsigned layers;
  bool relative;
  bool decorrelate;
};

template <typename T>
void run_equivalence(const KernelCase& kc) {
  const auto values = to_dtype<T>(
      adversarial_values(kc.dims.count(), 1000 + kc.dims.rank()));

  Options opts;
  if (kc.relative)
    opts.eb_rel = 1e-3;
  else
    opts.eb_abs = 1e-3;
  opts.layers = kc.layers;
  opts.decorrelate = kc.decorrelate;

  opts.exec.mode = HotPathMode::kReference;
  const auto ref_stream = compress(std::span<const T>(values), kc.dims, opts);
  opts.exec.mode = HotPathMode::kFast;
  const auto fast_stream = compress(std::span<const T>(values), kc.dims, opts);
  EXPECT_EQ(ref_stream, fast_stream)
      << "streams diverge for dims=" << kc.dims.to_string()
      << " layers=" << kc.layers << " rel=" << kc.relative
      << " decorrelate=" << kc.decorrelate;

  // Cross-decode: the fast stream through both decoders, bit-identical.
  const auto ref_exec = ExecPolicy::with_mode(HotPathMode::kReference);
  const auto fast_exec = ExecPolicy::with_mode(HotPathMode::kFast);
  std::vector<T> ref_out, fast_out;
  double eb = 0.0;  // the absolute bound the stream resolved
  if constexpr (std::is_same_v<T, float>) {
    ref_out = decompress(fast_stream, ref_exec).data;
    auto fast = decompress(fast_stream, fast_exec);
    fast_out = std::move(fast.data);
    eb = fast.eb_abs;
  } else {
    ref_out = decompress64(fast_stream, ref_exec).data;
    auto fast = decompress64(fast_stream, fast_exec);
    fast_out = std::move(fast.data);
    eb = fast.eb_abs;
  }
  expect_bitwise_equal(ref_out, fast_out, "decode paths diverge");

  // And the reconstruction must satisfy that bound (a relative bound
  // becomes an absolute one at compress time).
  if (!kc.relative) {
    EXPECT_EQ(eb, 1e-3);
  }
  for (std::size_t i = 0; i < values.size(); ++i) {
    if (!std::isfinite(static_cast<double>(values[i]))) continue;
    EXPECT_LE(std::fabs(static_cast<double>(values[i]) -
                        static_cast<double>(fast_out[i])),
              eb)
        << "bound violated at " << i << " dims=" << kc.dims.to_string()
        << " rel=" << kc.relative;
  }
}

std::vector<KernelCase> all_cases() {
  std::vector<KernelCase> cases;
  // Beyond the plain shapes, the wavefront's tail paths: interior-row
  // counts (R - L per plane) that leave a partial last group — {2,64}
  // and {3,2,9} have 1 or none, {5,3} 2-4, {4,7,200} 4-6 — and rows no
  // longer than the steady state's start L + g - 1, which run the
  // border-checked steps only ({5,3}, {5,6,4}).
  const Dims shapes[] = {Dims{257},      Dims{23, 17},  Dims{9, 11, 13},
                         Dims{2, 64},    Dims{5, 3},    Dims{4, 7, 200},
                         Dims{5, 6, 4},  Dims{3, 2, 9}};
  for (const auto& d : shapes)
    for (unsigned layers : {1u, 2u, 3u})
      for (bool rel : {false, true})
        for (bool dec : {false, true})
          cases.push_back({d, layers, rel, dec});
  // Rank-4 goes through the generic walk in both modes; keep one case to
  // pin that the dispatch stays correct.
  cases.push_back({Dims{3, 4, 5, 6}, 1, false, false});
  return cases;
}

TEST(KernelEquivalence, Float32StreamsAndReconstructionsBitIdentical) {
  for (const auto& kc : all_cases()) run_equivalence<float>(kc);
}

TEST(KernelEquivalence, Float64StreamsAndReconstructionsBitIdentical) {
  for (const auto& kc : all_cases()) run_equivalence<double>(kc);
}

/// A field whose every point sits within `max_ulps` ulps of a half-interval
/// — the tie between two quantization intervals — as the reference walk
/// sees it: each value is placed against the prediction from the
/// reconstructions so far, then reconstructed as quantize() decides.  In
/// f64 nearly every point falls inside quantize_exact's 2^-20 tie margin,
/// so the fast walk must take its exact fallback there.
template <typename T>
std::vector<T> near_tie_field(const Dims& dims, unsigned layers, double eb,
                              int max_ulps, std::uint64_t seed) {
  const std::size_t n = dims.count();
  const LayerPredictor predictor(dims, layers);
  const LinearQuantizer quantizer(16, eb, HotPathMode::kReference);
  const UnpredictableCodecT<T> unpred(eb);
  std::vector<T> values(n), recon(n);
  Rng rng(seed);
  CoordWalker walker(dims);
  for (std::size_t i = 0; i < n; ++i, walker.advance()) {
    const double pred =
        predictor.predict<T>({recon.data(), n}, walker.coord(), i);
    const auto k = static_cast<double>(static_cast<int>(rng.uniform() * 9) - 4);
    T v = static_cast<T>(pred + (k + 0.5) * 2.0 * eb);
    const int steps = static_cast<int>(rng.uniform() * (2 * max_ulps + 1)) -
                      max_ulps;
    for (int s = 0; s < std::abs(steps); ++s)
      v = std::nextafter(v, steps > 0 ? std::numeric_limits<T>::infinity()
                                      : -std::numeric_limits<T>::infinity());
    values[i] = v;
    const auto q = quantizer.quantize<T>(v, pred);
    recon[i] = q.predictable ? q.reconstructed : unpred.reconstruct(v);
  }
  return values;
}

template <typename T>
void expect_near_tie_streams_match(const Dims& dims, unsigned layers,
                                   double eb) {
  const auto values =
      near_tie_field<T>(dims, layers, eb, 4, 77 + dims.rank() + layers);
  Options opts;
  opts.eb_abs = eb;
  opts.layers = layers;
  opts.interval_bits = 16;
  opts.exec.mode = HotPathMode::kReference;
  const auto ref_stream = compress(std::span<const T>(values), dims, opts);
  opts.exec.mode = HotPathMode::kFast;
  const auto fast_stream = compress(std::span<const T>(values), dims, opts);
  EXPECT_EQ(ref_stream, fast_stream)
      << "near-tie streams diverge: " << (sizeof(T) == 4 ? "f32" : "f64")
      << " dims=" << dims.to_string() << " layers=" << layers
      << " eb=" << eb;
}

TEST(KernelEquivalence, NearTieFieldsStreamIdentical) {
  // f64 carries the offsets to within ulps of the tie itself (f32 values
  // round them ~1e-4 of an interval away), so those cases are the ones
  // that pin the exact fallback; eb = 2^-10 also produces exact ties.
  for (const Dims& d : {Dims{3000}, Dims{40, 50}, Dims{10, 12, 14}})
    for (const unsigned layers : {1u, 2u})
      for (const double eb : {1e-3, 0x1p-10}) {
        expect_near_tie_streams_match<double>(d, layers, eb);
        expect_near_tie_streams_match<float>(d, layers, eb);
      }
}

TEST(KernelEquivalence, EdgeShapesSmallerThanStencil) {
  // Extents smaller than the layer count force all-border rows/planes.
  for (const Dims& d : {Dims{1}, Dims{2}, Dims{1, 5}, Dims{5, 1},
                        Dims{2, 2, 7}, Dims{1, 1, 1}}) {
    KernelCase kc{d, 3, false, false};
    run_equivalence<float>(kc);
  }
}

TEST(KernelEquivalence, RealisticFieldsMatchOnEveryRank) {
  // The bench fields themselves, at test scale.
  const data::Field fields[] = {data::smooth1d(4096),
                                data::climate2d(48, 64),
                                data::hurricane3d(12, 16, 16)};
  for (const auto& f : fields) {
    Options opts;
    opts.eb_rel = 1e-4;
    opts.exec.mode = HotPathMode::kReference;
    const auto ref_stream = compress(f.values, f.dims, opts);
    opts.exec.mode = HotPathMode::kFast;
    const auto fast_stream = compress(f.values, f.dims, opts);
    EXPECT_EQ(ref_stream, fast_stream) << f.name;
    const auto ref = decompress(ref_stream);
    expect_bitwise_equal(ref.data, decompress(fast_stream).data, f.name);
  }
}

TEST(KernelEquivalence, PointwiseModeUnaffected) {
  // compress_pointwise_rel drives the f64 pipeline internally; the mode
  // switch must not change its streams either.
  const auto f = data::climate2d(32, 40);
  Options opts;
  opts.exec.mode = HotPathMode::kReference;
  const auto ref_stream = compress_pointwise_rel(f.values, f.dims, 1e-3, opts);
  opts.exec.mode = HotPathMode::kFast;
  const auto fast_stream =
      compress_pointwise_rel(f.values, f.dims, 1e-3, opts);
  EXPECT_EQ(ref_stream, fast_stream);
}

TEST(DecompressInto, MatchesDecompressAndValidatesSize) {
  const auto f = data::hurricane3d(8, 12, 12);
  Options opts;
  opts.eb_abs = 1e-3;
  const auto stream = compress(f.values, f.dims, opts);
  const auto ref = decompress(stream);

  std::vector<float> out(f.dims.count());
  const StreamInfo info = decompress_into(stream, out);
  EXPECT_TRUE(info.dims == f.dims);
  EXPECT_DOUBLE_EQ(info.eb_abs, ref.eb_abs);
  expect_bitwise_equal(ref.data, out, "decompress_into");

  std::vector<float> wrong(f.dims.count() - 1);
  EXPECT_THROW((void)decompress_into(stream, wrong), std::invalid_argument);
  std::vector<double> wrong_dtype(f.dims.count());
  EXPECT_THROW((void)decompress_into(stream, wrong_dtype),
               std::runtime_error);
}

}  // namespace
}  // namespace sz14
