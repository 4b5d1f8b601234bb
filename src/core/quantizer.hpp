// Error-controlled linear-scaling quantization (the paper's Section IV-A).
//
// 2^m - 1 uniform intervals of width 2*eb are centred on the first-phase
// predicted value.  A point whose real value lands inside an interval is
// "predictable": it is encoded as that interval's code (1 .. 2^m - 1, centre
// code 2^{m-1}) and reconstructed as the interval midpoint, so the pointwise
// error is <= eb by construction.  Code 0 marks unpredictable points, which
// take the binary-representation path instead.
//
// quantize()/reconstruct() are templated over float/double so the same
// quantizer drives both the single- and double-precision pipelines.
#pragma once

#include <cmath>
#include <cstdint>
#include <stdexcept>

#include "common/hotpath.hpp"

namespace sz14 {

/// The scalars a quantization decision reads, hoisted by value into the
/// fast kernels' walk bodies so the per-point loop keeps them in registers.
struct QuantizerScalars {
  double eb = 0.0;
  double two_eb = 0.0;   // 2 * eb
  double inv_2eb = 0.0;  // 1 / (2 * eb); 0 when eb <= 0
  double radius_d = 0.0;
  std::int32_t radius_i = 0;
  /// 2 * eb and 1 / (2 * eb) are both normal finite doubles, so
  /// quantize_exact() may multiply by the reciprocal (see its proof).
  bool multiply = false;
};

/// Quantization decision for one data point.
template <typename T>
struct QuantResultT {
  bool predictable = false;
  std::uint16_t code = 0;  // 0 iff unpredictable
  T reconstructed = 0;     // valid iff predictable
};

using QuantResult = QuantResultT<float>;

class LinearQuantizer {
 public:
  /// `interval_bits` is the paper's m (2 <= m <= 16): 2^m - 1 intervals,
  /// 2^m codes including the unpredictable marker.  `eb` is the absolute
  /// error bound; eb <= 0 degenerates to "everything unpredictable"
  /// (lossless fallback used for zero-range / pathological inputs).
  /// `mode` arrives per call from the caller's ExecPolicy; kReference
  /// keeps quantize() on the seed's libm llround (identical results,
  /// honest baseline timings).
  LinearQuantizer(unsigned interval_bits, double eb,
                  HotPathMode mode = HotPathMode::kFast)
      : eb_(eb),
        inv_2eb_(eb > 0.0 ? 1.0 / (2.0 * eb) : 0.0),
        legacy_(mode == HotPathMode::kReference) {
    if (interval_bits < 2 || interval_bits > 16)
      throw std::invalid_argument("LinearQuantizer: m must be in [2, 16]");
    bits_ = interval_bits;
    radius_ = 1u << (interval_bits - 1);
  }

  /// Round half away from zero, exactly as std::llround, for |x| < 2^31.
  /// Inline (truncating cast + exact fractional compare) so the hot loop
  /// avoids the libm call: the cast is exact truncation, and x - trunc(x)
  /// is exact for |x| < 2^52, so the 0.5 comparisons match llround
  /// bit-for-bit on the quantizer's |x| < 2^15 operating range.
  [[nodiscard]] static std::int32_t round_half_away(double x) {
    const auto t = static_cast<std::int32_t>(x);
    const double frac = x - static_cast<double>(t);
    // Branchless on purpose: the fractional part of the scaled offset is
    // close to uniform on real data, so `frac >= 0.5` is a coin-flip branch
    // the predictor cannot learn — as compare-and-add it costs two cycles
    // instead of a mispredict every other point on the hot chain.
    return t + static_cast<std::int32_t>(frac >= 0.5) -
           static_cast<std::int32_t>(frac <= -0.5);
  }

  /// Try to encode `real` against the prediction `pred`.
  template <typename T>
  [[nodiscard]] QuantResultT<T> quantize(T real, double pred) const {
    if (!(eb_ > 0.0) || !std::isfinite(real)) return {};
    const double diff = static_cast<double>(real) - pred;
    const double scaled = diff / (2.0 * eb_);
    if (!(std::fabs(scaled) < static_cast<double>(radius_))) return {};
    // Identical results either way (see round_half_away); the libm call is
    // what the seed measured, kept for kReference-mode timings.
    const std::int32_t q =
        legacy_ ? static_cast<std::int32_t>(std::llround(scaled))
                : round_half_away(scaled);
    if (q <= -static_cast<std::int32_t>(radius_) ||
        q >= static_cast<std::int32_t>(radius_))
      return {};
    const auto recon = static_cast<T>(pred + 2.0 * eb_ * q);
    // Guard against rounding at the interval edge: the *stored* value must
    // satisfy the bound, not just the double intermediate.
    if (!(std::fabs(static_cast<double>(recon) -
                    static_cast<double>(real)) <= eb_))
      return {};
    return {true,
            static_cast<std::uint16_t>(static_cast<std::int32_t>(radius_) + q),
            recon};
  }

  /// Reconstruct a predictable point from its code (1 .. 2^m - 1).
  template <typename T = float>
  [[nodiscard]] T reconstruct(std::uint16_t code, double pred) const {
    const std::int32_t q =
        static_cast<std::int32_t>(code) - static_cast<std::int32_t>(radius_);
    return static_cast<T>(pred + 2.0 * eb_ * q);
  }

  [[nodiscard]] unsigned interval_bits() const noexcept { return bits_; }
  [[nodiscard]] std::uint32_t interval_count() const noexcept {
    return 2 * radius_ - 1;
  }
  [[nodiscard]] std::uint32_t alphabet_size() const noexcept {
    return 2 * radius_;  // codes 0 .. 2^m - 1
  }
  [[nodiscard]] double error_bound() const noexcept { return eb_; }
  /// This quantizer's state for quantize_exact().
  [[nodiscard]] QuantizerScalars scalars() const noexcept {
    const double two_eb = 2.0 * eb_;
    return {eb_,
            two_eb,
            inv_2eb_,
            static_cast<double>(radius_),
            static_cast<std::int32_t>(radius_),
            std::isnormal(two_eb) && std::isnormal(inv_2eb_)};
  }

 private:
  double eb_;
  double inv_2eb_;
  std::uint32_t radius_ = 0;
  unsigned bits_ = 0;
  bool legacy_ = false;
};

/// LinearQuantizer::quantize() for eb > 0, bit for bit, with the divide
/// and the compare-based round taken off the serial prediction chain — the
/// fast kernels' quantize step (`k` from LinearQuantizer::scalars()).
///
/// The chain becomes multiply -> add -> subtract -> multiply -> add:
/// x' = fl(diff * fl(1/2eb)) approximates the exact x = fl(diff / 2eb), and
/// (x' + 1.5*2^52) - 1.5*2^52 rounds x' to the nearest integer qd (ties to
/// even) for |x'| < 2^51, since the sum lands where the spacing of doubles
/// is 1 and the subtraction is exact.  qd stays a double on the chain; the
/// integer code is formed off it.
///
/// Why the result equals quantize()'s.  With u = 2^-53 and both 2eb and
/// 1/2eb normal, fl(1/2eb) = (1/2eb)(1 + d1), x' = (diff/2eb)(1 + d1)(1 + d2)
/// and x = (diff/2eb)(1 + d3), |di| <= u, so |x' - x| <= 3u|x| (+ O(u^2)),
/// about 2^-36 for |x| <= 2^15 + 1 — or an absolute 2^-1074-scale error
/// when the product is subnormal, i.e. near 0.  Take |x' - qd| <= 0.5 -
/// 2^-20, a margin far wider than that error; then |x - qd| < 0.5, so qd
/// is x's unique nearest integer, which round-half-away (and llround, in
/// legacy mode) returns too.  Near-ties — and exact ties, where
/// ties-to-even and half-away disagree — fail this test and re-run
/// quantize()'s own divide and round_half_away, as does every point when
/// the multiply is not safe (k.multiply false: 2eb or 1/2eb subnormal or
/// infinite).  Past the test, both decisions accept exactly when
/// |qd| < radius and the stored pred + 2eb*qd meets the bound:
///  - |qd| <= radius - 1 puts |x'| and |x| below radius - 0.5, so both
///    range tests pass and q = qd on both sides;
///  - |qd| >= radius fails the code-range test here, and quantize()
///    rejects x either on range or on the same q = qd.
/// So the range tests |x'| < radius and |x| < radius, which can disagree
/// within 2^-36 of radius, never change the outcome.  NaN and infinite
/// offsets fail the range test on either path, as in quantize(); for
/// |x'| >= 2^51 qd is not x''s rounding, but then |qd| >= radius.
template <typename T>
[[nodiscard]] inline QuantResultT<T> quantize_exact(T real, double pred,
                                                    const QuantizerScalars& k) {
  constexpr double kRound = 0x1.8p52;
  constexpr double kTieMargin = 0.5 - 0x1p-20;
  const double diff = static_cast<double>(real) - pred;
  double scaled = diff * k.inv_2eb;
  double qd = (scaled + kRound) - kRound;
  if (!k.multiply || std::fabs(scaled - qd) > kTieMargin) [[unlikely]] {
    scaled = diff / k.two_eb;
    // Zero-substituted out of range: the int conversion of a NaN or huge
    // offset is undefined, and the range test below rejects it anyway.
    qd = static_cast<double>(LinearQuantizer::round_half_away(
        std::fabs(scaled) < k.radius_d ? scaled : 0.0));
  }
  // One well-predicted branch for all three accept tests (see
  // LinearQuantizer::quantize): the range test, q in (-radius, radius) —
  // radius would overflow the code, -radius would collide with the
  // unpredictable marker 0 — and the bound on the *stored* value.
  const bool in_range = std::fabs(scaled) < k.radius_d;
  const auto q = static_cast<std::int32_t>(in_range ? qd : 0.0);
  const auto recon = static_cast<T>(pred + k.two_eb * qd);
  const bool ok =
      in_range &
      (static_cast<std::uint32_t>(q + k.radius_i - 1) <
       static_cast<std::uint32_t>(2 * k.radius_i - 1)) &
      (std::fabs(static_cast<double>(recon) - static_cast<double>(real)) <=
       k.eb);
  if (ok) return {true, static_cast<std::uint16_t>(k.radius_i + q), recon};
  return {};
}

}  // namespace sz14
