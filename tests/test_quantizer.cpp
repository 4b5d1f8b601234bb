#include "core/quantizer.hpp"

#include <gtest/gtest.h>

#include <cmath>
#include <cstring>
#include <limits>
#include <vector>

#include "common/rng.hpp"

namespace sz14 {
namespace {

TEST(Quantizer, ExactPredictionGetsCentreCode) {
  const LinearQuantizer q(8, 0.01);
  const auto r = q.quantize(5.0f, 5.0);
  ASSERT_TRUE(r.predictable);
  EXPECT_EQ(r.code, 128);  // 2^(m-1)
  EXPECT_FLOAT_EQ(r.reconstructed, 5.0f);
}

TEST(Quantizer, OneIntervalUpAndDown) {
  const LinearQuantizer q(8, 0.5);
  const auto up = q.quantize(6.0f, 5.0);  // diff = +1 = 2*eb -> q = +1
  ASSERT_TRUE(up.predictable);
  EXPECT_EQ(up.code, 129);
  EXPECT_FLOAT_EQ(up.reconstructed, 6.0f);
  const auto down = q.quantize(4.0f, 5.0);
  ASSERT_TRUE(down.predictable);
  EXPECT_EQ(down.code, 127);
}

TEST(Quantizer, MissBeyondRangeIsUnpredictable) {
  const LinearQuantizer q(4, 0.1);  // radius 8 -> max |diff| ~ 1.5
  const auto r = q.quantize(10.0f, 5.0);
  EXPECT_FALSE(r.predictable);
  EXPECT_EQ(r.code, 0);
}

TEST(Quantizer, EdgeOfOutermostInterval) {
  const LinearQuantizer q(4, 0.5);  // radius 8: q in [-7, 7]
  // diff = 7 * 2*eb = 7.0 -> q = 7, predictable.
  EXPECT_TRUE(q.quantize(12.0f, 5.0).predictable);
  // diff = 8 * 2*eb -> q = 8 = radius, not predictable.
  EXPECT_FALSE(q.quantize(13.0f, 5.0).predictable);
}

TEST(Quantizer, NonFiniteValueIsUnpredictable) {
  const LinearQuantizer q(8, 0.1);
  EXPECT_FALSE(
      q.quantize(std::numeric_limits<float>::quiet_NaN(), 0.0).predictable);
  EXPECT_FALSE(
      q.quantize(std::numeric_limits<float>::infinity(), 0.0).predictable);
}

TEST(Quantizer, ZeroErrorBoundDegeneratesToUnpredictable) {
  const LinearQuantizer q(8, 0.0);
  EXPECT_FALSE(q.quantize(1.0f, 1.0).predictable);
}

TEST(Quantizer, ReconstructInvertsQuantize) {
  const LinearQuantizer q(10, 0.003);
  Rng rng(41);
  for (int i = 0; i < 10000; ++i) {
    const double pred = rng.uniform(-100, 100);
    const float real = static_cast<float>(pred + rng.uniform(-1.5, 1.5));
    const auto r = q.quantize(real, pred);
    if (!r.predictable) continue;
    EXPECT_FLOAT_EQ(q.reconstruct(r.code, pred), r.reconstructed);
  }
}

TEST(Quantizer, AlphabetAndIntervalCounts) {
  const LinearQuantizer q8(8, 0.1);
  EXPECT_EQ(q8.interval_count(), 255u);
  EXPECT_EQ(q8.alphabet_size(), 256u);
  const LinearQuantizer q16(16, 0.1);
  EXPECT_EQ(q16.interval_count(), 65535u);
  EXPECT_EQ(q16.alphabet_size(), 65536u);
}

TEST(Quantizer, InvalidBitsThrow) {
  EXPECT_THROW(LinearQuantizer(1, 0.1), std::invalid_argument);
  EXPECT_THROW(LinearQuantizer(17, 0.1), std::invalid_argument);
  EXPECT_THROW(LinearQuantizer(0, 0.1), std::invalid_argument);
}

// The defining property (paper Sec. IV-A): every predictable decision
// yields |recon - real| <= eb, for every m and a wide range of eb.
class QuantizerBoundSweep
    : public ::testing::TestWithParam<std::tuple<unsigned, double>> {};

TEST_P(QuantizerBoundSweep, PredictableAlwaysWithinBound) {
  const auto [m, eb] = GetParam();
  const LinearQuantizer q(m, eb);
  Rng rng(m * 100 + static_cast<std::uint64_t>(-std::log10(eb)));
  std::size_t predictable = 0;
  for (int i = 0; i < 20000; ++i) {
    const double pred = rng.uniform(-1000, 1000);
    // Mix of near-hits and far misses.
    const double spread = (i % 3 == 0) ? 1e4 * eb : 3.0 * eb;
    const float real = static_cast<float>(pred + rng.normal() * spread);
    const auto r = q.quantize(real, pred);
    if (r.predictable) {
      ++predictable;
      EXPECT_LE(std::fabs(static_cast<double>(r.reconstructed) -
                          static_cast<double>(real)),
                eb);
      EXPECT_GE(r.code, 1u);
      EXPECT_LT(r.code, q.alphabet_size());
    }
  }
  EXPECT_GT(predictable, 0u);
}

INSTANTIATE_TEST_SUITE_P(
    BitsByBound, QuantizerBoundSweep,
    ::testing::Combine(::testing::Values(2u, 4u, 6u, 8u, 12u, 16u),
                       ::testing::Values(1e-1, 1e-3, 1e-5)));

// quantize_exact (the fast kernels' quantize step) must equal quantize()
// decision for decision, bit for bit, exactly where its reciprocal
// multiply and ties-to-even round are most likely to slip: offsets a few
// ulps around every half-interval, exact ties, the outermost interval's
// edge, non-finite and denormal values, and error bounds whose 2*eb or
// 1/(2*eb) leaves the normal range (the per-call divide fallback).
template <typename T>
std::size_t expect_exact_matches(const LinearQuantizer& q, T real,
                                 double pred) {
  const auto want = q.quantize<T>(real, pred);
  const auto got = quantize_exact<T>(real, pred, q.scalars());
  const bool same =
      want.predictable == got.predictable && want.code == got.code &&
      std::memcmp(&want.reconstructed, &got.reconstructed, sizeof(T)) == 0;
  EXPECT_TRUE(same) << "T=" << (sizeof(T) == 4 ? "f32" : "f64")
                    << " m=" << q.interval_bits() << " eb=" << q.error_bound()
                    << " pred=" << pred << " real=" << real << ": code "
                    << want.code << " vs " << got.code;
  return same ? 0 : 1;
}

template <typename T>
void sweep_exact(unsigned m, double eb, HotPathMode mode) {
  const LinearQuantizer q(m, eb, mode);
  const double two_eb = 2.0 * eb;
  const auto radius = static_cast<double>(q.alphabet_size() / 2);
  std::vector<double> ks;  // interval offsets whose half-points to probe
  for (int k = -4; k <= 4; ++k) ks.push_back(k);
  for (const double r : {radius, -radius})
    for (const double d : {-3.0, -2.0, -1.0, 0.0, 1.0})
      ks.push_back(r + d);
  std::size_t bad = 0;
  for (const double pred : {0.0, 1.0, -3.25, 1234.5678}) {
    for (const double k : ks) {
      // (k + 0.5) is the tie between intervals k and k + 1; k itself is
      // the radius edge when k == +-radius.
      for (const double at : {k + 0.5, k}) {
        const T centre = static_cast<T>(pred + at * two_eb);
        T up = centre, down = centre;
        for (int j = 0; j <= 4; ++j) {
          bad += expect_exact_matches<T>(q, up, pred);
          bad += expect_exact_matches<T>(q, down, pred);
          up = std::nextafter(up, std::numeric_limits<T>::infinity());
          down = std::nextafter(down, -std::numeric_limits<T>::infinity());
        }
      }
    }
    for (const T v : {std::numeric_limits<T>::quiet_NaN(),
                      std::numeric_limits<T>::infinity(),
                      -std::numeric_limits<T>::infinity(),
                      std::numeric_limits<T>::denorm_min(),
                      -std::numeric_limits<T>::denorm_min(),
                      std::numeric_limits<T>::min() / 3, T(0), T(-0.0)})
      bad += expect_exact_matches<T>(q, v, pred);
    if (bad > 20) return;  // one broken configuration is enough to read
  }
}

TEST(QuantizeExact, MatchesQuantizeAroundTiesEdgesAndNonFinite) {
  // 1e308: 2*eb overflows.  5e307: 1/(2*eb) is subnormal.  1e-310 and
  // denorm_min: 2*eb is subnormal and 1/(2*eb) overflows.  0.25 and
  // 2^-20: exact ties land on representable offsets.
  const double ebs[] = {1e-300, 1e-200, 1e-100, 1e-30, 1e-10, 1e-3,
                        0.25,   0x1p-20, 0.1,   1.0,   1e10,  1e100,
                        1e200,  1e300,  5e307, 1e308, 1e-310,
                        std::numeric_limits<double>::denorm_min()};
  for (const unsigned m : {2u, 8u, 16u})
    for (const double eb : ebs)
      for (const HotPathMode mode : {HotPathMode::kFast,
                                     HotPathMode::kReference}) {
        sweep_exact<float>(m, eb, mode);
        sweep_exact<double>(m, eb, mode);
      }
}

TEST(QuantizeExact, MultiplyFormOnlyForNormalScalars) {
  EXPECT_TRUE(LinearQuantizer(8, 1e-3).scalars().multiply);
  EXPECT_TRUE(LinearQuantizer(8, 1e300).scalars().multiply);
  EXPECT_FALSE(LinearQuantizer(8, 1e308).scalars().multiply);
  EXPECT_FALSE(LinearQuantizer(8, 5e307).scalars().multiply);
  EXPECT_FALSE(LinearQuantizer(8, 1e-310).scalars().multiply);
  EXPECT_FALSE(LinearQuantizer(8, 0.0).scalars().multiply);
}

}  // namespace
}  // namespace sz14
