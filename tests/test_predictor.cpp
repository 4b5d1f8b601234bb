#include "core/predictor.hpp"

#include <gtest/gtest.h>

#include <cmath>
#include <cstring>
#include <map>
#include <string>
#include <vector>

#include "common/rng.hpp"

namespace sz14 {
namespace {

// Coefficient of V(i0 - k1, j0 - k2) for a 2D n-layer predictor.
double coeff2d(unsigned n, std::uint32_t k1, std::uint32_t k2) {
  const std::uint32_t k[2] = {k1, k2};
  return LayerPredictor::coefficient({k, 2}, n);
}

TEST(PredictorCoefficients, TableI_1Layer) {
  // f = V(i,j-1) + V(i-1,j) - V(i-1,j-1)   (Lorenzo)
  EXPECT_DOUBLE_EQ(coeff2d(1, 0, 1), 1.0);
  EXPECT_DOUBLE_EQ(coeff2d(1, 1, 0), 1.0);
  EXPECT_DOUBLE_EQ(coeff2d(1, 1, 1), -1.0);
}

TEST(PredictorCoefficients, TableI_2Layer) {
  EXPECT_DOUBLE_EQ(coeff2d(2, 1, 0), 2.0);
  EXPECT_DOUBLE_EQ(coeff2d(2, 0, 1), 2.0);
  EXPECT_DOUBLE_EQ(coeff2d(2, 1, 1), -4.0);
  EXPECT_DOUBLE_EQ(coeff2d(2, 2, 0), -1.0);
  EXPECT_DOUBLE_EQ(coeff2d(2, 0, 2), -1.0);
  EXPECT_DOUBLE_EQ(coeff2d(2, 2, 1), 2.0);
  EXPECT_DOUBLE_EQ(coeff2d(2, 1, 2), 2.0);
  EXPECT_DOUBLE_EQ(coeff2d(2, 2, 2), -1.0);
}

TEST(PredictorCoefficients, TableI_3Layer) {
  EXPECT_DOUBLE_EQ(coeff2d(3, 1, 0), 3.0);
  EXPECT_DOUBLE_EQ(coeff2d(3, 0, 1), 3.0);
  EXPECT_DOUBLE_EQ(coeff2d(3, 1, 1), -9.0);
  EXPECT_DOUBLE_EQ(coeff2d(3, 2, 0), -3.0);
  EXPECT_DOUBLE_EQ(coeff2d(3, 0, 2), -3.0);
  EXPECT_DOUBLE_EQ(coeff2d(3, 2, 1), 9.0);
  EXPECT_DOUBLE_EQ(coeff2d(3, 1, 2), 9.0);
  EXPECT_DOUBLE_EQ(coeff2d(3, 2, 2), -9.0);
  EXPECT_DOUBLE_EQ(coeff2d(3, 3, 0), 1.0);
  EXPECT_DOUBLE_EQ(coeff2d(3, 0, 3), 1.0);
  EXPECT_DOUBLE_EQ(coeff2d(3, 3, 1), -3.0);
  EXPECT_DOUBLE_EQ(coeff2d(3, 1, 3), -3.0);
  EXPECT_DOUBLE_EQ(coeff2d(3, 3, 2), 3.0);
  EXPECT_DOUBLE_EQ(coeff2d(3, 2, 3), 3.0);
  EXPECT_DOUBLE_EQ(coeff2d(3, 3, 3), -1.0);
}

TEST(PredictorCoefficients, TableI_4Layer) {
  EXPECT_DOUBLE_EQ(coeff2d(4, 1, 0), 4.0);
  EXPECT_DOUBLE_EQ(coeff2d(4, 1, 1), -16.0);
  EXPECT_DOUBLE_EQ(coeff2d(4, 2, 0), -6.0);
  EXPECT_DOUBLE_EQ(coeff2d(4, 2, 1), 24.0);
  EXPECT_DOUBLE_EQ(coeff2d(4, 2, 2), -36.0);
  EXPECT_DOUBLE_EQ(coeff2d(4, 3, 0), 4.0);
  EXPECT_DOUBLE_EQ(coeff2d(4, 3, 1), -16.0);
  EXPECT_DOUBLE_EQ(coeff2d(4, 3, 2), 24.0);
  EXPECT_DOUBLE_EQ(coeff2d(4, 3, 3), -16.0);
  EXPECT_DOUBLE_EQ(coeff2d(4, 4, 0), -1.0);
  EXPECT_DOUBLE_EQ(coeff2d(4, 4, 1), 4.0);
  EXPECT_DOUBLE_EQ(coeff2d(4, 4, 2), -6.0);
  EXPECT_DOUBLE_EQ(coeff2d(4, 4, 3), 4.0);
  EXPECT_DOUBLE_EQ(coeff2d(4, 4, 4), -1.0);
}

TEST(PredictorCoefficients, CoefficientsSumToOne) {
  // A constant field must be predicted exactly, so stencil weights sum to 1.
  for (unsigned n = 1; n <= 4; ++n) {
    for (std::size_t rank : {1u, 2u, 3u}) {
      std::vector<std::size_t> ext(rank, 32);
      const LayerPredictor p(Dims(std::span<const std::size_t>(ext)), n);
      double sum = 0;
      for (const auto& t : p.taps()) sum += t.coeff;
      EXPECT_NEAR(sum, 1.0, 1e-9) << "n=" << n << " rank=" << rank;
    }
  }
}

TEST(PredictorCoefficients, TapCountIsStencilSize) {
  // (n+1)^d - 1 taps.
  const LayerPredictor p2(Dims{16, 16}, 2);
  EXPECT_EQ(p2.taps().size(), 8u);  // (2+1)^2 - 1
  const LayerPredictor p3(Dims{8, 8, 8}, 1);
  EXPECT_EQ(p3.taps().size(), 7u);
  const LayerPredictor p4(Dims{16, 16}, 4);
  EXPECT_EQ(p4.taps().size(), 24u);
}

// Property (Theorem 1): an n-layer predictor reproduces any polynomial
// surface of total degree <= 2n-1 exactly (away from borders).
class PolynomialExactness
    : public ::testing::TestWithParam<std::tuple<unsigned, unsigned>> {};

TEST_P(PolynomialExactness, PredictsPolynomialSurfaceExactly) {
  const auto [n, degree] = GetParam();
  if (degree > 2 * n - 1) GTEST_SKIP() << "degree above guarantee";
  const std::size_t rows = 24, cols = 24;
  const Dims dims{rows, cols};
  Rng rng(1000 + n * 10 + degree);
  // Random polynomial f(x, y) = sum a_ij x^i y^j, i + j <= degree.
  std::map<std::pair<unsigned, unsigned>, double> poly;
  for (unsigned i = 0; i <= degree; ++i)
    for (unsigned j = 0; i + j <= degree; ++j)
      poly[{i, j}] = rng.uniform(-1.0, 1.0);
  std::vector<float> field(dims.count());
  std::vector<double> exact(dims.count());
  for (std::size_t r = 0; r < rows; ++r)
    for (std::size_t c = 0; c < cols; ++c) {
      double v = 0;
      for (const auto& [ij, a] : poly)
        v += a * std::pow(static_cast<double>(r) / 8.0, ij.first) *
             std::pow(static_cast<double>(c) / 8.0, ij.second);
      exact[r * cols + c] = v;
      field[r * cols + c] = static_cast<float>(v);
    }
  const LayerPredictor p(dims, n);
  CoordWalker walker(dims);
  // Use the double field via a parallel check: prediction from float data
  // carries float rounding, so compare against the stencil applied to the
  // exact doubles.
  for (std::size_t i = 0; i < dims.count(); ++i) {
    if (p.interior(walker.coord())) {
      double pred = 0;
      for (const auto& t : p.taps()) pred += t.coeff * exact[i - t.linear_back];
      EXPECT_NEAR(pred, exact[i], 1e-6 * (1.0 + std::fabs(exact[i])))
          << "at " << i << " n=" << n << " deg=" << degree;
    }
    walker.advance();
  }
}

INSTANTIATE_TEST_SUITE_P(
    LayersByDegree, PolynomialExactness,
    ::testing::Combine(::testing::Values(1u, 2u, 3u),
                       ::testing::Values(0u, 1u, 2u, 3u, 4u, 5u)));

TEST(Predictor, Lorenzo1DIsPrecedingValue) {
  const Dims dims{10};
  const LayerPredictor p(dims, 1);
  std::vector<float> data = {5, 7, 9, 11, 13, 15, 17, 19, 21, 23};
  CoordWalker w(dims);
  w.advance();  // index 1
  EXPECT_DOUBLE_EQ(p.predict<float>(data, w.coord(), 1), 5.0);
}

TEST(Predictor, Lorenzo2DMatchesClosedForm) {
  const Dims dims{8, 8};
  const LayerPredictor p(dims, 1);
  Rng rng(77);
  std::vector<float> data(64);
  for (auto& v : data) v = static_cast<float>(rng.uniform(-10, 10));
  // Interior point (3, 4) -> index 28.
  const std::size_t i = 3 * 8 + 4;
  const std::size_t coord[2] = {3, 4};
  const double expected = static_cast<double>(data[i - 1]) +
                          static_cast<double>(data[i - 8]) -
                          static_cast<double>(data[i - 9]);
  EXPECT_DOUBLE_EQ(p.predict<float>(data, {coord, 2}, i), expected);
}

TEST(Predictor, Lorenzo3DMatchesClosedForm) {
  const Dims dims{4, 4, 4};
  const LayerPredictor p(dims, 1);
  Rng rng(78);
  std::vector<float> data(64);
  for (auto& v : data) v = static_cast<float>(rng.uniform(-10, 10));
  const std::size_t coord[3] = {2, 2, 2};
  const std::size_t i = dims.linear({coord, 3});
  auto V = [&](std::size_t a, std::size_t b, std::size_t c) {
    return static_cast<double>(data[(a * 4 + b) * 4 + c]);
  };
  // 3D Lorenzo: +face neighbours, -edge neighbours, +corner.
  const double expected = V(2, 2, 1) + V(2, 1, 2) + V(1, 2, 2) - V(2, 1, 1) -
                          V(1, 2, 1) - V(1, 1, 2) + V(1, 1, 1);
  EXPECT_DOUBLE_EQ(p.predict<float>(data, {coord, 3}, i), expected);
}

TEST(Predictor, BorderUsesZeroExtension) {
  const Dims dims{4, 4};
  const LayerPredictor p(dims, 1);
  std::vector<float> data(16, 3.0f);
  // Origin: all taps out of domain -> prediction 0.
  const std::size_t c0[2] = {0, 0};
  EXPECT_DOUBLE_EQ(p.predict<float>(data, {c0, 2}, 0), 0.0);
  // First row, inner: only the left neighbour is inside.
  const std::size_t c1[2] = {0, 2};
  EXPECT_DOUBLE_EQ(p.predict<float>(data, {c1, 2}, 2), 3.0);
}

TEST(Predictor, InteriorFlagIsExact) {
  const Dims dims{6, 6};
  const LayerPredictor p(dims, 2);
  CoordWalker w(dims);
  for (std::size_t i = 0; i < dims.count(); ++i) {
    const auto c = w.coord();
    EXPECT_EQ(p.interior(c), c[0] >= 2 && c[1] >= 2);
    w.advance();
  }
}

/// predict() written out naively: enumerate k in [0, n]^d \ {0} in the
/// predictor's tap order (fastest axis last), test every axis for
/// containment, accumulate the in-domain taps from 0.0.
template <typename T>
double naive_predict(const std::vector<T>& v, const Dims& dims,
                     unsigned layers, const std::size_t* coord,
                     std::size_t idx) {
  const std::size_t d = dims.rank();
  std::uint32_t k[kMaxDims] = {};
  double acc = 0.0;
  while (true) {
    std::size_t a = d;
    while (a-- > 0) {
      if (++k[a] <= layers) break;
      k[a] = 0;
    }
    if (a == static_cast<std::size_t>(-1)) return acc;  // wrapped to 0
    bool inside = true;
    std::size_t back = 0;
    for (std::size_t b = 0; b < d; ++b) {
      inside = inside && coord[b] >= k[b];
      back += k[b] * dims.stride(b);
    }
    if (inside)
      acc += LayerPredictor::coefficient({k, d}, layers) *
             static_cast<double>(v[idx - back]);
  }
}

template <typename T>
void check_against_naive(const Dims& dims, unsigned layers) {
  SCOPED_TRACE(dims.to_string() + " layers=" + std::to_string(layers));
  Rng rng(dims.count() * 131 + layers);
  std::vector<T> v(dims.count());
  // Zeros of both signs next to ordinary values, so a differently signed
  // zero accumulation shows up under memcmp.
  for (std::size_t i = 0; i < v.size(); ++i) {
    const auto r = rng.below(4);
    v[i] = r == 0 ? T(0) : r == 1 ? -T(0) : static_cast<T>(rng.normal());
  }
  const LayerPredictor p(dims, layers);
  CoordWalker w(dims);
  std::size_t mismatches = 0;
  for (std::size_t i = 0; i < v.size(); ++i, w.advance()) {
    const double got = p.predict<T>(v, w.coord(), i);
    const double want = naive_predict(v, dims, layers, w.coord().data(), i);
    if (std::memcmp(&got, &want, sizeof got) != 0 && ++mismatches <= 3)
      ADD_FAILURE() << "index " << i << ": " << got << " vs " << want;
    bool interior = true;
    for (std::size_t a = 0; a < dims.rank(); ++a)
      interior = interior && w.coord()[a] >= layers;
    EXPECT_EQ(p.interior(w.coord()), interior) << "index " << i;
  }
  EXPECT_EQ(mismatches, 0u);
}

TEST(Predictor, EveryPointMatchesNaiveContainmentReference) {
  // Every coordinate of 1-wide and prime-extent shapes of ranks 1-4, so
  // each axis sits below, at and above every layer count's border.
  const Dims shapes[] = {Dims{1},        Dims{13},         Dims{1, 7},
                         Dims{5, 1},     Dims{7, 11},      Dims{1, 5, 3},
                         Dims{5, 7, 3},  Dims{3, 1, 11},   Dims{3, 5, 1, 7},
                         Dims{2, 3, 5, 3}, Dims{1, 1, 1, 1}};
  for (const Dims& dims : shapes)
    for (unsigned layers = 1; layers <= kMaxLayers; ++layers) {
      check_against_naive<float>(dims, layers);
      check_against_naive<double>(dims, layers);
    }
}

TEST(Predictor, InvalidLayerCountThrows) {
  EXPECT_THROW(LayerPredictor(Dims{4, 4}, 0), std::invalid_argument);
  EXPECT_THROW(LayerPredictor(Dims{4, 4}, kMaxLayers + 1),
               std::invalid_argument);
}

TEST(CoordWalkerTest, WalksRowMajor) {
  const Dims dims{2, 3};
  CoordWalker w(dims);
  const std::size_t expected[][2] = {{0, 0}, {0, 1}, {0, 2},
                                     {1, 0}, {1, 1}, {1, 2}};
  for (const auto& e : expected) {
    EXPECT_EQ(w.coord()[0], e[0]);
    EXPECT_EQ(w.coord()[1], e[1]);
    w.advance();
  }
}

}  // namespace
}  // namespace sz14
