#include "tafloc/linalg/ops.h"

#include <gtest/gtest.h>

#include <cmath>

#include "tafloc/linalg/svd.h"
#include "tafloc/util/rng.h"

namespace tafloc {
namespace {

/// singular_value_shrink_into into a fresh matrix.
Matrix shrink(const Matrix& a, double tau) {
  Matrix out;
  singular_value_shrink_into(a, tau, out);
  return out;
}

TEST(SingularValueShrink, ShrinksSigmaByTau) {
  const std::vector<double> d{5.0, 3.0, 1.0};
  const Matrix a = Matrix::diagonal(d);
  const Matrix shrunk = shrink(a, 2.0);
  const SvdResult svd = svd_decompose(shrunk);
  EXPECT_NEAR(svd.sigma[0], 3.0, 1e-9);
  EXPECT_NEAR(svd.sigma[1], 1.0, 1e-9);
  EXPECT_NEAR(svd.sigma[2], 0.0, 1e-9);
}

TEST(SingularValueShrink, LargeTauGivesZeroMatrix) {
  Rng rng(1);
  const Matrix a = random_gaussian(4, 4, rng);
  const Matrix z = shrink(a, 1e6);
  EXPECT_LT(z.max_abs(), 1e-9);
}

TEST(SingularValueShrink, ReducesRank) {
  Rng rng(2);
  const Matrix a = random_low_rank(8, 8, 4, rng);
  const SvdResult before = svd_decompose(a);
  const Matrix shrunk = shrink(a, before.sigma[2] + 1e-6);
  EXPECT_LE(numeric_rank(shrunk, 1e-6), 2u);
}

TEST(SingularValueShrink, RejectsNegativeTau) {
  const Matrix a(2, 2, 1.0);
  EXPECT_THROW(shrink(a, -1.0), std::invalid_argument);
}

TEST(NumericRank, MatchesConstruction) {
  Rng rng(3);
  EXPECT_EQ(numeric_rank(random_low_rank(9, 7, 3, rng), 1e-8), 3u);
}

TEST(RandomGaussian, ShapeAndMoments) {
  Rng rng(4);
  const Matrix m = random_gaussian(40, 40, rng);
  EXPECT_EQ(m.rows(), 40u);
  double sum = 0.0, sum_sq = 0.0;
  for (double v : m.data()) {
    sum += v;
    sum_sq += v * v;
  }
  const double n = static_cast<double>(m.size());
  EXPECT_NEAR(sum / n, 0.0, 0.1);
  EXPECT_NEAR(sum_sq / n, 1.0, 0.1);
}

TEST(RandomLowRank, HasRequestedRank) {
  Rng rng(5);
  const Matrix m = random_low_rank(12, 10, 4, rng);
  EXPECT_EQ(numeric_rank(m, 1e-8), 4u);
}

TEST(RandomLowRank, RejectsBadRank) {
  Rng rng(6);
  EXPECT_THROW(random_low_rank(4, 4, 0, rng), std::invalid_argument);
  EXPECT_THROW(random_low_rank(4, 4, 5, rng), std::invalid_argument);
}

TEST(RandomOrthonormal, ColumnsOrthonormal) {
  Rng rng(7);
  const Matrix q = random_orthonormal(9, 4, rng);
  EXPECT_LT(max_abs_diff(gram_product(q, q), Matrix::identity(4)), 1e-10);
}

TEST(RandomOrthonormal, RejectsWide) {
  Rng rng(8);
  EXPECT_THROW(random_orthonormal(3, 5, rng), std::invalid_argument);
}

}  // namespace
}  // namespace tafloc
