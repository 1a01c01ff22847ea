#include "tafloc/linalg/svd.h"

#include <gtest/gtest.h>

#include <cmath>

#include "tafloc/linalg/ops.h"
#include "tafloc/util/rng.h"

namespace tafloc {
namespace {

double orthogonality_defect(const Matrix& q) {
  return max_abs_diff(gram_product(q, q), Matrix::identity(q.cols()));
}

TEST(Svd, ReconstructsSquareMatrix) {
  Rng rng(1);
  const Matrix a = random_gaussian(6, 6, rng);
  const SvdResult svd = svd_decompose(a);
  EXPECT_LT(max_abs_diff(svd.reconstruct(), a), 1e-9);
}

TEST(Svd, ReconstructsTallMatrix) {
  Rng rng(2);
  const Matrix a = random_gaussian(12, 4, rng);
  const SvdResult svd = svd_decompose(a);
  EXPECT_EQ(svd.u.rows(), 12u);
  EXPECT_EQ(svd.u.cols(), 4u);
  EXPECT_EQ(svd.v.rows(), 4u);
  EXPECT_LT(max_abs_diff(svd.reconstruct(), a), 1e-9);
}

TEST(Svd, ReconstructsWideMatrix) {
  Rng rng(3);
  const Matrix a = random_gaussian(4, 12, rng);
  const SvdResult svd = svd_decompose(a);
  EXPECT_EQ(svd.u.rows(), 4u);
  EXPECT_EQ(svd.v.rows(), 12u);
  EXPECT_EQ(svd.sigma.size(), 4u);
  EXPECT_LT(max_abs_diff(svd.reconstruct(), a), 1e-9);
}

TEST(Svd, FactorsAreOrthonormal) {
  Rng rng(4);
  const Matrix a = random_gaussian(8, 5, rng);
  const SvdResult svd = svd_decompose(a);
  EXPECT_LT(orthogonality_defect(svd.u), 1e-9);
  EXPECT_LT(orthogonality_defect(svd.v), 1e-9);
}

TEST(Svd, SingularValuesSortedAndNonNegative) {
  Rng rng(5);
  const Matrix a = random_gaussian(7, 7, rng);
  const SvdResult svd = svd_decompose(a);
  for (std::size_t i = 0; i < svd.sigma.size(); ++i) {
    EXPECT_GE(svd.sigma[i], 0.0);
    if (i > 0) {
      EXPECT_LE(svd.sigma[i], svd.sigma[i - 1]);
    }
  }
}

TEST(Svd, DiagonalMatrixGivesItsEntries) {
  const std::vector<double> d{3.0, 1.0, 2.0};
  const Matrix a = Matrix::diagonal(d);
  const SvdResult svd = svd_decompose(a);
  EXPECT_NEAR(svd.sigma[0], 3.0, 1e-12);
  EXPECT_NEAR(svd.sigma[1], 2.0, 1e-12);
  EXPECT_NEAR(svd.sigma[2], 1.0, 1e-12);
}

TEST(Svd, KnownRankOneMatrix) {
  // a = u v^T with ||u|| = 5, ||v|| = sqrt(2): sigma_1 = 5 sqrt(2).
  const Matrix a = Matrix::from_rows({{3.0, 3.0}, {4.0, 4.0}});
  const SvdResult svd = svd_decompose(a);
  EXPECT_NEAR(svd.sigma[0], 5.0 * std::sqrt(2.0), 1e-10);
  EXPECT_NEAR(svd.sigma[1], 0.0, 1e-10);
  EXPECT_EQ(svd.numeric_rank(), 1u);
}

TEST(Svd, NumericRankOfLowRankMatrix) {
  Rng rng(6);
  const Matrix a = random_low_rank(10, 14, 4, rng);
  EXPECT_EQ(svd_decompose(a).numeric_rank(1e-8), 4u);
}

TEST(Svd, NumericRankOfZeroMatrix) {
  const Matrix z(3, 5);
  EXPECT_EQ(svd_decompose(z).numeric_rank(), 0u);
}

TEST(Svd, ZeroMatrixFactorsStillOrthonormal) {
  const Matrix z(4, 3);
  const SvdResult svd = svd_decompose(z);
  EXPECT_LT(orthogonality_defect(svd.u), 1e-9);
  EXPECT_LT(orthogonality_defect(svd.v), 1e-9);
}

TEST(Svd, RankDeficientFactorsCompleted) {
  Rng rng(7);
  const Matrix a = random_low_rank(6, 6, 2, rng);
  const SvdResult svd = svd_decompose(a);
  // U columns beyond the rank must still be unit and orthogonal.
  EXPECT_LT(orthogonality_defect(svd.u), 1e-8);
}

TEST(Svd, FrobeniusNormMatchesSigma) {
  Rng rng(8);
  const Matrix a = random_gaussian(5, 9, rng);
  const SvdResult svd = svd_decompose(a);
  double sum_sq = 0.0;
  for (double s : svd.sigma) sum_sq += s * s;
  EXPECT_NEAR(std::sqrt(sum_sq), a.frobenius_norm(), 1e-9);
}

TEST(Svd, NuclearNorm) {
  const std::vector<double> d{2.0, 3.0};
  const Matrix a = Matrix::diagonal(d);
  EXPECT_NEAR(svd_decompose(a).nuclear_norm(), 5.0, 1e-12);
}

TEST(Svd, TruncatedReconstructionIsBestApproximation) {
  Rng rng(9);
  const Matrix a = random_gaussian(8, 8, rng);
  const SvdResult svd = svd_decompose(a);
  const Matrix rank3 = svd.reconstruct(3);
  // Eckart-Young: residual Frobenius norm equals sqrt(sum of trailing sigma^2).
  double expect_sq = 0.0;
  for (std::size_t i = 3; i < svd.sigma.size(); ++i) expect_sq += svd.sigma[i] * svd.sigma[i];
  EXPECT_NEAR((a - rank3).frobenius_norm(), std::sqrt(expect_sq), 1e-8);
}

TEST(Svd, RejectsEmptyMatrix) {
  Matrix empty;
  EXPECT_THROW(svd_decompose(empty), std::invalid_argument);
}

TEST(Svd, RejectsBadOptions) {
  const Matrix a(2, 2, 1.0);
  SvdOptions bad;
  bad.tolerance = 0.0;
  EXPECT_THROW(svd_decompose(a, bad), std::invalid_argument);
  bad = SvdOptions{};
  bad.max_sweeps = 0;
  EXPECT_THROW(svd_decompose(a, bad), std::invalid_argument);
}

TEST(Svd, OrthogonalMatrixHasUnitSingularValues) {
  Rng rng(11);
  const Matrix q = random_orthonormal(6, 6, rng);
  const SvdResult svd = svd_decompose(q);
  for (double s : svd.sigma) EXPECT_NEAR(s, 1.0, 1e-9);
}

TEST(Svd, ScalingMatrixScalesSigma) {
  Rng rng(12);
  const Matrix a = random_gaussian(5, 5, rng);
  const SvdResult s1 = svd_decompose(a);
  const SvdResult s2 = svd_decompose(a * 3.0);
  for (std::size_t i = 0; i < s1.sigma.size(); ++i)
    EXPECT_NEAR(s2.sigma[i], 3.0 * s1.sigma[i], 1e-8);
}

// Parameterized sweep over shapes and ranks: decomposition invariants.
struct SvdCase {
  std::size_t rows, cols, rank;
};

class SvdSweep : public ::testing::TestWithParam<SvdCase> {};

TEST_P(SvdSweep, Invariants) {
  const SvdCase c = GetParam();
  Rng rng(200 + c.rows * 7 + c.cols * 3 + c.rank);
  const Matrix a = random_low_rank(c.rows, c.cols, c.rank, rng);
  const SvdResult svd = svd_decompose(a);
  EXPECT_LT(max_abs_diff(svd.reconstruct(), a), 1e-8);
  EXPECT_LT(orthogonality_defect(svd.u), 1e-8);
  EXPECT_LT(orthogonality_defect(svd.v), 1e-8);
  EXPECT_EQ(svd.numeric_rank(1e-7), c.rank);
}

INSTANTIATE_TEST_SUITE_P(ShapesAndRanks, SvdSweep,
                         ::testing::Values(SvdCase{4, 4, 1}, SvdCase{4, 4, 4},
                                           SvdCase{10, 3, 2}, SvdCase{3, 10, 2},
                                           SvdCase{16, 16, 5}, SvdCase{10, 96, 6},
                                           SvdCase{2, 2, 1}, SvdCase{25, 8, 8}));

}  // namespace
}  // namespace tafloc
