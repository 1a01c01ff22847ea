#include "tafloc/linalg/qr.h"

#include <gtest/gtest.h>

#include <algorithm>
#include <cmath>
#include <set>

#include "tafloc/linalg/ops.h"
#include "tafloc/util/rng.h"

namespace tafloc {
namespace {

/// ||Q^T Q - I||_max.
double orthogonality_defect(const Matrix& q) {
  const Matrix qtq = gram_product(q, q);
  return max_abs_diff(qtq, Matrix::identity(q.cols()));
}

bool is_upper_trapezoidal(const Matrix& r, double tol = 1e-12) {
  for (std::size_t i = 0; i < r.rows(); ++i)
    for (std::size_t j = 0; j < std::min(i, r.cols()); ++j)
      if (std::abs(r(i, j)) > tol) return false;
  return true;
}

TEST(Qr, ReconstructsTallMatrix) {
  Rng rng(1);
  const Matrix a = random_gaussian(8, 4, rng);
  const QrDecomposition qr = qr_decompose(a);
  EXPECT_EQ(qr.q.rows(), 8u);
  EXPECT_EQ(qr.q.cols(), 4u);
  EXPECT_EQ(qr.r.rows(), 4u);
  EXPECT_EQ(qr.r.cols(), 4u);
  EXPECT_LT(max_abs_diff(qr.q * qr.r, a), 1e-10);
}

TEST(Qr, ReconstructsWideMatrix) {
  Rng rng(2);
  const Matrix a = random_gaussian(3, 7, rng);
  const QrDecomposition qr = qr_decompose(a);
  EXPECT_EQ(qr.q.cols(), 3u);
  EXPECT_EQ(qr.r.rows(), 3u);
  EXPECT_EQ(qr.r.cols(), 7u);
  EXPECT_LT(max_abs_diff(qr.q * qr.r, a), 1e-10);
}

TEST(Qr, QHasOrthonormalColumns) {
  Rng rng(3);
  const Matrix a = random_gaussian(10, 6, rng);
  const QrDecomposition qr = qr_decompose(a);
  EXPECT_LT(orthogonality_defect(qr.q), 1e-10);
}

TEST(Qr, RIsUpperTriangular) {
  Rng rng(4);
  const Matrix a = random_gaussian(6, 6, rng);
  const QrDecomposition qr = qr_decompose(a);
  EXPECT_TRUE(is_upper_trapezoidal(qr.r));
}

TEST(Qr, HandlesIdentity) {
  const Matrix id = Matrix::identity(4);
  const QrDecomposition qr = qr_decompose(id);
  EXPECT_LT(max_abs_diff(qr.q * qr.r, id), 1e-12);
}

TEST(Qr, HandlesZeroColumn) {
  Matrix a = Matrix::from_rows({{1.0, 0.0}, {1.0, 0.0}, {0.0, 0.0}});
  const QrDecomposition qr = qr_decompose(a);
  EXPECT_LT(max_abs_diff(qr.q * qr.r, a), 1e-12);
}

TEST(Qr, RejectsEmptyMatrix) {
  Matrix empty;
  EXPECT_THROW(qr_decompose(empty), std::invalid_argument);
}

TEST(Qr, SingleColumn) {
  const Matrix a = Matrix::from_rows({{3.0}, {4.0}});
  const QrDecomposition qr = qr_decompose(a);
  EXPECT_NEAR(std::abs(qr.r(0, 0)), 5.0, 1e-12);
  EXPECT_LT(max_abs_diff(qr.q * qr.r, a), 1e-12);
}

// ---------------- pivoted QR ----------------

TEST(PivotedQr, ReconstructsThroughPermutation) {
  Rng rng(5);
  const Matrix a = random_gaussian(6, 9, rng);
  const PivotedQr qr = qr_decompose_pivoted(a);
  // a * P == q * r, i.e. column permutation[k] of a equals column k of q*r.
  const Matrix qr_prod = qr.q * qr.r;
  for (std::size_t k = 0; k < a.cols(); ++k) {
    const Vector orig = a.col(qr.permutation[k]);
    const Vector got = qr_prod.col(k);
    for (std::size_t i = 0; i < orig.size(); ++i) EXPECT_NEAR(orig[i], got[i], 1e-10);
  }
}

TEST(PivotedQr, PermutationIsAPermutation) {
  Rng rng(6);
  const Matrix a = random_gaussian(4, 7, rng);
  const PivotedQr qr = qr_decompose_pivoted(a);
  std::set<std::size_t> seen(qr.permutation.begin(), qr.permutation.end());
  EXPECT_EQ(seen.size(), 7u);
  EXPECT_EQ(*seen.rbegin(), 6u);
}

TEST(PivotedQr, DiagonalOfRIsNonIncreasing) {
  Rng rng(7);
  const Matrix a = random_gaussian(8, 8, rng);
  const PivotedQr qr = qr_decompose_pivoted(a);
  for (std::size_t i = 1; i < 8; ++i)
    EXPECT_LE(std::abs(qr.r(i, i)), std::abs(qr.r(i - 1, i - 1)) + 1e-10);
}

TEST(PivotedQr, RankOfExactlyLowRankMatrix) {
  Rng rng(8);
  const Matrix a = random_low_rank(10, 12, 3, rng);
  const PivotedQr qr = qr_decompose_pivoted(a);
  EXPECT_EQ(qr.rank(1e-8), 3u);
}

TEST(PivotedQr, RankOfFullRankMatrix) {
  Rng rng(9);
  const Matrix a = random_gaussian(5, 5, rng);
  EXPECT_EQ(qr_decompose_pivoted(a).rank(), 5u);
}

TEST(PivotedQr, RankOfZeroMatrixIsZero) {
  const Matrix z(4, 4);
  EXPECT_EQ(qr_decompose_pivoted(z).rank(), 0u);
}

TEST(PivotedQr, FirstPivotIsLargestColumn) {
  // Column 2 has by far the largest norm, so it must be pivoted first.
  const Matrix a = Matrix::from_rows({{1.0, 0.0, 10.0}, {0.0, 1.0, 10.0}});
  const PivotedQr qr = qr_decompose_pivoted(a);
  EXPECT_EQ(qr.permutation[0], 2u);
}

TEST(PivotedQr, PivotsSpanBeforeDuplicates) {
  // Columns: e1, e1 (duplicate), e2.  A rank-revealing pivot order must
  // place the duplicate last.
  const Matrix a = Matrix::from_rows({{1.0, 1.0, 0.0}, {0.0, 0.0, 1.0}});
  const PivotedQr qr = qr_decompose_pivoted(a);
  EXPECT_EQ(qr.permutation[2] == 0 || qr.permutation[2] == 1, true);
  EXPECT_EQ(qr.rank(1e-10), 2u);
}

TEST(PivotedQr, QOrthonormal) {
  Rng rng(10);
  const Matrix a = random_gaussian(9, 5, rng);
  const PivotedQr qr = qr_decompose_pivoted(a);
  EXPECT_LT(orthogonality_defect(qr.q), 1e-10);
}

// ---------------- triangular solve ----------------

// Parameterized sweep: QR invariants across shapes.
class QrShapeSweep : public ::testing::TestWithParam<std::pair<std::size_t, std::size_t>> {};

TEST_P(QrShapeSweep, FactorizationInvariants) {
  const auto [m, n] = GetParam();
  Rng rng(100 + m * 13 + n);
  const Matrix a = random_gaussian(m, n, rng);
  const QrDecomposition qr = qr_decompose(a);
  EXPECT_LT(max_abs_diff(qr.q * qr.r, a), 1e-9);
  EXPECT_LT(orthogonality_defect(qr.q), 1e-9);
  EXPECT_TRUE(is_upper_trapezoidal(qr.r, 1e-10));

  const PivotedQr pqr = qr_decompose_pivoted(a);
  EXPECT_LT(orthogonality_defect(pqr.q), 1e-9);
  const Matrix permuted = a.select_columns(pqr.permutation);
  EXPECT_LT(max_abs_diff(pqr.q * pqr.r, permuted), 1e-9);
}

INSTANTIATE_TEST_SUITE_P(Shapes, QrShapeSweep,
                         ::testing::Values(std::make_pair<std::size_t, std::size_t>(1, 1),
                                           std::make_pair<std::size_t, std::size_t>(5, 1),
                                           std::make_pair<std::size_t, std::size_t>(1, 5),
                                           std::make_pair<std::size_t, std::size_t>(4, 4),
                                           std::make_pair<std::size_t, std::size_t>(12, 5),
                                           std::make_pair<std::size_t, std::size_t>(5, 12),
                                           std::make_pair<std::size_t, std::size_t>(20, 20)));

}  // namespace
}  // namespace tafloc
