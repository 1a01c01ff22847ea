#include <gtest/gtest.h>

#include <algorithm>
#include <cmath>

#include "tafloc/linalg/cg.h"
#include "tafloc/linalg/lsq.h"
#include "tafloc/linalg/ops.h"
#include "tafloc/linalg/vector_ops.h"
#include "tafloc/util/rng.h"

namespace tafloc {
namespace {

// ---------------- ridge ----------------

TEST(Ridge, ShrinksSolutionNorm) {
  Rng rng(3);
  const Matrix a = random_gaussian(10, 4, rng);
  Matrix b(10, 1);
  for (double& v : b.data()) v = rng.normal();
  const Matrix x_small = solve_ridge_matrix(a, b, 0.01);
  const Matrix x_large = solve_ridge_matrix(a, b, 100.0);
  EXPECT_LT(x_large.frobenius_norm(), x_small.frobenius_norm());
}

TEST(Ridge, WorksForWideMatrices) {
  Rng rng(4);
  const Matrix a = random_gaussian(3, 8, rng);
  Matrix b(3, 1);
  for (double& v : b.data()) v = rng.normal();
  const Matrix x = solve_ridge_matrix(a, b, 1e-6);
  // Must reproduce b nearly exactly (underdetermined, tiny ridge).
  EXPECT_LT(frobenius_diff_norm((a * x).view(), b.view()), 1e-3);
}

TEST(Ridge, SatisfiesNormalEquations) {
  Rng rng(5);
  const Matrix a = random_gaussian(9, 4, rng);
  const Matrix b = random_gaussian(9, 3, rng);
  const double lambda = 0.7;
  const Matrix x = solve_ridge_matrix(a, b, lambda);
  // (A^T A + lambda I) X == A^T B, column by column.
  Matrix lhs = gram_product(a, a * x);
  for (std::size_t i = 0; i < lhs.rows(); ++i)
    for (std::size_t c = 0; c < lhs.cols(); ++c) lhs(i, c) += lambda * x(i, c);
  EXPECT_LT(max_abs_diff(lhs, gram_product(a, b)), 1e-8);
}

TEST(Ridge, RejectsNegativeLambda) {
  const Matrix a(2, 2, 1.0);
  const Matrix b(2, 1, 1.0);
  EXPECT_THROW(solve_ridge_matrix(a, b, -1.0), std::invalid_argument);
  // ... and a right-hand side whose row count disagrees with a's.
  EXPECT_THROW(solve_ridge_matrix(a, Matrix(3, 1, 1.0), 1.0), std::invalid_argument);
}

// ---------------- conjugate gradient ----------------

/// The in-place solver's apply-callback for a dense matrix.
LinearOperatorInto matvec(const Matrix& a) {
  return [&a](std::span<const double> x, std::span<double> out) {
    const Vector ax = multiply(a, x);
    std::copy(ax.begin(), ax.end(), out.begin());
  };
}

const LinearOperatorInto kIdentity = [](std::span<const double> x, std::span<double> out) {
  std::copy(x.begin(), x.end(), out.begin());
};

TEST(Cg, SolvesSpdSystem) {
  Rng rng(7);
  const Matrix g = random_gaussian(10, 6, rng);
  Matrix a = gram_product(g, g);
  for (std::size_t i = 0; i < 6; ++i) a(i, i) += 0.5;
  Vector x_true(6);
  for (double& v : x_true) v = rng.normal();
  const Vector b = multiply(a, x_true);
  Vector x(6, 0.0);
  CgScratch scratch;
  const CgSummary res = conjugate_gradient_in_place(matvec(a), b, x, scratch);
  EXPECT_TRUE(res.converged);
  EXPECT_LT(distance2(x, x_true), 1e-6);
}

TEST(Cg, ConvergesInAtMostNIterationsForExactArithmetic) {
  Rng rng(8);
  const Matrix g = random_gaussian(8, 5, rng);
  Matrix a = gram_product(g, g);
  for (std::size_t i = 0; i < 5; ++i) a(i, i) += 1.0;
  Vector b(5);
  for (double& v : b) v = rng.normal();
  Vector x(5, 0.0);
  CgScratch scratch;
  const CgSummary res = conjugate_gradient_in_place(matvec(a), b, x, scratch);
  EXPECT_TRUE(res.converged);
  EXPECT_LE(res.iterations, 5u + 2u);
}

TEST(Cg, IdentityOperatorConvergesImmediately) {
  const std::vector<double> b{1.0, 2.0, 3.0};
  Vector x{0.0, 0.0, 0.0};
  CgScratch scratch;
  const CgSummary res = conjugate_gradient_in_place(kIdentity, b, x, scratch);
  EXPECT_TRUE(res.converged);
  EXPECT_LE(res.iterations, 1u);
  EXPECT_LT(distance2(x, b), 1e-10);
}

TEST(Cg, WarmStartAtSolutionTakesZeroIterations) {
  const std::vector<double> b{2.0, 4.0};
  Vector x(b.begin(), b.end());
  CgScratch scratch;
  const CgSummary res = conjugate_gradient_in_place(kIdentity, b, x, scratch, CgOptions{});
  EXPECT_TRUE(res.converged);
  EXPECT_EQ(res.iterations, 0u);
}

TEST(Cg, DiagonalSystem) {
  const std::vector<double> diag{1.0, 10.0, 100.0};
  const Matrix a = Matrix::diagonal(diag);
  const std::vector<double> b{1.0, 10.0, 100.0};
  Vector x{0.0, 0.0, 0.0};
  CgScratch scratch;
  const CgSummary res = conjugate_gradient_in_place(matvec(a), b, x, scratch);
  EXPECT_TRUE(res.converged);
  for (double v : x) EXPECT_NEAR(v, 1.0, 1e-7);
}

TEST(Cg, ZeroRhsGivesZeroSolution) {
  const std::vector<double> b{0.0, 0.0};
  Vector x{0.0, 0.0};
  CgScratch scratch;
  const CgSummary res = conjugate_gradient_in_place(kIdentity, b, x, scratch);
  EXPECT_TRUE(res.converged);
  EXPECT_DOUBLE_EQ(norm2(x), 0.0);
}

TEST(Cg, IterationCapReported) {
  Rng rng(9);
  const Matrix g = random_gaussian(30, 20, rng);
  Matrix a = gram_product(g, g);
  for (std::size_t i = 0; i < 20; ++i) a(i, i) += 1e-4;
  Vector b(20);
  for (double& v : b) v = rng.normal();
  Vector x(20, 0.0);
  CgScratch scratch;
  CgOptions opts;
  opts.max_iterations = 2;  // deliberately too few
  opts.relative_tolerance = 1e-14;
  const CgSummary res = conjugate_gradient_in_place(matvec(a), b, x, scratch, opts);
  EXPECT_FALSE(res.converged);
  EXPECT_EQ(res.iterations, 2u);
}

TEST(Cg, RejectsBadArguments) {
  CgScratch scratch;
  const std::vector<double> b{1.0};
  Vector x_bad{1.0, 2.0};
  EXPECT_THROW(conjugate_gradient_in_place(kIdentity, b, x_bad, scratch),
               std::invalid_argument);
  Vector empty;
  EXPECT_THROW(conjugate_gradient_in_place(kIdentity, empty, empty, scratch),
               std::invalid_argument);
}

}  // namespace
}  // namespace tafloc
