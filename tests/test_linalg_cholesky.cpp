#include <gtest/gtest.h>

#include <cmath>

#include "tafloc/linalg/cholesky.h"
#include "tafloc/linalg/ops.h"
#include "tafloc/linalg/vector_ops.h"
#include "tafloc/util/rng.h"

namespace tafloc {
namespace {

/// Random SPD matrix A = G^T G + eps I.
Matrix random_spd(std::size_t n, Rng& rng) {
  const Matrix g = random_gaussian(n + 2, n, rng);
  Matrix a = gram_product(g, g);
  for (std::size_t i = 0; i < n; ++i) a(i, i) += 0.1;
  return a;
}

TEST(Cholesky, FactorReconstructs) {
  Rng rng(1);
  const Matrix a = random_spd(6, rng);
  const Matrix l = cholesky_factor(a);
  EXPECT_LT(max_abs_diff(outer_product(l, l), a), 1e-9);  // L L^T == A
}

TEST(Cholesky, FactorIsLowerTriangular) {
  Rng rng(2);
  const Matrix a = random_spd(5, rng);
  const Matrix l = cholesky_factor(a);
  for (std::size_t i = 0; i < 5; ++i)
    for (std::size_t j = i + 1; j < 5; ++j) EXPECT_DOUBLE_EQ(l(i, j), 0.0);
}

TEST(Cholesky, KnownFactor) {
  const Matrix a = Matrix::from_rows({{4.0, 2.0}, {2.0, 5.0}});
  const Matrix l = cholesky_factor(a);
  EXPECT_NEAR(l(0, 0), 2.0, 1e-12);
  EXPECT_NEAR(l(1, 0), 1.0, 1e-12);
  EXPECT_NEAR(l(1, 1), 2.0, 1e-12);
}

TEST(Cholesky, SolveRecoversSolution) {
  Rng rng(3);
  const Matrix a = random_spd(8, rng);
  Vector x_true(8);
  for (double& v : x_true) v = rng.normal();
  const Vector b = multiply(a, x_true);
  const Vector x = cholesky_solve(cholesky_factor(a), b);
  EXPECT_LT(distance2(x, x_true), 1e-7);
}

TEST(Cholesky, SolveMatrixColumns) {
  Rng rng(4);
  const Matrix a = random_spd(5, rng);
  const Matrix x_true = random_gaussian(5, 3, rng);
  const Matrix b = a * x_true;
  const Matrix x = cholesky_solve_matrix(cholesky_factor(a), b);
  EXPECT_LT(max_abs_diff(x, x_true), 1e-7);
}

TEST(Cholesky, RejectsNonSpd) {
  const Matrix a = Matrix::from_rows({{1.0, 2.0}, {2.0, 1.0}});  // indefinite
  EXPECT_THROW(cholesky_factor(a), std::domain_error);
}

TEST(Cholesky, RejectsNonSquare) {
  const Matrix a(2, 3);
  EXPECT_THROW(cholesky_factor(a), std::invalid_argument);
}

TEST(Cholesky, RejectsWrongRhsLength) {
  Rng rng(5);
  const Matrix a = random_spd(3, rng);
  const Matrix l = cholesky_factor(a);
  const std::vector<double> b{1.0, 2.0};
  EXPECT_THROW(cholesky_solve(l, b), std::invalid_argument);
}

TEST(Cholesky, IdentityFactorsToItself) {
  const Matrix id = Matrix::identity(4);
  EXPECT_LT(max_abs_diff(cholesky_factor(id), id), 1e-12);
}

}  // namespace
}  // namespace tafloc
