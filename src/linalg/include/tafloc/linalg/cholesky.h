// Cholesky factorization and solves for symmetric positive definite
// systems (the normal equations of every ridge subproblem in LoLi-IR
// and the LRR correlation-matrix fit).
#pragma once

#include "tafloc/linalg/matrix.h"

namespace tafloc {

/// Lower-triangular Cholesky factor L with a = L L^T.  `a` must be
/// square and symmetric positive definite; throws std::domain_error if
/// a non-positive pivot is met (matrix not SPD within roundoff).
Matrix cholesky_factor(const Matrix& a);

/// Solve a x = b given the factor L from cholesky_factor(a).
Vector cholesky_solve(const Matrix& l, std::span<const double> b);

/// Solve a X = B column-by-column given the factor L (B: n x k).
Matrix cholesky_solve_matrix(const Matrix& l, const Matrix& b);

}  // namespace tafloc
