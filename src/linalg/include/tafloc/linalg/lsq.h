// Ridge least squares with a matrix right-hand side (the LRR fit).
#pragma once

#include "tafloc/linalg/matrix.h"

namespace tafloc {

/// Matrix right-hand-side ridge: minimize ||a X - B||_F^2 + lambda ||X||_F^2
/// (lambda >= 0; lambda > 0 works for any shape / rank).  Solved through
/// the regularized normal equations: the Gram matrix is Cholesky-factored
/// once and reused across B's columns.
Matrix solve_ridge_matrix(const Matrix& a, const Matrix& b, double lambda);

}  // namespace tafloc
