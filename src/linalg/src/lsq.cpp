#include "tafloc/linalg/lsq.h"

#include "tafloc/linalg/cholesky.h"
#include "tafloc/util/check.h"

namespace tafloc {

Matrix solve_ridge_matrix(const Matrix& a, const Matrix& b, double lambda) {
  TAFLOC_CHECK_ARG(lambda >= 0.0, "ridge parameter must be non-negative");
  TAFLOC_CHECK_ARG(a.rows() == b.rows(), "right-hand side row count mismatch");
  Matrix gram = gram_product(a, a);
  for (std::size_t i = 0; i < gram.rows(); ++i) gram(i, i) += lambda;
  const Matrix l = cholesky_factor(gram);
  const Matrix atb = gram_product(a, b);  // A^T B
  return cholesky_solve_matrix(l, atb);
}

}  // namespace tafloc
