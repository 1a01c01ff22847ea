#include "tafloc/linalg/ops.h"

#include <algorithm>
#include <cmath>

#include "tafloc/linalg/qr.h"
#include "tafloc/linalg/svd.h"
#include "tafloc/util/check.h"

namespace tafloc {

void singular_value_shrink_into(const Matrix& a, double tau, Matrix& out) {
  TAFLOC_CHECK_ARG(tau >= 0.0, "shrinkage threshold must be non-negative");
  TAFLOC_CHECK_ARG(&out != &a, "singular_value_shrink_into destination must not alias the input");
  SvdResult svd = svd_decompose(a);
  for (double& s : svd.sigma) s = std::max(s - tau, 0.0);
  svd.reconstruct_into(out);
}

std::size_t numeric_rank(const Matrix& a, double rel_tol) {
  return svd_decompose(a).numeric_rank(rel_tol);
}

Matrix random_gaussian(std::size_t rows, std::size_t cols, Rng& rng) {
  TAFLOC_CHECK_ARG(rows > 0 && cols > 0, "random matrix must be non-empty");
  Matrix m(rows, cols);
  for (double& x : m.data()) x = rng.normal();
  return m;
}

Matrix random_low_rank(std::size_t rows, std::size_t cols, std::size_t rank, Rng& rng) {
  TAFLOC_CHECK_ARG(rank > 0 && rank <= std::min(rows, cols),
                   "rank must be in [1, min(rows, cols)]");
  const Matrix left = random_gaussian(rows, rank, rng);
  const Matrix right = random_gaussian(rank, cols, rng);
  Matrix m = left * right;
  // Normalize so E[x_ij^2] ~ 1 regardless of rank.
  m *= 1.0 / std::sqrt(static_cast<double>(rank));
  return m;
}

Matrix random_orthonormal(std::size_t rows, std::size_t cols, Rng& rng) {
  TAFLOC_CHECK_ARG(rows >= cols, "random_orthonormal needs rows >= cols");
  const Matrix g = random_gaussian(rows, cols, rng);
  return qr_decompose(g).q;
}

}  // namespace tafloc
