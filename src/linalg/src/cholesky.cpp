#include "tafloc/linalg/cholesky.h"

#include <cmath>
#include <stdexcept>

#include "tafloc/util/check.h"

namespace tafloc {

Matrix cholesky_factor(const Matrix& a) {
  TAFLOC_CHECK_ARG(a.rows() == a.cols() && !a.empty(), "Cholesky needs a non-empty square matrix");
  for (double v : a.data())
    TAFLOC_CHECK_ARG(std::isfinite(v), "matrix contains non-finite values");
  const std::size_t n = a.rows();
  Matrix l(n, n);
  for (std::size_t i = 0; i < n; ++i) {
    for (std::size_t j = 0; j <= i; ++j) {
      double s = a(i, j);
      for (std::size_t k = 0; k < j; ++k) s -= l(i, k) * l(j, k);
      if (i == j) {
        if (s <= 0.0)
          throw std::domain_error("cholesky_factor: matrix is not positive definite (pivot " +
                                  std::to_string(s) + " at " + std::to_string(i) + ")");
        l(i, i) = std::sqrt(s);
      } else {
        l(i, j) = s / l(j, j);
      }
    }
  }
  return l;
}

Vector cholesky_solve(const Matrix& l, std::span<const double> b) {
  TAFLOC_CHECK_ARG(l.rows() == l.cols(), "Cholesky factor must be square");
  TAFLOC_CHECK_ARG(l.rows() == b.size(), "right-hand side length mismatch");
  const std::size_t n = l.rows();
  // Forward substitution: L y = b.
  Vector y(b.begin(), b.end());
  for (std::size_t i = 0; i < n; ++i) {
    double s = y[i];
    for (std::size_t k = 0; k < i; ++k) s -= l(i, k) * y[k];
    y[i] = s / l(i, i);
  }
  // Back substitution: L^T x = y.
  for (std::size_t ii = n; ii > 0; --ii) {
    const std::size_t i = ii - 1;
    double s = y[i];
    for (std::size_t k = i + 1; k < n; ++k) s -= l(k, i) * y[k];
    y[i] = s / l(i, i);
  }
  return y;
}

Matrix cholesky_solve_matrix(const Matrix& l, const Matrix& b) {
  TAFLOC_CHECK_ARG(l.rows() == b.rows(), "right-hand side row count mismatch");
  Matrix x(b.rows(), b.cols());
  for (std::size_t c = 0; c < b.cols(); ++c) {
    const Vector xc = cholesky_solve(l, b.col(c));
    x.set_col(c, xc);
  }
  return x;
}

}  // namespace tafloc
