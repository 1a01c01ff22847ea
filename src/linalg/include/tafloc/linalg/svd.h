// Thin singular value decomposition via one-sided Jacobi rotations.
//
// A (m x n) = U (m x k) * diag(sigma) (k x k) * V^T (k x n), k = min(m, n),
// sigma sorted descending, U and V with orthonormal columns.  One-sided
// Jacobi is chosen over bidiagonalization for its simplicity and very
// high relative accuracy; fingerprint matrices here are small enough
// (tens of links x up to a few thousand grids) that its O(m n^2) sweeps
// are cheap on the minor dimension.
#pragma once

#include <cstddef>

#include "tafloc/linalg/matrix.h"

namespace tafloc {

struct SvdResult {
  Matrix u;      ///< m x k, orthonormal columns.
  Vector sigma;  ///< k singular values, descending, non-negative.
  Matrix v;      ///< n x k, orthonormal columns.

  /// Reconstruct U * diag(sigma) * V^T truncated to the leading `rank`
  /// singular triplets (rank = 0 means use all of them).
  Matrix reconstruct(std::size_t rank = 0) const;

  /// Destination-passing reconstruct: resizes `out` (no allocation
  /// within capacity) and writes the same result, same accumulation
  /// order, as reconstruct().
  void reconstruct_into(Matrix& out, std::size_t rank = 0) const;

  /// Number of singular values > rel_tol * sigma[0] (0 if sigma[0] == 0).
  std::size_t numeric_rank(double rel_tol = 1e-10) const;

  /// Nuclear norm: sum of singular values.
  double nuclear_norm() const noexcept;
};

/// Options controlling the Jacobi iteration.
struct SvdOptions {
  double tolerance = 1e-12;    ///< relative off-diagonal tolerance.
  std::size_t max_sweeps = 60; ///< hard sweep cap (convergence is quadratic).
};

/// Compute the thin SVD of a non-empty matrix.  Throws
/// std::runtime_error if the Jacobi sweeps fail to converge (which for
/// the default cap indicates pathological input such as NaNs).
SvdResult svd_decompose(const Matrix& a, const SvdOptions& options = {});

}  // namespace tafloc
