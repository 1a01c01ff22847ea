// Householder QR decomposition, plain and column-pivoted.
//
// The column-pivoted (rank-revealing) variant is the engine behind
// TafLoc's reference-location selection: the first n pivot columns of
// the fingerprint matrix are its "maximal linearly independent" columns
// in the greedy sense the paper describes.
#pragma once

#include <cstddef>
#include <vector>

#include "tafloc/linalg/matrix.h"

namespace tafloc {

/// Thin QR: a (m x n) = q (m x k) * r (k x n) with k = min(m, n),
/// q having orthonormal columns and r upper trapezoidal.
struct QrDecomposition {
  Matrix q;
  Matrix r;
};

/// Compute the thin Householder QR of a non-empty matrix.
QrDecomposition qr_decompose(const Matrix& a);

/// Column-pivoted thin QR: a * P = q * r, where P permutes columns so
/// that |r(0,0)| >= |r(1,1)| >= ...  The permutation is returned as the
/// list of original column indices in pivot order.
struct PivotedQr {
  Matrix q;
  Matrix r;
  /// permutation[k] = original column index chosen at pivot step k.
  std::vector<std::size_t> permutation;

  /// Numeric rank: number of diagonal entries of r with
  /// |r(k,k)| > rel_tol * |r(0,0)|.  Returns 0 for an all-zero matrix.
  std::size_t rank(double rel_tol = 1e-10) const;
};

/// Compute the column-pivoted thin QR of a non-empty matrix.
PivotedQr qr_decompose_pivoted(const Matrix& a);

}  // namespace tafloc
