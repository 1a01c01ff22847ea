// Assorted matrix operations used by the reconstruction solvers: the
// singular-value shrink (the SVT proximal step), rank utilities and
// deterministic random-matrix factories for tests and benches.
#pragma once

#include <cstddef>

#include "tafloc/linalg/matrix.h"
#include "tafloc/util/rng.h"

namespace tafloc {

/// Singular-value soft-threshold (the proximal operator of the nuclear
/// norm): out = U * max(Sigma - tau, 0) * V^T, written into `out`
/// (resized; reuses the buffer across solver iterations).  tau must be
/// >= 0 and `out` must not alias `a`.
void singular_value_shrink_into(const Matrix& a, double tau, Matrix& out);

/// Numeric rank via SVD.
std::size_t numeric_rank(const Matrix& a, double rel_tol = 1e-10);

/// Matrix with i.i.d. standard normal entries.
Matrix random_gaussian(std::size_t rows, std::size_t cols, Rng& rng);

/// Random matrix of exact rank `rank`: product of two Gaussian factors
/// (rank <= min(rows, cols)); entries scaled so the Frobenius norm is
/// about sqrt(rows * cols).
Matrix random_low_rank(std::size_t rows, std::size_t cols, std::size_t rank, Rng& rng);

/// Random matrix with orthonormal columns (rows >= cols), from QR of a
/// Gaussian matrix.
Matrix random_orthonormal(std::size_t rows, std::size_t cols, Rng& rng);

}  // namespace tafloc
