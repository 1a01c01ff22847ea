// Compressed sparse row (CSR) matrix.
//
// The RTI weight model is naturally sparse (each link's ellipse covers
// a thin band of grid cells).  RTI assembles W sparse and forms each
// image's W^T y with a CSR product, so a NaN on one link reaches only
// the pixels in its ellipse; the normal matrix is then Cholesky-solved.
#pragma once

#include <cstddef>
#include <span>
#include <vector>

#include "tafloc/linalg/matrix.h"

namespace tafloc {

/// One (row, col, value) entry for assembly.
struct Triplet {
  std::size_t row;
  std::size_t col;
  double value;
};

class SparseMatrix {
 public:
  /// Empty 0x0 matrix.
  SparseMatrix() = default;

  /// Assemble from triplets (duplicates are summed; zeros after summing
  /// are kept -- call prune() to drop them).
  SparseMatrix(std::size_t rows, std::size_t cols, std::vector<Triplet> triplets);

  /// Convert from a dense matrix, dropping entries with |x| <= tol.
  static SparseMatrix from_dense(const Matrix& dense, double tol = 0.0);

  std::size_t rows() const noexcept { return rows_; }
  std::size_t cols() const noexcept { return cols_; }
  /// Number of stored entries.
  std::size_t nnz() const noexcept { return values_.size(); }

  /// y = A x.
  Vector multiply(std::span<const double> x) const;

  /// y = A^T x.
  Vector multiply_transposed(std::span<const double> x) const;

  /// Element lookup (O(log nnz_row)); zero for non-stored entries.
  double at(std::size_t row, std::size_t col) const;

  /// Densify (tests / small matrices only).
  Matrix to_dense() const;

  /// Remove stored entries with |x| <= tol.
  void prune(double tol = 0.0);

  /// Row slice access for iteration: column indices and values of `row`.
  std::span<const std::size_t> row_indices(std::size_t row) const;
  std::span<const double> row_values(std::size_t row) const;

  /// Frobenius norm over stored entries.
  double frobenius_norm() const noexcept;

 private:
  std::size_t rows_ = 0;
  std::size_t cols_ = 0;
  std::vector<std::size_t> row_start_;  ///< size rows_+1.
  std::vector<std::size_t> col_;
  std::vector<double> values_;
};

}  // namespace tafloc
