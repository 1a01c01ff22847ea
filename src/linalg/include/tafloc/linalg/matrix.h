// Dense row-major matrix of double.
//
// This is the numeric workhorse of the whole library: fingerprint
// matrices (M links x N grids), factor matrices L/R, RTI weight models
// and all solver internals are built on it.  The type is a regular
// value type (copyable, movable, equality-comparable) per Core
// Guidelines C.11; element access is bounds-checked in debug builds and
// via at() always.
#pragma once

#include <algorithm>
#include <cstddef>
#include <initializer_list>
#include <span>
#include <string>
#include <vector>

#include "tafloc/linalg/view.h"
#include "tafloc/util/check.h"

namespace tafloc {

/// Dense column vector, stored as a plain std::vector<double>.
using Vector = std::vector<double>;

class Matrix {
 public:
  /// Empty 0x0 matrix.
  Matrix() = default;

  /// rows x cols matrix with every element set to `fill`.
  Matrix(std::size_t rows, std::size_t cols, double fill = 0.0);

  /// Build from nested initializer lists; all rows must have equal length.
  static Matrix from_rows(std::initializer_list<std::initializer_list<double>> rows);

  /// n x n identity.
  static Matrix identity(std::size_t n);

  /// Diagonal matrix from a vector of diagonal entries.
  static Matrix diagonal(std::span<const double> diag);

  /// Column matrix (n x 1) from a vector.
  static Matrix column(std::span<const double> v);

  /// Owning copy of a (possibly strided) view.
  explicit Matrix(ConstMatrixView v);

  std::size_t rows() const noexcept { return rows_; }
  std::size_t cols() const noexcept { return cols_; }
  /// Total element count (rows * cols).
  std::size_t size() const noexcept { return data_.size(); }
  bool empty() const noexcept { return data_.empty(); }

  /// Unchecked-in-release element access (debug builds bounds-check).
  double& operator()(std::size_t r, std::size_t c) TAFLOC_MATRIX_ACCESS_NOEXCEPT {
#ifndef NDEBUG
    TAFLOC_CHECK_BOUNDS(r, rows_, "Matrix row");
    TAFLOC_CHECK_BOUNDS(c, cols_, "Matrix col");
#endif
    return data_[r * cols_ + c];
  }
  double operator()(std::size_t r, std::size_t c) const TAFLOC_MATRIX_ACCESS_NOEXCEPT {
#ifndef NDEBUG
    TAFLOC_CHECK_BOUNDS(r, rows_, "Matrix row");
    TAFLOC_CHECK_BOUNDS(c, cols_, "Matrix col");
#endif
    return data_[r * cols_ + c];
  }

  /// Always-checked element access.
  double at(std::size_t r, std::size_t c) const;
  double& at(std::size_t r, std::size_t c);

  /// Copy of row r / column c as a Vector.
  Vector row(std::size_t r) const;
  Vector col(std::size_t c) const;

  /// Overwrite row r / column c.  Span length must match.
  void set_row(std::size_t r, std::span<const double> values);
  void set_col(std::size_t c, std::span<const double> values);
  /// Overwrite column c from a (possibly strided) view -- the zero-copy
  /// column-to-column transfer.
  void set_col(std::size_t c, ConstVectorView values);

  /// Contiguous storage (row-major).
  std::span<double> data() noexcept { return data_; }
  std::span<const double> data() const noexcept { return data_; }

  // -- non-owning views (valid while this matrix is alive and its
  // storage unreallocated; see view.h for the lifetime contract) --

  /// View of the whole matrix (row_stride == cols).
  ConstMatrixView view() const noexcept { return {data_.data(), rows_, cols_, cols_}; }
  MatrixView view() noexcept { return {data_.data(), rows_, cols_, cols_}; }

  /// Implicit conversion so view-based kernels accept a Matrix directly.
  operator ConstMatrixView() const noexcept { return view(); }
  operator MatrixView() noexcept { return view(); }

  /// Column c as a strided vector view (no copy, unlike col()).
  ConstVectorView col_view(std::size_t c) const { return view().col_view(c); }
  VectorView col_view(std::size_t c) { return view().col_view(c); }

  /// Row r as a contiguous span (rows of a row-major matrix are dense).
  std::span<const double> row_span(std::size_t r) const { return view().row_span(r); }
  std::span<double> row_span(std::size_t r) { return view().row_span(r); }

  /// The (nr x nc) block starting at (r0, c0), sharing this storage
  /// (no copy, unlike submatrix()).
  ConstMatrixView block_view(std::size_t r0, std::size_t c0, std::size_t nr,
                             std::size_t nc) const {
    return view().block_view(r0, c0, nr, nc);
  }
  MatrixView block_view(std::size_t r0, std::size_t c0, std::size_t nr, std::size_t nc) {
    return view().block_view(r0, c0, nr, nc);
  }

  /// The contiguous column range [c0, c0 + nc), all rows.
  ConstMatrixView columns_view(std::size_t c0, std::size_t nc) const {
    return view().columns_view(c0, nc);
  }
  MatrixView columns_view(std::size_t c0, std::size_t nc) { return view().columns_view(c0, nc); }

  /// Reshape in place to rows x cols.  Contents are reinterpreted in
  /// flattened row-major order: the first min(old, new) elements keep
  /// their values and any tail beyond the old size is zero
  /// (std::vector::resize value-initializes) -- pair with fill() when
  /// fresh contents are needed.  No allocation happens while
  /// rows * cols stays within capacity() -- the property Workspace
  /// leasing (and view stability) relies on.
  void resize(std::size_t rows, std::size_t cols) {
    TAFLOC_CHECK_ARG((rows == 0) == (cols == 0),
                     "a matrix must have both dimensions zero or both positive");
    rows_ = rows;
    cols_ = cols;
    data_.resize(rows * cols);
  }

  /// Set every element to `value`.
  void fill(double value) noexcept { std::fill(data_.begin(), data_.end(), value); }

  /// Element capacity of the underlying storage.
  std::size_t capacity() const noexcept { return data_.capacity(); }

  /// New matrix that is the transpose of this one.
  Matrix transposed() const;

  /// Copy of the block starting at (r0, c0) of shape (nr, nc).
  Matrix submatrix(std::size_t r0, std::size_t c0, std::size_t nr, std::size_t nc) const;

  /// New matrix whose columns are this matrix's columns at `indices`
  /// (in the given order; duplicates allowed).
  Matrix select_columns(std::span<const std::size_t> indices) const;

  /// New matrix whose rows are this matrix's rows at `indices`.
  Matrix select_rows(std::span<const std::size_t> indices) const;

  /// Shape predicate.
  bool same_shape(const Matrix& other) const noexcept {
    return rows_ == other.rows_ && cols_ == other.cols_;
  }

  // -- in-place arithmetic (shapes must match where applicable) --
  Matrix& operator+=(const Matrix& other);
  Matrix& operator-=(const Matrix& other);
  Matrix& operator*=(double scalar) noexcept;

  /// Element-wise (Hadamard) product.
  Matrix hadamard(const Matrix& other) const;

  /// Sum over all elements of the element-wise product (the Frobenius
  /// inner product <this, other>).
  double frobenius_dot(const Matrix& other) const;

  /// Frobenius norm sqrt(sum x_ij^2).
  double frobenius_norm() const noexcept;

  /// Largest absolute element; 0 for an empty matrix.
  double max_abs() const noexcept;

  /// Sum of all elements.
  double sum() const noexcept;

  /// Exact element-wise equality (used by tests on constructed values).
  friend bool operator==(const Matrix& a, const Matrix& b) noexcept {
    return a.rows_ == b.rows_ && a.cols_ == b.cols_ && a.data_ == b.data_;
  }

  /// Human-readable dump (for diagnostics / test failure messages).
  std::string to_string(int decimals = 3) const;

 private:
  std::size_t rows_ = 0;
  std::size_t cols_ = 0;
  std::vector<double> data_;
};

// -- free arithmetic --

/// Matrix sum / difference; shapes must match.
Matrix operator+(Matrix a, const Matrix& b);
Matrix operator-(Matrix a, const Matrix& b);

/// Scalar scaling.
Matrix operator*(Matrix a, double s);
Matrix operator*(double s, Matrix a);

/// Matrix product (a.cols() must equal b.rows()).
Matrix operator*(const Matrix& a, const Matrix& b);

/// Matrix-vector product (a.cols() must equal x.size()).
Vector multiply(const Matrix& a, std::span<const double> x);

/// Transposed matrix-vector product: a^T x (a.rows() must equal x.size()).
Vector multiply_transposed(const Matrix& a, std::span<const double> x);

/// a^T * b computed without forming a.transposed() (a.rows() == b.rows()).
Matrix gram_product(const Matrix& a, const Matrix& b);

/// a * b^T computed without forming b.transposed() (a.cols() == b.cols()).
Matrix outer_product(const Matrix& a, const Matrix& b);

/// Maximum absolute difference between two same-shaped matrices.
double max_abs_diff(const Matrix& a, const Matrix& b);

// -- destination-passing kernels --
//
// The in-place counterparts of the value-returning operations above.
// The fundamental forms operate on *views*: inputs are ConstMatrixView
// (a Matrix converts implicitly; a block/column-range view plugs in
// with zero copies) and the output is a pre-shaped MatrixView --
// shapes are checked, never resized, so a kernel can write straight
// into a block of a larger matrix.  The owning-Matrix overloads below
// them are one-line wrappers that resize `out` (so a Workspace-leased
// buffer is reused without allocation) and forward to the view form.
//
// Each kernel runs blocked/tiled with the outer loop parallelized on
// the global ThreadPool.  Work is partitioned by *output rows*, and
// each output element's floating-point accumulation order is identical
// to the sequential kernel's, so results are bit-identical at every
// thread count -- and identical whether operands are owning matrices,
// views of them, or views into larger strided storage.
//
// The innermost row primitives (the axpy inside gemm / gram /
// transposed matvec / add_scaled, and the hadamard row) dispatch
// through the pluggable KernelOps table (backend.h): scalar reference
// or AVX2, selected via set_kernel_backend() or the
// TAFLOC_KERNEL_BACKEND environment variable.  Backends preserve the
// per-element operation sequence exactly (no FMA, no lane-shared
// accumulators), so kernel results are ALSO bit-identical across
// backends; dot-product reductions (matrix-vector multiply,
// outer_product) stay scalar everywhere for the same reason.
//
// Aliasing: where "out must not alias an input" is stated, debug
// builds verify it (std::invalid_argument on overlap of the viewed
// storage ranges); release builds trust the caller.

/// out = a * b (blocked gemm; out pre-shaped a.rows() x b.cols(); out
/// must not alias a or b).
void multiply_into(ConstMatrixView a, ConstMatrixView b, MatrixView out);

/// out = a^T * b without forming transposes (out pre-shaped
/// a.cols() x b.cols(); out must not alias a or b).
void gram_product_into(ConstMatrixView a, ConstMatrixView b, MatrixView out);

/// out = a * b^T without forming transposes (out pre-shaped
/// a.rows() x b.rows(); out must not alias a or b).
void outer_product_into(ConstMatrixView a, ConstMatrixView b, MatrixView out);

/// out = a^T (out pre-shaped a.cols() x a.rows(); must not alias a).
void transposed_into(ConstMatrixView a, MatrixView out);

/// out = a o b element-wise (out pre-shaped; may alias a or b when the
/// strides line up, e.g. all three are views of equal shape).
void hadamard_into(ConstMatrixView a, ConstMatrixView b, MatrixView out);

/// y += s * x element-wise (the matrix axpy; shapes must match).
void add_scaled_into(ConstMatrixView x, double s, MatrixView y);

/// Copy src into dst (shapes must match; strided-to-strided).
void copy_into(ConstMatrixView src, MatrixView dst);

/// Gather arbitrary columns of src (in index order, duplicates
/// allowed) into the pre-shaped dst (src.rows() x indices.size()) --
/// the no-allocation replacement for select_columns() when the
/// destination is leased.
void gather_columns_into(ConstMatrixView src, std::span<const std::size_t> indices,
                         MatrixView dst);

// Owning-Matrix overloads: resize `out` and forward to the view form.
void multiply_into(const Matrix& a, const Matrix& b, Matrix& out);
void gram_product_into(const Matrix& a, const Matrix& b, Matrix& out);
void outer_product_into(const Matrix& a, const Matrix& b, Matrix& out);
void transposed_into(const Matrix& a, Matrix& out);
void hadamard_into(const Matrix& a, const Matrix& b, Matrix& out);
void gather_columns_into(const Matrix& src, std::span<const std::size_t> indices, Matrix& dst);

/// y = a * x (parallel over rows; y resized to a.rows()).
void multiply_into(ConstMatrixView a, std::span<const double> x, Vector& y);

/// y = a^T x (parallel over output entries; y resized to a.cols()).
void multiply_transposed_into(ConstMatrixView a, std::span<const double> x, Vector& y);

/// Frobenius norm of (a - b) without forming the difference.
double frobenius_diff_norm(ConstMatrixView a, ConstMatrixView b);

}  // namespace tafloc
